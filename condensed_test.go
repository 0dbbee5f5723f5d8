package sideeffect

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"sideeffect/internal/bitset"
	"sideeffect/internal/core"
	"sideeffect/internal/ir"
	"sideeffect/internal/report"
	"sideeffect/internal/workload"
)

// TestCondensedPerNodeIdentical is the differential gate of the
// SCC-condensed solver: over the full differential corpus, under every
// allocation policy, sequentially and with a 4-worker schedule, the
// condensed storage layer and the per-node Figure-2 search must render
// byte-identical reports and bit-identical per-call-site sets.
func TestCondensedPerNodeIdentical(t *testing.T) {
	policies := []core.AllocPolicy{core.AllocAuto, core.AllocHybrid, core.AllocDense}
	schedules := []Options{{Sequential: true}, {Workers: 4}}
	for _, cfg := range differentialConfigs() {
		src := workload.Emit(workload.Random(cfg))
		for _, pol := range policies {
			for _, sched := range schedules {
				tag := fmt.Sprintf("size=%d seed=%d depth=%d alloc=%d workers=%d",
					cfg.Procs, cfg.Seed, cfg.MaxDepth, pol, sched.Workers)
				con := sched
				con.Alloc = pol
				base := con
				base.DisableCondensation = true
				ca, err := AnalyzeWith(src, con)
				if err != nil {
					t.Fatalf("%s: condensed: %v", tag, err)
				}
				ba, err := AnalyzeWith(src, base)
				if err != nil {
					t.Fatalf("%s: baseline: %v", tag, err)
				}
				if c, b := ca.Report(), ba.Report(); c != b {
					t.Fatalf("%s: reports differ:\n--- condensed\n%s\n--- per-node\n%s", tag, c, b)
				}
				cj, err := report.JSON(ca.Mod, ca.Use, ca.Aliases, ca.SecMod)
				if err != nil {
					t.Fatalf("%s: json: %v", tag, err)
				}
				bj, err := report.JSON(ba.Mod, ba.Use, ba.Aliases, ba.SecMod)
				if err != nil {
					t.Fatalf("%s: json: %v", tag, err)
				}
				if cj != bj {
					t.Fatalf("%s: JSON reports differ", tag)
				}
				for _, p := range ca.Prog.Procs {
					if !ca.Mod.GMOD[p.ID].Equal(ba.Mod.GMOD[p.ID]) || !ca.Use.GMOD[p.ID].Equal(ba.Use.GMOD[p.ID]) {
						t.Fatalf("%s: GMOD/GUSE(%s) differ between solvers", tag, p.Name)
					}
				}
				for i := range ca.ModSets {
					if !ca.ModSets[i].Equal(ba.ModSets[i]) || !ca.UseSets[i].Equal(ba.UseSets[i]) {
						t.Fatalf("%s: call site %d sets differ between solvers", tag, i)
					}
				}
			}
		}
	}
}

// TestCondensedSCCInvariant checks the storage layer's licence
// (Theorem 1) on the solved results: every member of a
// strongly-connected component must report the same escaping set
// GMOD(u) ∖ LOCAL(u), since the condensed solver stores exactly one
// such row per component.
func TestCondensedSCCInvariant(t *testing.T) {
	for seed := int64(0); seed < 30; seed++ {
		cfg := workload.DefaultConfig(40, 500+seed)
		cfg.CycleFraction = 0.6 // bias toward non-trivial components
		prog := workload.Random(cfg)
		st := core.BuildStructure(prog)
		scc := st.CG.G.SCC()
		for _, kind := range []core.Kind{core.Mod, core.Use} {
			r := core.Analyze(prog, kind, core.Options{Structure: st})
			esc := make([]*bitset.Set, prog.NumProcs())
			for _, p := range prog.Procs {
				e := bitset.New(prog.NumVars())
				e.UnionDiffWith(r.GMOD[p.ID], r.Facts.Local[p.ID])
				esc[p.ID] = e
			}
			for c, members := range scc.Members {
				if len(members) < 2 {
					continue
				}
				first := members[0]
				for _, u := range members[1:] {
					if !esc[u].Equal(esc[first]) {
						t.Fatalf("seed=%d kind=%v: SCC %d members %s and %s disagree:\n %v\n %v",
							seed, kind, c, prog.Procs[first].Name, prog.Procs[u].Name, esc[first], esc[u])
					}
				}
			}
		}
	}
}

// TestAnalyzeCondensedMatchesAnalyze checks the giant-graph entry
// point row for row against the materializing pipeline: GMOD rows,
// sizes, and DMOD rows reconstructed from the condensed store must be
// bit-identical, on flat and nested programs of both kinds.
func TestAnalyzeCondensedMatchesAnalyze(t *testing.T) {
	cfgs := []workload.Config{
		workload.DefaultConfig(60, 7),
		workload.DefaultConfig(300, 8),
	}
	for seed := int64(0); seed < 5; seed++ {
		cfg := workload.DefaultConfig(30, 200+seed)
		cfg.MaxDepth = 3
		cfg.NestFraction = 0.4
		cfgs = append(cfgs, cfg)
	}
	for _, cfg := range cfgs {
		prog := workload.Random(cfg)
		for _, kind := range []core.Kind{core.Mod, core.Use} {
			tag := fmt.Sprintf("size=%d seed=%d depth=%d kind=%v", cfg.Procs, cfg.Seed, cfg.MaxDepth, kind)
			r := core.Analyze(prog, kind, core.Options{})
			cr, err := core.AnalyzeCondensed(context.Background(), prog, kind, core.Options{})
			if err != nil {
				t.Fatalf("%s: %v", tag, err)
			}
			sc := bitset.New(prog.NumVars())
			for _, p := range prog.Procs {
				sc.Clear()
				if !cr.GMODInto(p.ID, sc).Equal(r.GMOD[p.ID]) {
					t.Fatalf("%s: GMOD(%s) differs:\n condensed %v\n full      %v", tag, p.Name, sc, r.GMOD[p.ID])
				}
				if got, want := cr.GMODSize(p.ID), r.GMOD[p.ID].Len(); got != want {
					t.Fatalf("%s: GMODSize(%s) = %d, want %d", tag, p.Name, got, want)
				}
			}
			for _, cs := range prog.Sites {
				sc.Clear()
				if !cr.DMODInto(cs.ID, sc).Equal(r.DMOD[cs.ID]) {
					t.Fatalf("%s: DMOD(site %d) differs:\n condensed %v\n full      %v", tag, cs.ID, sc, r.DMOD[cs.ID])
				}
			}
			// The condensed path must do no more bit-vector work than
			// Theorem 2 allows the per-node search.
			for lvl, s := range cr.GMODStats {
				if s.Visits != prog.NumProcs() {
					t.Fatalf("%s: level %d visited %d of %d procedures", tag, lvl, s.Visits, prog.NumProcs())
				}
				if s.EdgeUnions > prog.NumSites() {
					t.Fatalf("%s: level %d edge unions %d exceed %d call sites", tag, lvl, s.EdgeUnions, prog.NumSites())
				}
			}
		}
	}
}

// TestWriteJSONMatchesRender pins the streaming JSON writer to the
// monolithic encoder byte for byte, including the envelope edge cases
// (empty vs absent arrays, stages present and absent).
func TestWriteJSONMatchesRender(t *testing.T) {
	progs := []string{
		workload.Emit(workload.PaperExample()),
		workload.Emit(workload.Random(workload.DefaultConfig(25, 4))),
	}
	for i, src := range progs {
		for _, profile := range []bool{false, true} {
			a, err := AnalyzeWith(src, Options{Sequential: true, Profile: profile})
			if err != nil {
				t.Fatalf("prog %d: %v", i, err)
			}
			jr := report.BuildJSON(a.Mod, a.Use, a.Aliases, a.SecMod)
			if profile && a.Stages != nil {
				jr.Stages = a.Stages.Snapshot()
			}
			want, err := jr.Render()
			if err != nil {
				t.Fatalf("prog %d: render: %v", i, err)
			}
			var b strings.Builder
			if err := report.WriteJSON(&b, jr); err != nil {
				t.Fatalf("prog %d: write: %v", i, err)
			}
			if b.String() != want {
				t.Fatalf("prog %d profile=%v: WriteJSON differs from Render:\n--- stream\n%s\n--- render\n%s",
					i, profile, b.String(), want)
			}
		}
	}
	// Envelope edge cases without a full analysis.
	for _, jr := range []*report.JSONReport{
		{Program: "empty"},
		{Program: "empty-nonnil", Procedures: []report.JSONProcedure{}, CallSites: []report.JSONCallSite{}},
	} {
		want, err := jr.Render()
		if err != nil {
			t.Fatal(err)
		}
		var b strings.Builder
		if err := report.WriteJSON(&b, jr); err != nil {
			t.Fatal(err)
		}
		if b.String() != want {
			t.Fatalf("%s: WriteJSON differs from Render:\n--- stream\n%q\n--- render\n%q", jr.Program, b.String(), want)
		}
	}
}

// TestEmitToMatchesEmit pins the streaming source emitter to the
// string emitter byte for byte across flat, nested, and structured
// workloads.
func TestEmitToMatchesEmit(t *testing.T) {
	nest := workload.DefaultConfig(25, 12)
	nest.MaxDepth = 3
	nest.NestFraction = 0.4
	progs := map[string]*ir.Program{
		"paper":  workload.PaperExample(),
		"tower":  workload.NestedTower(4),
		"flat":   workload.Random(workload.DefaultConfig(40, 11)),
		"nested": workload.Random(nest),
	}
	for name, prog := range progs {
		want := workload.Emit(prog)
		var b strings.Builder
		if err := workload.EmitTo(&b, prog); err != nil {
			t.Fatalf("%s: EmitTo: %v", name, err)
		}
		if b.String() != want {
			t.Fatalf("%s: EmitTo differs from Emit", name)
		}
	}
}
