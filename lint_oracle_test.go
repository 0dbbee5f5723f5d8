package sideeffect

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"sideeffect/internal/ir"
	"sideeffect/internal/lint"
	"sideeffect/internal/report"
	"sideeffect/internal/workload"
)

// This file holds a test-only reference implementation of the lint
// rules and of the engine's ordering: the straightforward per-fact
// formulation (rescan every procedure for each global or variable,
// format messages with fmt, order with a stable comparison sort).
// TestLintOracle checks that the production engine, which builds the
// program-wide live sets once and sorts an index permutation, emits
// exactly the same diagnostics, field by field and in the same order.

// oracleRules maps each rule ID to its reference body.
var oracleRules = map[string]func(in *lint.Input, emit func(lint.Diagnostic)){
	"SE001": oracleRefNeverModified,
	"SE002": oraclePureProcedure,
	"SE003": oracleAliasHazard,
	"SE004": oracleDeadGlobal,
	"SE005": oracleIgnorableCall,
	"SE006": oracleLoopParallel,
	"SE007": oracleLoopSerial,
}

// oracleLint runs every rule at its default severity (the zero
// Config) and orders the findings with a stable sort.
func oracleLint(t *testing.T, in *lint.Input) *lint.Report {
	t.Helper()
	rep := &lint.Report{Counts: make(map[string]int)}
	for _, rl := range lint.Rules() {
		run, ok := oracleRules[rl.ID]
		if !ok {
			t.Fatalf("rule %s has no reference body", rl.ID)
		}
		rep.Counts[rl.ID] = 0
		run(in, func(d lint.Diagnostic) {
			d.Rule, d.Name, d.Severity = rl.ID, rl.Name, rl.Default
			rep.Diags = append(rep.Diags, d)
			rep.Counts[rl.ID]++
		})
	}
	oracleSort(rep.Diags)
	return rep
}

func oracleSort(ds []lint.Diagnostic) {
	sort.SliceStable(ds, func(i, j int) bool {
		a, b := ds[i], ds[j]
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Col != b.Pos.Col {
			return a.Pos.Col < b.Pos.Col
		}
		if a.Rule != b.Rule {
			return a.Rule < b.Rule
		}
		if a.Subject != b.Subject {
			return a.Subject < b.Subject
		}
		return a.Message < b.Message
	})
}

func oracleRefNeverModified(in *lint.Input, emit func(lint.Diagnostic)) {
	for _, p := range in.Prog.Procs {
		for _, f := range p.Formals {
			if f.Kind != ir.FormalRef || f.Rank() != 0 {
				continue
			}
			if in.Mod.RMOD.Of(f) {
				continue
			}
			emit(lint.Diagnostic{
				Proc: p.Name, Subject: f.Name, Pos: f.Pos,
				Message: fmt.Sprintf("ref parameter %s of %s is never modified (not in RMOD); declare it val",
					f.Name, p.Name),
			})
		}
	}
}

func oraclePureProcedure(in *lint.Input, emit func(lint.Diagnostic)) {
	for _, p := range in.Prog.Procs {
		if p.IsMain {
			continue
		}
		pure := true
		in.Mod.GMOD[p.ID].ForEach(func(id int) {
			v := in.Prog.Vars[id]
			if v.Owner != p || v.Kind == ir.FormalRef {
				pure = false
			}
		})
		if pure {
			emit(lint.Diagnostic{
				Proc: p.Name, Subject: p.Name, Pos: p.Pos,
				Message: fmt.Sprintf("procedure %s has no caller-visible side effects (GMOD∪RMOD empty); calls to it may be reordered or parallelized",
					p.Name),
			})
		}
	}
}

func oracleAliasHazard(in *lint.Input, emit func(lint.Diagnostic)) {
	for _, p := range in.Prog.Procs {
		pairs := in.Aliases.Pairs(p)
		if len(pairs) == 0 {
			continue
		}
		for _, cs := range p.Calls {
			dmod := in.Mod.DMOD[cs.ID]
			for _, pr := range pairs {
				x, y := in.Prog.Vars[pr.X], in.Prog.Vars[pr.Y]
				hit, other := x, y
				switch {
				case dmod.Has(x.ID):
				case dmod.Has(y.ID):
					hit, other = y, x
				default:
					continue
				}
				emit(lint.Diagnostic{
					Proc: p.Name, Subject: hit.Name, Pos: cs.Pos,
					Message: fmt.Sprintf("%s and %s may be aliased on entry to %s and the call to %s may modify %s; writes are visible through both names (MOD widens to include %s)",
						x, y, p.Name, cs.Callee.Name, hit, other),
				})
			}
		}
	}
}

func oracleDeadGlobal(in *lint.Input, emit func(lint.Diagnostic)) {
	for _, g := range in.Prog.Globals() {
		live := false
		for _, p := range in.Prog.Procs {
			if in.Mod.GMOD[p.ID].Has(g.ID) || in.Use.GMOD[p.ID].Has(g.ID) {
				live = true
				break
			}
		}
		if !live {
			emit(lint.Diagnostic{
				Subject: g.Name, Pos: g.Pos,
				Message: fmt.Sprintf("global %s is never modified or used by any procedure (absent from every GMOD and GUSE); it can be removed",
					g.Name),
			})
		}
	}
}

func oracleIgnorableCall(in *lint.Input, emit func(lint.Diagnostic)) {
	for _, p := range in.Prog.Procs {
		for _, cs := range p.Calls {
			mod := in.ModSets[cs.ID]
			if mod.Empty() {
				continue // no effects at all: SE002 territory
			}
			dead := true
			mod.ForEach(func(id int) {
				if !dead {
					return
				}
				v := in.Prog.Vars[id]
				if p.IUSE.Has(id) {
					dead = false
					return
				}
				for _, other := range p.Calls {
					if other != cs && in.UseSets[other.ID].Has(id) {
						dead = false
						return
					}
				}
				// v outlives p's frame (a global, an outer-scope
				// variable, or a ref formal bound to a caller's
				// variable): it must be unused program-wide.
				if v.Owner != p || v.Kind == ir.FormalRef {
					for _, q := range in.Prog.Procs {
						if in.Use.GMOD[q.ID].Has(id) {
							dead = false
							return
						}
					}
				}
			})
			if dead {
				emit(lint.Diagnostic{
					Proc: p.Name, Subject: cs.Callee.Name, Pos: cs.Pos,
					Message: fmt.Sprintf("call to %s modifies only %s, none of which is ever used afterwards; the call's effects are dead",
						cs.Callee.Name, "{"+strings.Join(report.VarNames(in.Prog, mod), ", ")+"}"),
				})
			}
		}
	}
}

func oracleLoopParallel(in *lint.Input, emit func(lint.Diagnostic)) {
	for _, l := range in.Loops {
		if !l.Parallel {
			continue
		}
		evidence := ""
		if len(l.Sections) > 0 {
			evidence = " (" + strings.Join(l.Sections, "; ") + ")"
		}
		emit(lint.Diagnostic{
			Proc: l.Proc, Subject: l.Index, Pos: l.Pos,
			Message: fmt.Sprintf("loop over %s: iterations are independent%s; the loop can run in parallel",
				l.Index, evidence),
		})
	}
}

func oracleLoopSerial(in *lint.Input, emit func(lint.Diagnostic)) {
	for _, l := range in.Loops {
		if l.Parallel {
			continue
		}
		emit(lint.Diagnostic{
			Proc: l.Proc, Subject: l.Index, Pos: l.Pos,
			Message: fmt.Sprintf("loop over %s: iterations carry dependences (%s); the loop must run serially",
				l.Index, strings.Join(l.Conflicts, "; ")),
		})
	}
}

// checkLintOracle compares a.Lint against the reference on one
// analysis and returns the number of findings compared.
func checkLintOracle(t *testing.T, name string, a *Analysis) int {
	t.Helper()
	got, err := a.Lint(lint.Config{})
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	want := oracleLint(t, a.lintInput())
	if len(got.Counts) != len(want.Counts) {
		t.Errorf("%s: counts %v, want %v", name, got.Counts, want.Counts)
	}
	for id, n := range want.Counts {
		if m, ok := got.Counts[id]; !ok || m != n {
			t.Errorf("%s: count[%s] = %d (present %v), want %d", name, id, m, ok, n)
		}
	}
	if len(got.Diags) != len(want.Diags) {
		t.Fatalf("%s: %d findings, want %d", name, len(got.Diags), len(want.Diags))
	}
	for i := range want.Diags {
		if got.Diags[i] != want.Diags[i] {
			t.Fatalf("%s: finding %d differs:\n got: %#v\nwant: %#v", name, i, got.Diags[i], want.Diags[i])
		}
	}
	return len(want.Diags)
}

// TestLintOracle runs the production engine and the reference side by
// side over the lint and Go-frontend fixture corpora, randomized
// programs (flat and nested, several seeds), and a builder-made
// program whose findings all carry the zero position — the case where
// only the emission order separates otherwise tied findings.
func TestLintOracle(t *testing.T) {
	total := 0
	for _, base := range lintFixtures(t) {
		src, err := os.ReadFile(filepath.Join("testdata", "lint", base+".mpl"))
		if err != nil {
			t.Fatal(err)
		}
		a, err := Analyze(string(src))
		if err != nil {
			t.Fatalf("%s: %v", base, err)
		}
		total += checkLintOracle(t, base, a)
	}
	for _, dir := range corpusDirs(t) {
		results, err := AnalyzeGoPackages([]string{dir}, Options{})
		if err != nil {
			t.Fatalf("%s: %v", dir, err)
		}
		for _, r := range results {
			total += checkLintOracle(t, r.Pkg.Path, r.Analysis)
			r.Release()
		}
	}
	for _, n := range []int{64, 512, 1024} {
		for _, depth := range []int{0, 3} {
			for seed := int64(1); seed <= 3; seed++ {
				cfg := workload.DefaultConfig(n, seed)
				if depth > 0 {
					cfg.MaxDepth, cfg.NestFraction = depth, 0.3
				}
				name := fmt.Sprintf("random N=%d depth=%d seed=%d", n, depth, seed)
				a, err := Analyze(workload.Emit(workload.Random(cfg)))
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				total += checkLintOracle(t, name, a)
			}
		}
	}
	cfg := workload.DefaultConfig(256, 7)
	cfg.MaxDepth, cfg.NestFraction = 2, 0.3
	total += checkLintOracle(t, "builder N=256 (zero positions)", AnalyzeProgram(workload.Random(cfg)))
	if total == 0 {
		t.Fatal("no findings compared")
	}
}
