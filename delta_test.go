package sideeffect

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"sideeffect/internal/alias"
	"sideeffect/internal/bitset"
	"sideeffect/internal/core"
	"sideeffect/internal/ir"
	"sideeffect/internal/lint"
	"sideeffect/internal/report"
	"sideeffect/internal/workload"
)

// Edit kinds of the delta differential, cycled so every seed mixes
// them: a global write, a write to a local (of an enclosing procedure
// where the program nests, exercising the scope-class filter; of the
// writer itself otherwise, exercising the LOCAL filter), a write to a
// by-reference formal that is not yet RMOD (the binding closure
// grows), and a use of any visible scalar.
const (
	editGlobal = iota
	editLocal
	editFormal
	editUse
	numEditKinds
)

// pickEdit returns a new local fact of the given kind for model: a
// (procedure, variable) pair whose fact is not present yet. rmod
// reports the current RMOD solution for a formal. ok is false when the
// program has no candidate of the kind.
func pickEdit(model *ir.Program, kind int, rmod func(*ir.Variable) bool, r *rand.Rand) (p *ir.Procedure, v *ir.Variable, ok bool) {
	type pair struct {
		p *ir.Procedure
		v *ir.Variable
	}
	var nested, own, cands []pair
	for _, p := range model.Procs {
		facts := p.IMOD
		if kind == editUse {
			facts = p.IUSE
		}
		for _, v := range model.Vars {
			if !p.Visible(v) || v.Rank() != 0 || facts.Has(v.ID) {
				continue
			}
			switch {
			case kind == editGlobal && v.IsGlobal(), kind == editUse,
				kind == editFormal && v.Kind == ir.FormalRef && !rmod(v):
				cands = append(cands, pair{p, v})
			case kind == editLocal && v.Kind == ir.Local && v.Owner != p:
				nested = append(nested, pair{p, v})
			case kind == editLocal && v.Kind == ir.Local:
				own = append(own, pair{p, v})
			}
		}
	}
	if kind == editLocal {
		cands = nested
		if len(cands) == 0 {
			cands = own
		}
	}
	if len(cands) == 0 {
		return nil, nil, false
	}
	c := cands[r.Intn(len(cands))]
	return c.p, c.v, true
}

// sameRows reports the first row where got and want differ.
func sameRows(got, want []*bitset.Set) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d rows, want %d", len(got), len(want))
	}
	for i := range got {
		if !got[i].Equal(want[i]) {
			return fmt.Errorf("row %d: extra %v, missing %v", i,
				bitset.Difference(got[i], want[i]), bitset.Difference(want[i], got[i]))
		}
	}
	return nil
}

// lintJSON renders a's diagnostics the way modlint -format json does.
func lintJSON(t *testing.T, a *Analysis) string {
	t.Helper()
	rep, err := a.Lint(lint.Config{})
	if err != nil {
		t.Fatal(err)
	}
	out, err := lint.JSON([]lint.FileReport{{File: "edit.mpl", Report: rep}})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// renderings are the user-visible outputs of an analysis that the
// delta differential compares: the text and JSON reports and the lint
// JSON.
type renderings struct {
	text, json, lint string
}

func render(t *testing.T, a *Analysis) renderings {
	t.Helper()
	js, err := report.JSON(a.Mod, a.Use, a.Aliases, a.SecMod)
	if err != nil {
		t.Fatal(err)
	}
	return renderings{text: a.Report(), json: js, lint: lintJSON(t, a)}
}

// compareWithFresh checks every maintained set, the alias pairs and
// both section results of got against want, a fresh analysis of the
// same source.
func compareWithFresh(got, want *Analysis) error {
	for _, c := range []struct {
		name      string
		got, want []*bitset.Set
	}{
		{"GMOD", got.Mod.GMOD, want.Mod.GMOD},
		{"GUSE", got.Use.GMOD, want.Use.GMOD},
		{"DMOD", got.Mod.DMOD, want.Mod.DMOD},
		{"DUSE", got.Use.DMOD, want.Use.DMOD},
		{"ModSets", got.ModSets, want.ModSets},
		{"UseSets", got.UseSets, want.UseSets},
	} {
		if err := sameRows(c.got, c.want); err != nil {
			return fmt.Errorf("%s: %v", c.name, err)
		}
	}
	for _, p := range got.Prog.Procs {
		g, w := got.Aliases.Pairs(p), want.Aliases.Pairs(want.Prog.Procs[p.ID])
		if fmt.Sprint(g) != fmt.Sprint(w) {
			return fmt.Errorf("ALIAS(%s): %v, want %v", p.Name, g, w)
		}
	}
	if report.Sections(got.SecMod) != report.Sections(want.SecMod) {
		return fmt.Errorf("MOD sections differ")
	}
	if report.Sections(got.SecUse) != report.Sections(want.SecUse) {
		return fmt.Errorf("USE sections differ")
	}
	return nil
}

// recomputeDerived checks the patched rows against a whole-program
// refresh over the maintained fixpoints: DMOD from equation (2) at every
// site, and the alias pairs recomputed and factored into every row.
func recomputeDerived(a *Analysis) error {
	aliases := alias.Compute(a.Prog)
	for _, c := range []struct {
		name string
		res  *core.Result
		sets []*bitset.Set
	}{{"mod", a.Mod, a.ModSets}, {"use", a.Use, a.UseSets}} {
		dmod := core.ComputeDMOD(a.Prog, c.res.RMOD, c.res.GMOD, c.res.Facts)
		if err := sameRows(c.res.DMOD, dmod); err != nil {
			return fmt.Errorf("patched %s DMOD vs recomputed: %v", c.name, err)
		}
		if err := sameRows(c.sets, aliases.Factor(dmod)); err != nil {
			return fmt.Errorf("patched %s factored sets vs recomputed: %v", c.name, err)
		}
	}
	return nil
}

// TestSessionDeltaDifferential checks the delta edit path at scale: on
// N=512 programs, one flat and one nested, 16 additive edits of mixed
// kinds go through a Session under both schedules. After every edit the
// patched DMOD rows and factored sets must equal the ones a full
// derived-stage recomputation over the same fixpoints yields, and every
// set, alias pair and section result must equal a fresh AnalyzeContext
// of the edited source. The text and JSON reports and the lint JSON,
// which render those sets at several megabytes a program, are compared
// after every round of the four edit kinds.
func TestSessionDeltaDifferential(t *testing.T) {
	const procs, edits = 512, 16
	steps := edits
	if testing.Short() {
		steps = 4
	}
	for _, tc := range []struct {
		name  string
		seed  int64
		depth int
	}{{"flat", 11, 0}, {"nested", 12, 3}} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := workload.DefaultConfig(procs, tc.seed)
			if tc.depth > 0 {
				cfg.MaxDepth = tc.depth
				cfg.NestFraction = 0.5
			}
			model := workload.Random(cfg).Prune()
			src := workload.Emit(model)
			scheds := []struct {
				name string
				opts Options
			}{{"sequential", Options{Sequential: true}}, {"workers4", Options{Workers: 4}}}
			sessions := make([]*Session, len(scheds))
			for i, sc := range scheds {
				s, err := NewSessionContext(context.Background(), src, sc.opts)
				if err != nil {
					t.Fatal(err)
				}
				defer s.Close()
				sessions[i] = s
			}
			r := rand.New(rand.NewSource(tc.seed))
			kinds := map[int]int{}
			for step := 0; step < steps; step++ {
				kind := step % numEditKinds
				p, v, ok := pickEdit(model, kind, sessions[0].Analysis().Mod.RMOD.Of, r)
				if !ok {
					t.Fatalf("step %d: no candidate for edit kind %d", step, kind)
				}
				kinds[kind]++
				if kind == editUse {
					p.IUSE.Add(v.ID)
				} else {
					p.IMOD.Add(v.ID)
				}
				newSrc := workload.Emit(model)
				fresh, err := AnalyzeContext(context.Background(), newSrc, Options{})
				if err != nil {
					t.Fatalf("step %d: fresh analyze: %v", step, err)
				}
				var want renderings
				renderStep := step%numEditKinds == numEditKinds-1 || step == steps-1
				if renderStep {
					want = render(t, fresh)
				}
				for i, s := range sessions {
					where := fmt.Sprintf("step %d %s (%s in %s)", step, scheds[i].name, v, p.Name)
					mode, err := s.EditContext(context.Background(), newSrc)
					if err != nil {
						t.Fatalf("%s: %v", where, err)
					}
					if mode != EditIncremental {
						t.Fatalf("%s: additive edit took mode %v", where, mode)
					}
					a := s.Analysis()
					if err := recomputeDerived(a); err != nil {
						t.Fatalf("%s: %v", where, err)
					}
					if err := compareWithFresh(a, fresh); err != nil {
						t.Fatalf("%s: %v", where, err)
					}
					if renderStep {
						got := render(t, a)
						if got.text != want.text {
							t.Fatalf("%s: text report differs from a fresh analysis", where)
						}
						if got.json != want.json {
							t.Fatalf("%s: JSON report differs from a fresh analysis", where)
						}
						if got.lint != want.lint {
							t.Fatalf("%s: lint JSON differs from a fresh analysis", where)
						}
					}
				}
				fresh.Release()
			}
			if !testing.Short() && len(kinds) != numEditKinds {
				t.Fatalf("edit kinds exercised: %v", kinds)
			}
		})
	}
}

// globalWriteEdits returns the sources of n successive additive edits
// of model, each a new write of a global in some procedure.
func globalWriteEdits(t *testing.T, model *ir.Program, n int, seed int64) []string {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	out := make([]string, n)
	for i := range out {
		p, v, ok := pickEdit(model, editGlobal, nil, r)
		if !ok {
			t.Fatal("no global-write candidate")
		}
		p.IMOD.Add(v.ID)
		out[i] = workload.Emit(model)
	}
	return out
}

// TestSessionDeltaArenaStable guards the session's memory under edits:
// incremental edits patch the per-site rows in place, so the arenas
// backing the maintained results hold exactly the slabs they held after
// the session was created.
func TestSessionDeltaArenaStable(t *testing.T) {
	model := workload.Random(workload.DefaultConfig(256, 5)).Prune()
	src := workload.Emit(model)
	s, err := NewSessionContext(context.Background(), src, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	a := s.Analysis()
	modBytes, useBytes := a.Mod.Arena.SlabBytes, a.Use.Arena.SlabBytes
	for i, next := range globalWriteEdits(t, model, 16, 5) {
		mode, err := s.EditContext(context.Background(), next)
		if err != nil || mode != EditIncremental {
			t.Fatalf("edit %d: mode %v, err %v", i, mode, err)
		}
	}
	if a != s.Analysis() {
		t.Fatal("incremental edits replaced the analysis")
	}
	if a.Mod.Arena.SlabBytes != modBytes || a.Use.Arena.SlabBytes != useBytes {
		t.Fatalf("arena slabs grew over 16 edits: mod %d → %d bytes, use %d → %d bytes",
			modBytes, a.Mod.Arena.SlabBytes, useBytes, a.Use.Arena.SlabBytes)
	}
}

// TestSessionDeltaKeepsAliases guards that an incremental edit keeps
// the alias analysis, re-pointed at the edited program, instead of
// recomputing it.
func TestSessionDeltaKeepsAliases(t *testing.T) {
	s, err := NewSessionContext(context.Background(), incrSrc, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	before := s.Analysis().Aliases
	mode, err := s.EditContext(context.Background(), strings.Replace(incrSrc, "x := 1", "x := 1; h := 2", 1))
	if err != nil || mode != EditIncremental {
		t.Fatalf("mode %v, err %v", mode, err)
	}
	a := s.Analysis()
	if a.Aliases != before {
		t.Fatal("incremental edit replaced the alias analysis")
	}
	if a.Aliases.Prog != a.Prog {
		t.Fatal("alias analysis still points at the pre-edit program")
	}
}
