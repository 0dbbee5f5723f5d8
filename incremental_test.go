package sideeffect

import (
	"math/rand"
	"strings"
	"testing"

	"sideeffect/internal/ir"
	"sideeffect/internal/report"
	"sideeffect/internal/workload"
)

// incrSrc has a call chain and a nested procedure, enough structure
// for every incremental path to be exercised by name.
const incrSrc = `
program incr;
global g, h;

proc leaf(ref x)
begin
  x := 1
end;

proc mid(ref y)
begin
  call leaf(y)
end;

begin
  call mid(g)
end.
`

func TestIncrementalAddLocalEffect(t *testing.T) {
	a, err := Analyze(incrSrc)
	if err != nil {
		t.Fatal(err)
	}
	inc := NewIncremental(a)
	changed, err := inc.AddLocalEffect("leaf", "h", ModEffect)
	if err != nil {
		t.Fatal(err)
	}
	if len(changed) == 0 {
		t.Fatal("no procedures changed")
	}
	for _, p := range []string{"leaf", "mid", "$main"} {
		mod, err := a.MOD(p)
		if err != nil {
			t.Fatal(err)
		}
		if !contains(mod, "h") {
			t.Errorf("MOD(%s) = %v, missing h", p, mod)
		}
	}
	// The maintained analysis must agree with a fresh analysis of an
	// equivalent source (same program with the new statement present).
	fresh, err := Analyze(strings.Replace(incrSrc, "x := 1", "x := 1; h := 2", 1))
	if err != nil {
		t.Fatal(err)
	}
	if gotMod, _ := a.MOD("mid"); !equalStrings(gotMod, must(fresh.MOD("mid"))) {
		t.Errorf("MOD(mid): inc %v, fresh %v", gotMod, must(fresh.MOD("mid")))
	}
}

func TestAnalysisAddLocalEffectConvenience(t *testing.T) {
	a, err := Analyze(incrSrc)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.AddLocalEffect("mid", "g", UseEffect); err != nil {
		t.Fatal(err)
	}
	use, err := a.USE("$main")
	if err != nil {
		t.Fatal(err)
	}
	if !contains(use, "g") {
		t.Errorf("USE($main) = %v, missing g", use)
	}
}

func TestIncrementalErrors(t *testing.T) {
	a, err := Analyze(demoSrc)
	if err != nil {
		t.Fatal(err)
	}
	inc := NewIncremental(a)
	if _, err := inc.AddLocalEffect("nosuch", "g", ModEffect); err == nil {
		t.Error("unknown procedure accepted")
	}
	if _, err := inc.AddLocalEffect("swap", "nosuch", ModEffect); err == nil {
		t.Error("unknown variable accepted")
	}
	if _, err := inc.AddLocalEffect("swap", "A", ModEffect); err == nil {
		t.Error("array variable accepted as scalar effect")
	}
	if _, err := inc.AddLocalEffect("swap", "colset.i", ModEffect); err == nil {
		t.Error("invisible variable accepted")
	}
}

func TestSessionAdditiveAndFullEdits(t *testing.T) {
	s, err := NewSession(incrSrc, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Additive: a new assignment in leaf only adds local facts.
	add := strings.Replace(incrSrc, "x := 1", "x := 1; h := g", 1)
	mode, err := s.Edit(add)
	if err != nil {
		t.Fatal(err)
	}
	if mode != EditIncremental {
		t.Errorf("additive edit took mode %v", mode)
	}
	fresh, err := Analyze(add)
	if err != nil {
		t.Fatal(err)
	}
	if s.Analysis().Report() != fresh.Report() {
		t.Error("incremental session report differs from fresh analysis")
	}
	// Non-additive: a new call site forces full reanalysis.
	full := strings.Replace(add, "call mid(g)", "call mid(g); call leaf(h)", 1)
	mode, err = s.Edit(full)
	if err != nil {
		t.Fatal(err)
	}
	if mode != EditFull {
		t.Errorf("structural edit took mode %v", mode)
	}
	fresh, err = Analyze(full)
	if err != nil {
		t.Fatal(err)
	}
	if s.Analysis().Report() != fresh.Report() {
		t.Error("full-reanalysis session report differs from fresh analysis")
	}
	if s.Source() != full {
		t.Error("session source not updated")
	}
	// A bad edit leaves the session untouched.
	if _, err := s.Edit("program broken;"); err == nil {
		t.Fatal("syntax error accepted")
	}
	if s.Source() != full || s.Analysis().Report() != fresh.Report() {
		t.Error("failed edit changed session state")
	}
}

// scalarVisiblePairs enumerates the (procedure, variable) pairs whose
// addition as a local fact keeps an edit additive.
func scalarVisiblePairs(prog *ir.Program) [][2]int {
	var out [][2]int
	for _, p := range prog.Procs {
		for _, v := range prog.Vars {
			if p.Visible(v) && v.Rank() == 0 {
				out = append(out, [2]int{p.ID, v.ID})
			}
		}
	}
	return out
}

// TestSessionDifferentialRandomEdits is the acceptance differential:
// random additive edit sequences applied through a Session must yield
// byte-identical reports (text and JSON) to a fresh Analyze of the
// edited source, under both the sequential and the parallel schedule.
func TestSessionDifferentialRandomEdits(t *testing.T) {
	seeds := int64(8)
	steps := 8
	if testing.Short() {
		seeds, steps = 3, 4
	}
	for seed := int64(0); seed < seeds; seed++ {
		cfg := workload.DefaultConfig(20, seed)
		if seed%2 == 1 {
			cfg.MaxDepth = 3
			cfg.NestFraction = 0.5
		}
		model := workload.Random(cfg).Prune()
		src := workload.Emit(model)
		sessions := map[string]*Session{}
		for name, opts := range map[string]Options{
			"sequential": {Sequential: true},
			"parallel":   {Workers: 4},
		} {
			s, err := NewSession(src, opts)
			if err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			sessions[name] = s
		}
		pairs := scalarVisiblePairs(model)
		r := rand.New(rand.NewSource(seed*17 + 1))
		for step := 0; step < steps; step++ {
			pick := pairs[r.Intn(len(pairs))]
			p, v := model.Procs[pick[0]], model.Vars[pick[1]]
			if r.Intn(2) == 0 {
				p.IMOD.Add(v.ID)
			} else {
				p.IUSE.Add(v.ID)
			}
			newSrc := workload.Emit(model)
			fresh, err := Analyze(newSrc)
			if err != nil {
				t.Fatalf("seed %d step %d: fresh analyze: %v", seed, step, err)
			}
			wantText := fresh.Report()
			wantJSON, err := report.JSON(fresh.Mod, fresh.Use, fresh.Aliases, fresh.SecMod)
			if err != nil {
				t.Fatal(err)
			}
			for name, s := range sessions {
				mode, err := s.Edit(newSrc)
				if err != nil {
					t.Fatalf("seed %d step %d %s: %v", seed, step, name, err)
				}
				if mode != EditIncremental {
					t.Fatalf("seed %d step %d %s: additive edit took mode %v", seed, step, name, mode)
				}
				a := s.Analysis()
				if got := a.Report(); got != wantText {
					t.Fatalf("seed %d step %d %s: session text report diverged from fresh analysis", seed, step, name)
				}
				got, err := report.JSON(a.Mod, a.Use, a.Aliases, a.SecMod)
				if err != nil {
					t.Fatal(err)
				}
				if got != wantJSON {
					t.Fatalf("seed %d step %d %s: session JSON report diverged from fresh analysis", seed, step, name)
				}
			}
		}
		// Replacing the program wholesale must fall back to full
		// reanalysis and still match.
		other := workload.Emit(workload.Random(workload.DefaultConfig(12, seed+1000)).Prune())
		fresh, err := Analyze(other)
		if err != nil {
			t.Fatal(err)
		}
		for name, s := range sessions {
			mode, err := s.Edit(other)
			if err != nil {
				t.Fatalf("seed %d %s: %v", seed, name, err)
			}
			if mode != EditFull {
				t.Errorf("seed %d %s: program replacement took mode %v", seed, name, mode)
			}
			if s.Analysis().Report() != fresh.Report() {
				t.Errorf("seed %d %s: post-replacement report diverged", seed, name)
			}
		}
	}
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
