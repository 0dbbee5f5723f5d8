package core_test

import (
	"math/rand"
	"testing"

	"sideeffect/internal/core"
	"sideeffect/internal/ir"
	"sideeffect/internal/workload"
)

// visiblePairs enumerates (procedure, variable) pairs legal for
// AddLocalEffect.
func visiblePairs(prog *ir.Program) [][2]int {
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

// assertSameResult compares every set of an incrementally-maintained
// result against a freshly recomputed one.
func assertSameResult(t *testing.T, tag string, inc, full *core.Result) {
	t.Helper()
	prog := inc.Prog
	for _, p := range prog.Procs {
		if !inc.IMODPlus[p.ID].Equal(full.IMODPlus[p.ID]) {
			t.Errorf("%s: IMOD+(%s): inc %v, full %v", tag, p.Name,
				names(prog, inc.IMODPlus[p.ID]), names(prog, full.IMODPlus[p.ID]))
		}
		if !inc.GMOD[p.ID].Equal(full.GMOD[p.ID]) {
			t.Errorf("%s: GMOD(%s): inc %v, full %v", tag, p.Name,
				names(prog, inc.GMOD[p.ID]), names(prog, full.GMOD[p.ID]))
		}
	}
	for n := range inc.RMOD.Node {
		if inc.RMOD.Node[n] != full.RMOD.Node[n] {
			t.Errorf("%s: RMOD node %d: inc %v, full %v", tag, n, inc.RMOD.Node[n], full.RMOD.Node[n])
		}
	}
	for _, cs := range prog.Sites {
		if !inc.DMOD[cs.ID].Equal(full.DMOD[cs.ID]) {
			t.Errorf("%s: DMOD(%s): inc %v, full %v", tag, cs,
				names(prog, inc.DMOD[cs.ID]), names(prog, full.DMOD[cs.ID]))
		}
	}
}

func TestIncrementalMatchesFullRecompute(t *testing.T) {
	for seed := int64(0); seed < 12; seed++ {
		cfg := workload.DefaultConfig(25, seed)
		if seed%2 == 1 {
			cfg.MaxDepth = 3
			cfg.NestFraction = 0.5
		}
		prog := workload.Random(cfg).Prune()
		res := core.Analyze(prog, core.Mod, core.Options{})
		inc := core.NewIncremental(res)
		pairs := visiblePairs(prog)
		r := rand.New(rand.NewSource(seed * 31))
		for step := 0; step < 12; step++ {
			pick := pairs[r.Intn(len(pairs))]
			p, v := prog.Procs[pick[0]], prog.Vars[pick[1]]
			if _, err := inc.AddLocalEffect(p, v); err != nil {
				t.Fatalf("seed %d step %d: %v", seed, step, err)
			}
			// Full recompute on the mutated program (AddLocalEffect
			// updated the raw IMOD facts in place).
			full := core.Analyze(prog, core.Mod, core.Options{})
			assertSameResult(t, "seed/step", inc.Result(), full)
			if t.Failed() {
				t.Fatalf("divergence at seed %d step %d (proc %s, var %s)", seed, step, p.Name, v)
			}
		}
	}
}

func TestIncrementalRMODChain(t *testing.T) {
	// Chain(n) with the seed removed: turning on the leaf's formal
	// must flip the whole chain and update main's IMOD+ through the
	// binding of g.
	prog := workload.Chain(10)
	leaf := prog.Proc("p9")
	// Remove the existing seed by building a fresh chain without it:
	// easier — use the Use-kind result, which starts with no seeds.
	res := core.Analyze(prog, core.Use, core.Options{})
	for _, p := range prog.Procs {
		for _, f := range p.Formals {
			if res.RMOD.Of(f) {
				t.Fatalf("unexpected RUSE seed on %s", f)
			}
		}
	}
	inc := core.NewIncremental(res)
	changed, err := inc.AddLocalEffect(leaf, leaf.Formals[0])
	if err != nil {
		t.Fatal(err)
	}
	if len(changed.Procs) == 0 {
		t.Fatal("no procedures changed")
	}
	for i := 0; i < 10; i++ {
		f := prog.Proc("p" + itoa(i)).Formals[0]
		if !res.RMOD.Of(f) {
			t.Errorf("RUSE(%s) still false after incremental update", f)
		}
	}
	// main's set now includes g through the binding.
	if !res.GMOD[prog.Main.ID].Has(prog.Var("g").ID) {
		t.Error("GUSE(main) missing g")
	}
	full := core.Analyze(prog, core.Use, core.Options{})
	assertSameResult(t, "chain", res, full)
}

func TestIncrementalNestedLocalStopsAtOwner(t *testing.T) {
	prog := workload.NestedTower(3)
	res := core.Analyze(prog, core.Mod, core.Options{})
	inc := core.NewIncremental(res)
	// n2 newly modifies n1's local v: must reach GMOD(n1) (and n2, n3
	// via cycle? no cycle here) but not GMOD(n0) or main.
	n2 := prog.Proc("n2")
	v1 := prog.Var("n1.v")
	if _, err := inc.AddLocalEffect(n2, v1); err != nil {
		t.Fatal(err)
	}
	full := core.Analyze(prog, core.Mod, core.Options{})
	assertSameResult(t, "tower", res, full)
	if res.GMOD[prog.Main.ID].Has(v1.ID) {
		t.Error("nested local leaked into GMOD(main)")
	}
	if !res.GMOD[prog.Proc("n1").ID].Has(v1.ID) {
		t.Error("GMOD(n1) missing its own modified local")
	}
}

func TestIncrementalInvisibleVarRejected(t *testing.T) {
	prog := workload.PaperExample()
	res := core.Analyze(prog, core.Mod, core.Options{})
	inc := core.NewIncremental(res)
	// bot's formal c is not visible in top.
	if _, err := inc.AddLocalEffect(prog.Proc("top"), prog.Var("bot.c")); err == nil {
		t.Error("invisible variable accepted")
	}
}

func TestIncrementalIdempotent(t *testing.T) {
	prog := workload.PaperExample()
	res := core.Analyze(prog, core.Mod, core.Options{})
	inc := core.NewIncremental(res)
	g := prog.Var("g")
	if _, err := inc.AddLocalEffect(prog.Proc("bot"), g); err != nil {
		t.Fatal(err)
	}
	changed, err := inc.AddLocalEffect(prog.Proc("bot"), g)
	if err != nil {
		t.Fatal(err)
	}
	if len(changed.Procs) != 0 {
		t.Errorf("re-adding the same fact changed %d procedures", len(changed.Procs))
	}
}

func TestInvalidate(t *testing.T) {
	prog := workload.PaperExample()
	res := core.Analyze(prog, core.Mod, core.Options{})
	inc := core.NewIncremental(res)
	prog.Proc("bot").IMOD.Add(prog.Var("g").ID)
	inc.Invalidate()
	if !inc.Result().GMOD[prog.Main.ID].Has(prog.Var("g").ID) {
		t.Error("Invalidate did not pick up the new fact")
	}
}
