package core

import (
	"sideeffect/internal/bitset"
	"sideeffect/internal/callgraph"
)

// SolveGMODMultiLevel solves the global side-effect problem for
// languages with nested procedure declarations (Section 4's
// extension) by solving the family of problems 0..d_P, where problem i
// is defined on the call graph with every edge calling a procedure at
// nesting level < i removed.
//
// Rationale: a variable of scope class i (declared in a procedure at
// level i-1, or a program global for i = 0) survives only as long as
// its declaring activation; a call chain that invokes a procedure at a
// level shallower than i necessarily leaves the static scope of the
// variable and can only reach fresh activations of it. Static
// visibility guarantees the converse: any chain that stays at levels
// ≥ i and modifies the variable does so in the activation the chain
// started from.
//
// This is the "simple device" variant the paper describes first: it
// repeats findgmod once per level, O(d_P·(E_C + N_C)) bit-vector
// steps. (The paper further sketches a single-pass refinement with a
// vector of lowlink values reaching O(E_C + d_P·N_C); since d_P is a
// small constant in practice both are linear, and the repeated form is
// the one whose correctness follows directly from Theorem 1.)
//
// For d_P = 0 the result coincides with a single FindGMOD run.
//
// The pass over each level runs on the SCC-condensed storage layer
// (internal/core/condensed.go) whenever the level's scoping premise
// holds — always, for programs that pass ir.Program.Validate — and
// falls back to the per-node Figure-2 search otherwise. The solution
// is identical either way; only the storage and the work counters
// differ.
func SolveGMODMultiLevel(cg *callgraph.CallGraph, facts *Facts, imodPlus []*bitset.Set) ([]*bitset.Set, []GMODStats) {
	return solveGMODMultiLevel(structureForGMOD(cg), facts, imodPlus, newSetAlloc(AllocHybrid, cg.Prog.NumVars()), false)
}

// solveGMODMultiLevel is the allocator-threaded driver behind
// SolveGMODMultiLevel; Analyze calls it with the analysis's policy.
// The per-level subgraphs and scope classes come precomputed on st —
// they are kind-independent, so a MOD+USE pair shares one copy.
// noCondense forces the per-node solver (the differential baseline).
func solveGMODMultiLevel(st *Structure, facts *Facts, imodPlus []*bitset.Set, al setAlloc, noCondense bool) ([]*bitset.Set, []GMODStats) {
	prog := st.Prog
	// Every procedure's own direct and ref-parameter effects are in
	// its GMOD regardless of levels.
	result := make([]*bitset.Set, prog.NumProcs())
	for i := range result {
		result[i] = al.gmodResult(imodPlus[i])
	}
	// runLevel executes one findgmod pass and folds its solution into
	// result. The condensed layer computes one escape set per
	// strongly-connected component and recovers each node's row as
	// seed ∪ Esc(comp); checkScope is set on the flat full-seed pass,
	// where the mask-free premise rests on IR validation rather than
	// on the driver's class restriction, and a violation (hand-built,
	// never-validated IR) falls through to the per-node search. Under
	// a pooled policy that fallback runs on a recycled solver; under
	// the dense baseline it clones every set.
	runLevel := func(lvl int, seeds []*bitset.Set, checkScope bool) GMODStats {
		g, locals, root := st.Levels[lvl], facts.Local, prog.Main.ID
		if !noCondense {
			et, stats, ok := solveCondensed(g, st.levelSCC(lvl), seeds, locals, prog.Vars, checkScope)
			if ok {
				comp := et.scc.Comp
				for i := range result {
					et.escInto(comp[i], result[i])
				}
				return stats
			}
		}
		if al.pooled() {
			run, stats := FindGMODScratch(g, seeds, locals, root)
			for i, s := range run.Sets {
				result[i].UnionWith(s)
			}
			run.Release()
			return stats
		}
		gmod, stats := FindGMOD(g, seeds, locals, root)
		for i, s := range gmod {
			result[i].UnionWith(s)
		}
		return stats
	}

	allStats := make([]GMODStats, len(st.Levels))
	for lvl := range st.Levels {
		seeds := levelSeeds(st, imodPlus, al, lvl)
		allStats[lvl] = runLevel(lvl, seeds, st.ClassVars == nil)
		doneSeeds(st, seeds, al)
	}
	return result, allStats
}

// levelSeeds returns the seeds of findgmod problem lvl. A flat program
// has one problem, seeded with IMOD+ itself. In a nested program
// st.Levels[lvl] has dropped the edges that invoke a procedure
// declared at a level shallower than lvl, and the seeds restrict IMOD+
// to the variables whose lifetime that problem tracks (scope class
// lvl), which is also what makes the condensed pass's premise
// structural: every callee on a surviving edge declares its names at
// class ≥ lvl+1. Release the seeds with doneSeeds.
func levelSeeds(st *Structure, imodPlus []*bitset.Set, al setAlloc, lvl int) []*bitset.Set {
	if st.ClassVars == nil {
		return imodPlus
	}
	seeds := make([]*bitset.Set, len(imodPlus))
	for i, s := range imodPlus {
		seeds[i] = al.tempCopy(s)
		seeds[i].IntersectWith(st.ClassVars[lvl])
	}
	return seeds
}

// doneSeeds releases the temporaries levelSeeds drew for a nested
// program.
func doneSeeds(st *Structure, seeds []*bitset.Set, al setAlloc) {
	if st.ClassVars != nil {
		for _, s := range seeds {
			al.tempDone(s)
		}
	}
}
