package core

import (
	"context"

	"sideeffect/internal/binding"
	"sideeffect/internal/bitset"
	"sideeffect/internal/callgraph"
	"sideeffect/internal/ir"
)

// CondensedResult is the output of AnalyzeCondensed: the same solution
// as Analyze's Result, but with the GMOD and DMOD families left in
// their SCC-condensed representation instead of materialized rows.
// For a program of N procedures and v-word vectors, a Result carries
// O((N + sites)·v) words of solved sets; a CondensedResult carries the
// escape deltas — O(fact deltas + condensed rows) — and reconstructs
// any row on demand. At 100k procedures that is the difference between
// gigabytes and tens of megabytes.
//
// Rows are recovered through GMODInto/DMODInto (union into a
// caller-supplied set) and sized through GMODSize; the remaining
// fields (RMOD, IMODPlus, Facts) are the same per-procedure structures
// Analyze exposes, since they are linear in the program to begin with.
type CondensedResult struct {
	Prog *ir.Program
	Kind Kind

	Facts *Facts
	Beta  *binding.Beta
	CG    *callgraph.CallGraph

	// RMOD and IMODPlus are as on Result (Figure 1 and equation 5).
	RMOD     *RMOD
	IMODPlus []*bitset.Set

	// GMODStats holds the per-level work counters, as on Result.
	GMODStats []GMODStats

	// levels holds one escape layer per findgmod pass (one for flat
	// programs, MaxLevel()+1 for nested ones). Per-level escape sets
	// are disjoint — a level-l pass escapes only scope-class-l
	// variables — so a row is the union of IMOD+ and every layer.
	levels []escLevel
}

// escLevel is one level's solved escape layer: the condensed table
// when the pass ran condensed, or materialized per-node rows from the
// Figure-2 fallback (hand-built IR whose flat pass fails the scope
// premise).
type escLevel struct {
	esc     *escTable
	perNode []*bitset.Set
}

// AnalyzeCondensed runs the same stages as AnalyzeCtx, under the same
// cancellation, fault-injection and panic discipline, but keeps the
// GMOD solution in condensed form and leaves DMOD to DMODInto; it is
// the giant-graph entry point. Allocation is always the hybrid policy
// — the condensed store is itself the memory optimization, and tying
// it to an arena would pin slabs for the result's lifetime — and
// DisableCondensation forces the per-node fallback layer, for
// differential tests. The result matches AnalyzeCtx's row for row.
func AnalyzeCondensed(ctx context.Context, prog *ir.Program, kind Kind, opts Options) (*CondensedResult, error) {
	opts.Alloc = AllocHybrid
	return runStages(ctx, prog, kind, opts, func(s *stages) (*CondensedResult, bool) {
		r := &CondensedResult{Prog: s.prog, Kind: kind, Facts: s.facts, Beta: s.st.Beta, CG: s.st.CG,
			RMOD: s.rmod, IMODPlus: s.imodPlus}
		return r, s.step("gmod", func() { r.solveLevels(s.st, s.al, opts.DisableCondensation) })
	})
}

// solveLevels runs the per-level findgmod passes, retaining each
// level's escape layer instead of folding it into per-node rows.
func (r *CondensedResult) solveLevels(st *Structure, al setAlloc, noCondense bool) {
	for lvl := range st.Levels {
		seeds := levelSeeds(st, r.IMODPlus, al, lvl)
		var layer escLevel
		var stats GMODStats
		ok := false
		if !noCondense {
			layer.esc, stats, ok = solveCondensed(st.Levels[lvl], st.levelSCC(lvl), seeds, r.Facts.Local, r.Prog.Vars, st.ClassVars == nil)
		}
		if !ok {
			// Per-node fallback: FindGMOD's freshly cloned rows are safe
			// to retain (nested programs' seeds are temporaries).
			layer.perNode, stats = FindGMOD(st.Levels[lvl], seeds, r.Facts.Local, r.Prog.Main.ID)
		}
		r.levels = append(r.levels, layer)
		r.GMODStats = append(r.GMODStats, stats)
		doneSeeds(st, seeds, al)
	}
}

// GMODInto unions GMOD(pid) — equations (3)/(4), or GUSE for the Use
// problem — into dst and returns dst. The reconstruction is
// GMOD(p) = IMOD+(p) ∪ ∪_lvl Esc_lvl(comp(p)).
func (r *CondensedResult) GMODInto(pid int, dst *bitset.Set) *bitset.Set {
	dst.UnionWith(r.IMODPlus[pid])
	for i := range r.levels {
		if et := r.levels[i].esc; et != nil {
			et.escInto(et.scc.Comp[pid], dst)
		} else {
			dst.UnionWith(r.levels[i].perNode[pid])
		}
	}
	return dst
}

// GMODSize returns |GMOD(pid)| without materializing the row: the
// level escape counts are disjoint by scope class, so only the IMOD+
// elements need membership probes against the chains.
func (r *CondensedResult) GMODSize(pid int) int {
	for i := range r.levels {
		if r.levels[i].esc == nil {
			// A fallback layer breaks the disjoint-count argument
			// (its rows include the seeds); count through scratch.
			sc := bitset.GetScratch(r.Prog.NumVars())
			n := r.GMODInto(pid, sc).Len()
			bitset.PutScratch(sc)
			return n
		}
	}
	n := 0
	for i := range r.levels {
		et := r.levels[i].esc
		n += int(et.count[et.scc.Comp[pid]])
	}
	r.IMODPlus[pid].ForEach(func(e int) {
		for i := range r.levels {
			et := r.levels[i].esc
			if et.has(et.scc.Comp[pid], e) {
				return
			}
		}
		n++
	})
	return n
}

// DMODInto unions DMOD(siteID) — equation (2) — into dst and returns
// dst, evaluating the projection b_e directly on the condensed layers:
// GMOD(q) ∖ LOCAL(q) distributes over the union, so each layer flows
// through escIntoMasked and never materializes.
func (r *CondensedResult) DMODInto(siteID int, dst *bitset.Set) *bitset.Set {
	cs := r.Prog.Sites[siteID]
	q := cs.Callee
	local := r.Facts.Local[q.ID]
	dst.UnionDiffWith(r.IMODPlus[q.ID], local)
	for i := range r.levels {
		if et := r.levels[i].esc; et != nil {
			et.escIntoMasked(et.scc.Comp[q.ID], dst, local)
		} else {
			dst.UnionDiffWith(r.levels[i].perNode[q.ID], local)
		}
	}
	for i, a := range cs.Args {
		if r.Kind == Use {
			for _, u := range a.Uses {
				dst.Add(u.ID)
			}
		}
		if a.Mode == ir.FormalRef && a.Var != nil && r.RMOD.Of(q.Formals[i]) {
			dst.Add(a.Var.ID)
		}
	}
	return dst
}

// Stats returns the aggregate work counters across all levels, the
// condensed analogue of summing Result.GMODStats.
func (r *CondensedResult) Stats() GMODStats {
	var t GMODStats
	for _, s := range r.GMODStats {
		t.Accumulate(s)
	}
	return t
}
