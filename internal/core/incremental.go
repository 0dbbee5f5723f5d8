package core

import (
	"fmt"

	"sideeffect/internal/arena"
	"sideeffect/internal/binding"
	"sideeffect/internal/bitset"
	"sideeffect/internal/callgraph"
	"sideeffect/internal/ir"
)

// Incremental maintains a Result under *additive* edits to the local
// facts — the editing scenario of the programming environment the
// paper was built for (one procedure is recompiled and its IMOD set
// grows; the environment wants updated summaries without re-running
// the whole-program analysis, cf. the Carroll–Ryder line of work the
// paper cites).
//
// Additions are cheap because every set in the framework is monotone
// in the local facts: a new fact can only add elements downstream. The
// updater propagates exactly the new bits backward over the call
// multi-graph (and the binding multi-graph for formals), touching only
// procedures whose solution actually changes. Deletions invalidate in
// the other direction and are handled by full recomputation
// (Invalidate), which is what production environments of the era did
// as well.
type Incremental struct {
	res *Result
}

// NewIncremental wraps an existing analysis result for incremental
// maintenance. The result must have been produced by Analyze (it needs
// Facts, Beta, CG, RMOD, IMODPlus, GMOD, and DMOD populated) and is
// updated in place.
func NewIncremental(res *Result) *Incremental {
	return &Incremental{res: res}
}

// Result returns the maintained result.
func (inc *Incremental) Result() *Result { return inc.res }

// Change is what one AddLocalEffect did to the maintained result.
type Change struct {
	// Procs lists the procedures whose GMOD rows grew.
	Procs []*ir.Procedure
	// Sites lists the call sites whose DMOD rows grew, each once.
	Sites []SiteChange
}

// SiteChange is one call site's DMOD growth: Gained holds exactly the
// bits the row did not have before. Downstream per-site sets that are
// union-distributive in DMOD (alias factoring) can be patched from it.
type SiteChange struct {
	Site   *ir.CallSite
	Gained *bitset.Set
}

// AddLocalEffect records that procedure p now directly modifies (for a
// Mod result) or uses (for a Use result) variable v, and updates every
// affected set: RMOD, IMOD+, GMOD, and the DMOD rows of the affected
// call sites. It reports the procedures whose GMOD rows grew and the
// bits each call site's DMOD row gained.
//
// v must be visible in p. Cost is proportional to the part of the
// program whose solution changes: the β nodes that turn true, the
// procedures whose GMOD grows, and the call sites invoking either.
func (inc *Incremental) AddLocalEffect(p *ir.Procedure, v *ir.Variable) (Change, error) {
	res := inc.res
	prog := res.Prog
	if !p.Visible(v) {
		return Change{}, fmt.Errorf("core: incremental: %s is not visible in %s", v, p.Name)
	}
	// Update the stored raw fact on the procedure (so a later full
	// re-analysis agrees) and the extended facts up the nesting chain.
	if res.Kind == Mod {
		p.IMOD.Add(v.ID)
	} else {
		p.IUSE.Add(v.ID)
	}
	for q := p; q != nil; q = q.Parent {
		res.Facts.I[q.ID].Add(v.ID)
		if q.Parent == nil || res.Facts.Local[q.ID].Has(v.ID) {
			break
		}
	}

	// If v is a by-reference formal that was not previously affected,
	// the RMOD solution may grow: every β node that reaches v's node
	// becomes true, and each newly-true formal adds its bound actuals
	// to the callers' IMOD+.
	newPlus := make([]*bitset.Set, prog.NumProcs()) // deltas to IMOD+
	delta := func(pid int) *bitset.Set {
		if newPlus[pid] == nil {
			newPlus[pid] = bitset.NewSparse() // deltas are typically tiny
		}
		return newPlus[pid]
	}
	delta(p.ID).Add(v.ID)

	var turned []*ir.Variable // formals whose RMOD turned true
	if n := res.Beta.NodeOf[v.ID]; n >= 0 && !res.RMOD.Node[n] {
		// Reverse reachability on β from n over still-false nodes.
		stack := []int{n}
		res.RMOD.Node[n] = true
		for len(stack) > 0 {
			m := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			turned = append(turned, res.Beta.Nodes[m])
			for _, e := range res.Beta.G.Preds(m) {
				if !res.RMOD.Node[e.From] {
					res.RMOD.Node[e.From] = true
					stack = append(stack, e.From)
				}
			}
		}
		// Newly-true formals: their bound actuals join the callers'
		// IMOD+ deltas (equation 5).
		for _, f := range turned {
			for _, e := range res.CG.G.Preds(f.Owner.ID) {
				cs := prog.Sites[e.ID]
				if a := cs.Args[f.Ordinal]; a.Mode == ir.FormalRef && a.Var != nil {
					delta(cs.Caller.ID).Add(a.Var.ID)
				}
			}
		}
	}

	// Fold deltas into IMOD+ (with the nested fold) and then propagate
	// through GMOD with a worklist that moves only the new bits.
	maxL := prog.MaxLevel()
	if maxL > 0 {
		buckets := make([][]*ir.Procedure, maxL+1)
		for _, q := range prog.Procs {
			buckets[q.Level] = append(buckets[q.Level], q)
		}
		for lvl := maxL; lvl > 0; lvl-- {
			for _, q := range buckets[lvl] {
				if newPlus[q.ID] == nil {
					continue
				}
				delta(q.Parent.ID).UnionDiffWith(newPlus[q.ID], res.Facts.Local[q.ID])
			}
		}
	}

	// gained[q] collects the bits GMOD(q) gains; order lists the
	// procedures with a gain, in first-gain order, and is the worklist
	// seed.
	gained := make([]*bitset.Set, prog.NumProcs())
	var order []int
	gain := func(pid, id int) {
		if gained[pid] == nil {
			gained[pid] = bitset.NewSparse()
			order = append(order, pid)
		}
		gained[pid].Add(id)
		res.GMOD[pid].Add(id)
	}
	for pid, d := range newPlus {
		if d == nil || d.Empty() {
			continue
		}
		res.IMODPlus[pid].UnionWith(d)
		d.ForEach(func(id int) {
			if !res.GMOD[pid].Has(id) {
				gain(pid, id)
			}
		})
	}
	// Backward propagation of new GMOD bits along call edges: a
	// worklist on equation (4) seeded with only the changed
	// procedures. The old solution is a fixpoint, so only a callee's
	// gained bits can be new to its callers. Two filters apply per
	// edge, matching the multi-level semantics: the callee's LOCAL set,
	// and the activation rule that a class-i variable cannot survive
	// an edge whose callee sits at a level shallower than i (the call
	// would create a fresh activation).
	inQ := make([]bool, prog.NumProcs())
	wl := append([]int(nil), order...)
	for _, pid := range wl {
		inQ[pid] = true
	}
	for len(wl) > 0 {
		qid := wl[0]
		wl = wl[1:]
		inQ[qid] = false
		q := prog.Procs[qid]
		for _, e := range res.CG.G.Preds(qid) {
			pid := prog.Sites[e.ID].Caller.ID
			changed := false
			gained[qid].ForEach(func(id int) {
				if !res.Facts.Local[qid].Has(id) && prog.Vars[id].ScopeLevel() <= q.Level &&
					!res.GMOD[pid].Has(id) {
					gain(pid, id)
					changed = true
				}
			})
			if changed && !inQ[pid] {
				inQ[pid] = true
				wl = append(wl, pid)
			}
		}
	}

	// Patch DMOD (equation 2) at the affected sites only: a site's row
	// grows by its callee's gained bits outside LOCAL(callee), and by
	// the actual bound to each formal that turned RMOD-true.
	var ch Change
	at := map[int]int{} // site ID → index in ch.Sites
	patch := func(cs *ir.CallSite, id int) {
		row := res.DMOD[cs.ID]
		if row.Has(id) {
			return
		}
		row.Add(id)
		i, ok := at[cs.ID]
		if !ok {
			i = len(ch.Sites)
			at[cs.ID] = i
			ch.Sites = append(ch.Sites, SiteChange{Site: cs, Gained: bitset.NewSparse()})
		}
		ch.Sites[i].Gained.Add(id)
	}
	for _, qid := range order {
		ch.Procs = append(ch.Procs, prog.Procs[qid])
		for _, e := range res.CG.G.Preds(qid) {
			cs := prog.Sites[e.ID]
			gained[qid].ForEach(func(id int) {
				if !res.Facts.Local[qid].Has(id) {
					patch(cs, id)
				}
			})
		}
	}
	for _, f := range turned {
		for _, e := range res.CG.G.Preds(f.Owner.ID) {
			cs := prog.Sites[e.ID]
			if a := cs.Args[f.Ordinal]; a.Mode == ir.FormalRef && a.Var != nil {
				patch(cs, a.Var.ID)
			}
		}
	}
	return ch, nil
}

// Invalidate recomputes the full analysis (used after non-additive
// edits such as deleting statements or call sites). The superseded
// result's arena is recycled: the updater maintains the result in
// place, so the old sets are unreachable through it once the fresh
// solution lands.
func (inc *Incremental) Invalidate() {
	old := inc.res.Arena
	*inc.res = *Analyze(inc.res.Prog, inc.res.Kind, Options{})
	arena.Put(old)
}

// Rebase re-points the maintained result at prog, a program model that
// is structurally identical to the current one — same IDs for every
// variable, procedure, and call site, as certified by ir.AdditiveDelta
// — but may carry different source positions and additional local
// facts. The solved fixpoints (RMOD, IMOD+, GMOD, DMOD) are kept
// as-is: they are pure ID-indexed sets and remain valid under the
// isomorphism. beta and cg must be binding.Build(prog) and
// callgraph.Build(prog); they hold pointers into the program model, and
// a caller maintaining both problems builds them once for the two.
// β-node numbering is preserved because nodes are enumerated in
// procedure/formal declaration order.
//
// Rebase does not apply the new facts; call AddLocalEffect for each
// delta afterwards. Passing a program that is not ID-isomorphic to the
// current one corrupts the result.
func (inc *Incremental) Rebase(prog *ir.Program, beta *binding.Beta, cg *callgraph.CallGraph) {
	res := inc.res
	res.Prog = prog
	res.Facts.Prog = prog
	res.Beta = beta
	res.RMOD.Beta = beta
	res.CG = cg
}
