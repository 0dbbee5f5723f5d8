// Package alias computes flow-insensitive alias pairs introduced by
// reference-parameter passing and factors them into MOD/USE sets, the
// final step of the paper's pipeline (Section 5).
//
// The paper assumes "simple sets of alias pairs are available for each
// procedure"; this package provides them in the classical
// Banning/Cooper style. A pair ⟨x, y⟩ ∈ ALIAS(p) means x and y may
// name the same location on some entry to p. Pairs arise at call
// sites, from three sources, and propagate transitively down call
// chains:
//
//  1. a non-local variable v (global, or a visible local of an
//     enclosing scope) passed by reference to formal f: ⟨f, v⟩ holds
//     in the callee if v remains visible there;
//  2. the same variable passed by reference to two formals f_i, f_j of
//     one call: ⟨f_i, f_j⟩;
//  3. an actual x with an existing pair ⟨x, z⟩ ∈ ALIAS(caller) bound
//     to formal f: ⟨f, z⟩ if z is visible in the callee; and two
//     actuals x, y with ⟨x, y⟩ ∈ ALIAS(caller) bound to formals f_i,
//     f_j: ⟨f_i, f_j⟩.
//
// The computation is a monotone worklist over the call multi-graph;
// it terminates because the pair universe is finite. Section 5 notes
// any summary algorithm must spend time at least linear in the number
// of alias pairs; this one is linear in pairs × call sites in the
// worst case, and tiny on realistic binding patterns.
package alias

import (
	"sort"

	"sideeffect/internal/arena"
	"sideeffect/internal/bitset"
	"sideeffect/internal/core"
	"sideeffect/internal/ir"
)

// Pair is an unordered alias pair of variable IDs with X < Y.
type Pair struct {
	X, Y int
}

// Analysis holds the alias solution for a program.
type Analysis struct {
	Prog *ir.Program
	// sets[pid] is ALIAS(p), each pair packed as X<<32|Y with X < Y.
	// Maps are allocated lazily: most procedures of realistic programs
	// have no alias pairs at all, and the nil map reads below are free.
	sets []map[uint64]struct{}
	// adj[pid] maps a variable ID to the IDs aliased to it in p.
	adj []map[int][]int32
}

func pack(a, b int) uint64 {
	if a > b {
		a, b = b, a
	}
	return uint64(a)<<32 | uint64(b)
}

// Pairs returns ALIAS(p) in deterministic (sorted) order.
func (a *Analysis) Pairs(p *ir.Procedure) []Pair {
	out := make([]Pair, 0, len(a.sets[p.ID]))
	for pr := range a.sets[p.ID] {
		out = append(out, Pair{X: int(pr >> 32), Y: int(pr & 0xffffffff)})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].X != out[j].X {
			return out[i].X < out[j].X
		}
		return out[i].Y < out[j].Y
	})
	return out
}

// NumPairs returns the total number of alias pairs across procedures.
func (a *Analysis) NumPairs() int {
	n := 0
	for _, s := range a.sets {
		n += len(s)
	}
	return n
}

// Compute runs the alias-pair analysis.
func Compute(prog *ir.Program) *Analysis {
	a := &Analysis{
		Prog: prog,
		sets: make([]map[uint64]struct{}, prog.NumProcs()),
		adj:  make([]map[int][]int32, prog.NumProcs()),
	}
	add := func(pid, x, y int) bool {
		if x == y {
			return false
		}
		key := pack(x, y)
		if _, ok := a.sets[pid][key]; ok {
			return false
		}
		s := a.sets[pid]
		if s == nil {
			s = make(map[uint64]struct{}, 8)
			a.sets[pid] = s
		}
		s[key] = struct{}{}
		ad := a.adj[pid]
		if ad == nil {
			ad = make(map[int][]int32, 8)
			a.adj[pid] = ad
		}
		ad[x] = append(ad[x], int32(y))
		ad[y] = append(ad[y], int32(x))
		return true
	}

	inQ := make([]bool, prog.NumProcs())
	queue := make([]int, 0, prog.NumProcs())
	push := func(id int) {
		if !inQ[id] {
			inQ[id] = true
			queue = append(queue, id)
		}
	}
	// process introduces pairs implied by one call site given the
	// caller's current pairs.
	process := func(cs *ir.CallSite) bool {
		q := cs.Callee
		callerAdj := a.adj[cs.Caller.ID]
		callerSet := a.sets[cs.Caller.ID]
		changed := false
		for i, ai := range cs.Args {
			if ai.Mode != ir.FormalRef || ai.Var == nil {
				continue
			}
			fi := q.Formals[i]
			// Source 1: non-local actual still visible in callee.
			if ai.Var.Owner != q && q.Visible(ai.Var) {
				changed = add(q.ID, fi.ID, ai.Var.ID) || changed
			}
			// Source 3a: pairs of the actual propagate to the formal.
			for _, z := range callerAdj[ai.Var.ID] {
				if q.Visible(prog.Vars[z]) {
					changed = add(q.ID, fi.ID, int(z)) || changed
				}
			}
			for j := i + 1; j < len(cs.Args); j++ {
				aj := cs.Args[j]
				if aj.Mode != ir.FormalRef || aj.Var == nil {
					continue
				}
				fj := q.Formals[j]
				// Source 2: same variable twice.
				if ai.Var == aj.Var {
					changed = add(q.ID, fi.ID, fj.ID) || changed
				}
				// Source 3b: aliased actuals.
				if _, ok := callerSet[pack(ai.Var.ID, aj.Var.ID)]; ok {
					changed = add(q.ID, fi.ID, fj.ID) || changed
				}
			}
		}
		return changed
	}

	for _, p := range prog.Procs {
		push(p.ID)
	}
	for len(queue) > 0 {
		pid := queue[0]
		queue = queue[1:]
		inQ[pid] = false
		for _, cs := range prog.Procs[pid].Calls {
			if process(cs) {
				push(cs.Callee.ID)
			}
		}
		// Lexical nesting: a pair holding on entry to p also holds
		// while any procedure nested in p runs (both names stay
		// visible), so pairs flow down the nesting tree as well as
		// along call edges.
		for _, child := range prog.Procs[pid].Nested {
			changed := false
			for pr := range a.sets[pid] {
				if add(child.ID, int(pr>>32), int(pr&0xffffffff)) {
					changed = true
				}
			}
			if changed {
				push(child.ID)
			}
		}
	}
	return a
}

// Factor applies step (2) of Section 5: MOD(s) = DMOD(s) extended
// with every variable aliased (in the enclosing procedure) to a member
// of DMOD(s). The input sets are not modified; the result is indexed
// by call-site ID like core.Result.DMOD.
func (a *Analysis) Factor(dmod []*bitset.Set) []*bitset.Set {
	return a.FactorArena(dmod, nil)
}

// FactorArena is Factor with the output rows drawn from ar, so the
// factored sets share the lifetime of the Result whose arena backs
// them (core.Result.Arena under the default allocation policy). A nil
// arena falls back to heap clones; the arena must not be used from
// another goroutine while this runs.
func (a *Analysis) FactorArena(dmod []*bitset.Set, ar *arena.Arena) []*bitset.Set {
	out := make([]*bitset.Set, len(dmod))
	for _, cs := range a.Prog.Sites {
		d := dmod[cs.ID]
		m := ar.Clone(d)
		a.addPartners(m, d, cs.Caller.ID)
		out[cs.ID] = m
	}
	return out
}

// FactorInto adds d and every variable aliased in caller to a member
// of d to dst, in place. Factoring distributes over union, so a
// factored row whose DMOD row grew by d is brought up to date by
// FactorInto(row, d, caller): the incremental path's per-site patch.
func (a *Analysis) FactorInto(dst, d *bitset.Set, caller *ir.Procedure) {
	dst.UnionWith(d)
	a.addPartners(dst, d, caller.ID)
}

// addPartners is the factoring rule of one row: it adds to dst the
// alias partners, in procedure pid, of every member of d. It iterates
// the (typically tiny) alias adjacency, not the elements of d: per
// aliased variable one membership test replaces a map lookup per
// element. Membership is tested against d, so map order cannot matter.
func (a *Analysis) addPartners(dst, d *bitset.Set, pid int) {
	for x, ys := range a.adj[pid] {
		if d.Has(x) {
			for _, y := range ys {
				dst.Add(int(y))
			}
		}
	}
}

// Rebase re-points the analysis at prog, a program with the same IDs
// for every call site, argument, formal, nesting link and variable
// owner as the one it was computed for (ir.AdditiveDelta certifies
// this). Those are everything Compute reads, and the pair sets are
// keyed by ID, so the solution carries over unchanged.
func (a *Analysis) Rebase(prog *ir.Program) { a.Prog = prog }

// ComputeMOD is the complete Section 5 pipeline: given a core result
// (DMOD plus the supporting sets), produce final MOD (or USE) sets per
// call site.
func ComputeMOD(res *core.Result) []*bitset.Set {
	return Compute(res.Prog).Factor(res.DMOD)
}
