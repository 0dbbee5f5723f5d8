package core

import (
	"context"
	"fmt"
	"strings"

	"sideeffect/internal/arena"
	"sideeffect/internal/binding"
	"sideeffect/internal/bitset"
	"sideeffect/internal/callgraph"
	"sideeffect/internal/faultinject"
	"sideeffect/internal/ir"
	"sideeffect/internal/prof"
)

// Result is the complete solution of one side-effect problem (MOD or
// USE) for a program, with every intermediate the paper names exposed
// for inspection and testing.
type Result struct {
	Prog *ir.Program
	Kind Kind

	Facts *Facts
	Beta  *binding.Beta
	CG    *callgraph.CallGraph

	// RMOD solves the reference-formal-parameter problem (Section 3).
	RMOD *RMOD
	// IMODPlus is equation (5), indexed by procedure ID.
	IMODPlus []*bitset.Set
	// GMOD is the generalized side-effect set (equations 3/4), indexed
	// by procedure ID. For the Use problem this is GUSE, and so on.
	GMOD []*bitset.Set
	// DMOD is equation (2) evaluated at every call site, indexed by
	// call-site ID: the variables that may be affected by executing
	// the call statement, before alias factoring.
	DMOD []*bitset.Set

	// Arena backs the result's bit vectors under the default
	// allocation policy (nil under AllocHybrid/AllocDense). It lives
	// and dies with the Result; downstream passes whose output shares
	// the Result's lifetime (alias factoring) may draw from it too.
	Arena *arena.Arena

	// GMODStats holds the findgmod work counters, one entry per
	// nesting level solved.
	GMODStats []GMODStats
}

// Options configures Analyze.
type Options struct {
	// Prune removes procedures unreachable from main before solving.
	// The paper assumes this clean-up (Section 3.3); without it the
	// nesting extension may report effects of never-called nested
	// procedures. Pruning re-indexes the program, so results refer to
	// Result.Prog, not the input.
	Prune bool
	// Alloc selects the allocation discipline; the zero value
	// (AllocAuto) is the arena+hybrid production default.
	Alloc AllocPolicy
	// Prof, when non-nil, accumulates per-stage wall time (and
	// optionally allocation counters) under names like "mod.gmod".
	Prof *prof.Profile
	// Structure, when non-nil and built for the program Analyze ends up
	// solving (after any pruning), supplies the kind-independent
	// skeleton so a MOD+USE pair shares one graph construction. A nil
	// or mismatched Structure is ignored and the skeleton is built
	// internally.
	Structure *Structure
	// DisableCondensation forces the per-node Figure-2 GMOD search
	// instead of the SCC-condensed storage layer. The solution is
	// identical; this exists as the differential baseline for tests
	// and experiments.
	DisableCondensation bool
	// Faults, when non-nil, injects deterministic faults at every
	// stage boundary (sites "core.mod.gmod", "core.use.rmod", …) for
	// chaos testing. Injected panics propagate after the arena is
	// poisoned; injected errors abort the analysis through the same
	// path as cancellation. Production runs leave this nil.
	Faults *faultinject.Injector
}

// Analyze runs the complete pipeline of the paper for one problem
// kind:
//
//	local facts → binding multi-graph → RMOD (Figure 1) →
//	IMOD+ (equation 5) → GMOD (Figure 2 / Section 4 multi-level) →
//	DMOD (equation 2).
//
// Total cost is O(N + E) graph work plus O((N+E)·v) bit-vector work
// for vectors of v words, matching the paper's O(N² + NE) when the
// number of variables grows linearly with the program.
func Analyze(prog *ir.Program, kind Kind, opts Options) *Result {
	r, err := AnalyzeCtx(context.Background(), prog, kind, opts)
	if err != nil {
		// Unreachable without a cancellable context or a fault
		// injector; callers that supply either use AnalyzeCtx.
		panic(err)
	}
	return r
}

// AnalyzeCtx is Analyze with deadline propagation and fault isolation;
// runStages documents the contract.
func AnalyzeCtx(ctx context.Context, prog *ir.Program, kind Kind, opts Options) (*Result, error) {
	return runStages(ctx, prog, kind, opts, func(s *stages) (*Result, bool) {
		r := &Result{Prog: s.prog, Kind: kind, Facts: s.facts, Beta: s.st.Beta, CG: s.st.CG,
			RMOD: s.rmod, IMODPlus: s.imodPlus, Arena: s.al.ar}
		return r, s.step("gmod", func() {
			r.GMOD, r.GMODStats = solveGMODMultiLevel(s.st, s.facts, s.imodPlus, s.al, opts.DisableCondensation)
		}) && s.step("dmod", func() { r.DMOD = computeDMOD(s.prog, s.rmod, r.GMOD, s.facts, s.al) })
	})
}

// stages is one problem's run through runStages. The solved fields
// fill in pipeline order; a tail reads them to build its result.
type stages struct {
	ctx  context.Context
	opts Options
	pfx  string
	err  error

	prog     *ir.Program
	st       *Structure
	al       setAlloc
	facts    *Facts
	rmod     *RMOD
	imodPlus []*bitset.Set
}

// step guards one stage: fault point first (so chaos runs can hit a
// stage even when the context is healthy), then the deadline. It
// reports whether the stage ran.
func (s *stages) step(stage string, f func()) bool {
	if s.err == nil {
		s.err = s.opts.Faults.At("core." + s.pfx + stage)
	}
	if s.err == nil && s.ctx != nil {
		s.err = s.ctx.Err()
	}
	if s.err != nil {
		return false
	}
	s.opts.Prof.Do(s.pfx+stage, f)
	return true
}

// runStages is the one stage runner behind AnalyzeCtx and
// AnalyzeCondensed: prune, structure, facts, RMOD (Figure 1) and IMOD+
// (equation 5), then tail, which builds the caller's result form and
// solves GMOD — and DMOD, if that form stores it — through step.
//
// The context is consulted at every stage boundary (the stages are the
// cost units of the paper's complexity argument, so a deadline is
// honored within one linear sub-pass). A cancelled or faulted run
// reports the cause and returns its arena to the pool. A panic, injected
// or genuine, poisons the arena and propagates: converting it to an
// error is the public layer's job, but no recovery layer can recycle
// slabs whose carve state is unknown.
func runStages[R any](ctx context.Context, prog *ir.Program, kind Kind, opts Options, tail func(*stages) (*R, bool)) (*R, error) {
	s := &stages{ctx: ctx, opts: opts, pfx: strings.ToLower(kind.String()) + "."}
	defer func() {
		if rec := recover(); rec != nil {
			s.al.ar.Poison()
			// Route the poisoned arena through Put so the pool's
			// accounting closes (Gets = Puts + PoisonDropped): Put
			// refuses poisoned arenas, it only records the drop.
			arena.Put(s.al.ar)
			panic(rec)
		}
	}()
	var r *R
	ok := !opts.Prune || s.step("prune", func() { prog = prog.Prune() })
	if ok {
		s.prog, s.al = prog, newSetAlloc(opts.Alloc, prog.NumVars())
		st := opts.Structure
		if st == nil || st.Prog != prog {
			st = &Structure{Prog: prog}
			ok = s.step("beta", func() { st.Beta = binding.Build(prog); st.BetaSCC = st.Beta.G.SCC() }) &&
				s.step("callgraph", func() { st.CG = callgraph.Build(prog); st.fillLevels() })
		}
		s.st = st
		ok = ok &&
			s.step("facts", func() { s.facts = computeFacts(prog, kind, s.al) }) &&
			s.step("rmod", func() { s.rmod = solveRMOD(st.Beta, s.facts, st.BetaSCC) }) &&
			s.step("imod+", func() { s.imodPlus = computeIMODPlus(s.facts, s.rmod, s.al) })
		if ok {
			r, ok = tail(s)
		}
	}
	if !ok {
		// The aborted result never escaped: every set carved so far is
		// private to this run, so the arena can recycle immediately.
		arena.Put(s.al.ar)
		return nil, fmt.Errorf("core: %s analysis aborted: %w", s.pfx[:len(s.pfx)-1], s.err)
	}
	return r, nil
}

// Release returns the Result's arena to the process-wide pool for
// reuse by a later Analyze. It is the batch-loop counterpart of simply
// dropping the Result: callers that analyze many programs in sequence
// and fully consume each Result before the next can Release instead,
// which recycles the slab storage without waiting for (or paying) a
// collection. After Release every set reachable from the Result is
// dead — the receiver's set fields are nilled to fail fast. Release on
// a Result without an arena (AllocHybrid/AllocDense) is a no-op, so
// callers need not branch on policy. Not safe to call concurrently
// with reads of the same Result.
func (r *Result) Release() {
	if r == nil || r.Arena == nil {
		return
	}
	ar := r.Arena
	r.Arena = nil
	r.Facts = nil
	r.IMODPlus = nil
	r.GMOD = nil
	r.DMOD = nil
	arena.Put(ar)
}

// ComputeDMOD evaluates equation (2) at every call site:
//
//	DMOD(s) = LMOD(s) ∪ ∪_{e=(p,q)∈s} b_e(GMOD(q))
//
// where for a call statement the local part LMOD(s) is empty for the
// Mod problem and, for the Use problem, consists of the variables the
// caller reads to evaluate the arguments (val-argument expressions and
// subscripts of element/section actuals — call-by-value evaluates
// eagerly). The projection b_e keeps every non-local of the callee
// under its own name (globals and variables of enclosing scopes) and
// maps formals in RMOD(q) to the actual variables bound to them.
func ComputeDMOD(prog *ir.Program, rmod *RMOD, gmod []*bitset.Set, facts *Facts) []*bitset.Set {
	return computeDMOD(prog, rmod, gmod, facts, newSetAlloc(AllocHybrid, prog.NumVars()))
}

// computeDMOD is ComputeDMOD with the per-site rows drawn from al.
func computeDMOD(prog *ir.Program, rmod *RMOD, gmod []*bitset.Set, facts *Facts, al setAlloc) []*bitset.Set {
	out := make([]*bitset.Set, prog.NumSites())
	for _, cs := range prog.Sites {
		d := al.resultDense()
		q := cs.Callee
		// b_e over non-locals: GMOD(q) ∖ LOCAL(q).
		d.UnionDiffWith(gmod[q.ID], facts.Local[q.ID])
		for i, a := range cs.Args {
			if facts.Kind == Use {
				for _, u := range a.Uses {
					d.Add(u.ID)
				}
			}
			if a.Mode == ir.FormalRef && a.Var != nil && rmod.Of(q.Formals[i]) {
				d.Add(a.Var.ID)
			}
		}
		out[cs.ID] = d
	}
	return out
}
