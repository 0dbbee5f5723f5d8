package sideeffect

import (
	"context"
	"fmt"
	"sort"

	"sideeffect/internal/binding"
	"sideeffect/internal/bitset"
	"sideeffect/internal/callgraph"
	"sideeffect/internal/core"
	"sideeffect/internal/ir"
)

// Effect selects which side of an incremental update a new local fact
// belongs to: a modification (IMOD) or a use (IUSE).
type Effect int

// Effect kinds.
const (
	// ModEffect records "the procedure now directly modifies the
	// variable".
	ModEffect Effect = iota
	// UseEffect records "the procedure now directly uses the
	// variable".
	UseEffect
)

// String returns "mod" or "use".
func (e Effect) String() string {
	if e == ModEffect {
		return "mod"
	}
	return "use"
}

// Incremental maintains an Analysis under additive edits — the
// programming-environment scenario the paper was built for, where one
// procedure is recompiled with a new local effect and the environment
// wants updated summaries without re-running the whole-program
// analysis. The wrapped Analysis is updated in place, in proportion to
// what the edit changes: the MOD and USE core results are maintained by
// delta propagation over the call and binding multi-graphs
// (internal/core.Incremental), which also patches the DMOD rows of the
// affected call sites; the alias pairs are kept, since an additive edit
// cannot change the bindings they come from; and the factored per-site
// sets are patched with the bits each site gained and their alias
// partners. Only the regular sections are recomputed, because a new
// scalar GMOD bit can change which symbols are invariant.
//
// Non-additive edits (deleting statements, adding call sites or
// variables) are outside this type's contract; Session handles them by
// detecting the case and falling back to full reanalysis.
type Incremental struct {
	a        *Analysis
	mod, use *core.Incremental
	opts     Options
}

// NewIncremental wraps an Analysis for incremental maintenance with
// default scheduling options.
func NewIncremental(a *Analysis) *Incremental {
	return NewIncrementalWith(a, Options{})
}

// NewIncrementalWith is NewIncremental with explicit scheduling
// options for the derived-stage refresh.
func NewIncrementalWith(a *Analysis, opts Options) *Incremental {
	return &Incremental{
		a:    a,
		mod:  core.NewIncremental(a.Mod),
		use:  core.NewIncremental(a.Use),
		opts: opts,
	}
}

// Analysis returns the maintained analysis.
func (inc *Incremental) Analysis() *Analysis { return inc.a }

// AddLocalEffect records that proc now directly modifies (ModEffect)
// or uses (UseEffect) the named variable, and updates every affected
// set — RMOD, IMOD+, GMOD/GUSE, per-site sets, and the section
// results. Names are qualified as elsewhere in the API ("g" for a
// global, "p.x" for a local or formal). It returns the names of the
// procedures whose summary sets changed, sorted.
//
// The variable must be a scalar visible in proc. Cost is proportional
// to the part of the program whose solution changes, plus one
// recomputation of the regular sections.
func (inc *Incremental) AddLocalEffect(proc, variable string, effect Effect) ([]string, error) {
	a := inc.a
	p := a.Prog.Proc(proc)
	if p == nil {
		return nil, fmt.Errorf("sideeffect: no procedure %q", proc)
	}
	v := a.Prog.Var(variable)
	if v == nil {
		return nil, fmt.Errorf("sideeffect: no variable %q", variable)
	}
	if v.Rank() != 0 {
		return nil, fmt.Errorf("sideeffect: incremental effects must be scalar, %s has rank %d", v, v.Rank())
	}
	add := []ir.FactDelta{{Proc: p.ID, Var: v.ID}}
	var procs []*ir.Procedure
	var err error
	if effect == ModEffect {
		procs, err = inc.addFacts(context.Background(), inc.opts, add, nil)
	} else {
		procs, err = inc.addFacts(context.Background(), inc.opts, nil, add)
	}
	if err != nil {
		return nil, err
	}
	names := make([]string, len(procs))
	for i, q := range procs {
		names[i] = q.Name
	}
	sort.Strings(names)
	return names, nil
}

// addFacts applies new local facts (IDs in the maintained program) to
// the MOD and USE core results, then brings the derived stages up to
// date: the regular sections are recomputed, and each call site whose
// DMOD row grew has its factored set patched with the gained bits and
// their alias partners. The alias pairs are unchanged by an additive
// edit, so factoring the gained bits alone yields the factored set of
// the grown row. Everything is patched in place; no arena storage is
// carved. It returns the procedures whose GMOD rows grew, once per fact
// that grew them.
func (inc *Incremental) addFacts(ctx context.Context, opts Options, modAdds, useAdds []ir.FactDelta) ([]*ir.Procedure, error) {
	a := inc.a
	var procs []*ir.Procedure
	var grown [2][]core.SiteChange
	for k, eng := range []*core.Incremental{inc.mod, inc.use} {
		for _, f := range [][]ir.FactDelta{modAdds, useAdds}[k] {
			ch, err := eng.AddLocalEffect(a.Prog.Procs[f.Proc], a.Prog.Vars[f.Var])
			if err != nil {
				return nil, err
			}
			procs = append(procs, ch.Procs...)
			grown[k] = append(grown[k], ch.Sites...)
		}
	}
	patch := func(sets []*bitset.Set, changes []core.SiteChange) func() {
		return func() {
			for _, c := range changes {
				a.Aliases.FactorInto(sets[c.Site.ID], c.Gained, c.Site.Caller)
			}
		}
	}
	return procs, a.derivedCtx(ctx, opts, patch(a.ModSets, grown[0]), patch(a.UseSets, grown[1]))
}

// rebase re-points the maintained results at a reparsed, ID-isomorphic
// program model (certified by ir.AdditiveDelta) so that reports carry
// the new source's positions. The binding multi-graph and the call
// graph are rebuilt once and shared by both problems, as in a fresh
// analysis. The alias pairs are kept: they depend only on the call
// sites, arguments, formals, nesting and owners, which the isomorphism
// preserves, and they are keyed by ID.
func (inc *Incremental) rebase(prog *ir.Program) {
	beta, cg := binding.Build(prog), callgraph.Build(prog)
	inc.mod.Rebase(prog, beta, cg)
	inc.use.Rebase(prog, beta, cg)
	inc.a.Prog = prog
	inc.a.Aliases.Rebase(prog)
}

// AddLocalEffect is a one-shot convenience for
// NewIncremental(a).AddLocalEffect. The wrapper is cheap to build, so
// calling this once per edit costs no more than keeping an Incremental.
func (a *Analysis) AddLocalEffect(proc, variable string, effect Effect) ([]string, error) {
	return NewIncremental(a).AddLocalEffect(proc, variable, effect)
}

// EditMode reports how a Session absorbed an edit.
type EditMode int

// Edit modes.
const (
	// EditFull means the edit was non-additive and the program was
	// reanalyzed from scratch.
	EditFull EditMode = iota
	// EditIncremental means the edit only added local facts and the
	// maintained solution was updated by delta propagation.
	EditIncremental
)

// String returns "full" or "incremental".
func (m EditMode) String() string {
	if m == EditIncremental {
		return "incremental"
	}
	return "full"
}

// Session holds a program open across edits, the unit of service
// behind the analysis server's /session endpoints. Each Edit replaces
// the source text; the session decides how to bring the analysis up to
// date:
//
//   - if the new source is an additive extension of the old one — the
//     same declarations, call sites, and array accesses, with possibly
//     new scalar modifications/uses (for example a few new assignment
//     or write statements) — the maintained solution is updated
//     incrementally;
//   - otherwise the program is reanalyzed from scratch.
//
// Either way the resulting Analysis is identical, byte for byte in its
// reports, to a fresh Analyze of the new source; the mode only changes
// how much work was done. A Session is not safe for concurrent use;
// the server serializes access per session.
type Session struct {
	opts Options
	src  string
	inc  *Incremental
	// broken marks a session whose maintained solution was left
	// inconsistent by a failed EditContext; see ErrSessionBroken.
	broken bool
}

// NewSession parses, checks, and analyzes src and holds it open for
// edits. It is NewSessionContext without a deadline.
func NewSession(src string, opts Options) (*Session, error) {
	return NewSessionContext(context.Background(), src, opts)
}

// Analysis returns the session's current analysis.
func (s *Session) Analysis() *Analysis { return s.inc.a }

// Source returns the session's current source text.
func (s *Session) Source() string { return s.src }

// Edit replaces the session's source text and brings the analysis up
// to date, incrementally when the edit is additive and by full
// reanalysis otherwise. It is EditContext without a deadline: on a
// parse or semantic error the session is left unchanged and the error
// is returned. A Session owns its analysis across edits, so a caller
// must not hold sets from before an Edit.
func (s *Session) Edit(newSrc string) (EditMode, error) {
	return s.EditContext(context.Background(), newSrc)
}

// Close releases the session's analysis storage back to the pool. The
// session (and any Analysis it handed out) must not be used afterwards.
// Optional, like Analysis.Release.
func (s *Session) Close() { s.inc.a.Release() }
