package sideeffect

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"

	"sideeffect/internal/alias"
	"sideeffect/internal/batch"
	"sideeffect/internal/core"
	"sideeffect/internal/ir"
	"sideeffect/internal/lang/sem"
	"sideeffect/internal/lint"
	"sideeffect/internal/prof"
	"sideeffect/internal/section"
)

// This file holds the one analysis pipeline. Every entry point here
// takes a context, never panics, and guarantees that a failed or
// abandoned analysis cannot corrupt the process-wide arena pool. Every
// other entry point (Analyze, AnalyzeWith, AnalyzeProgramWith,
// NewSession, Session.Edit, AnalyzeAll, AnalyzeAllPrograms and the Go
// entry points) is a wrapper that calls one of these with
// context.Background(), so all of them honor Options.Faults and return
// the same errors. The forms without an error return keep their
// fail-fast contract by panicking with the pipeline's error.

// asPanicError normalizes a recovered value: captured *batch.PanicError
// values pass through (keeping the panicking goroutine's stack), raw
// panics are wrapped with the current stack.
func asPanicError(rec any) *batch.PanicError {
	if pe, ok := rec.(*batch.PanicError); ok {
		return pe
	}
	return &batch.PanicError{Value: rec, Stack: debug.Stack()}
}

// poisonArenas marks both core results' arenas as unsafe for pooling.
// Called on the panic path only: a panic mid-stage leaves carve state
// unknown, and a poisoned arena is dropped by Release instead of
// recycled. Conservative — a panic in one problem's stage poisons the
// sibling's arena too, trading a slab reallocation for certainty.
func (a *Analysis) poisonArenas() {
	if a.Mod != nil {
		a.Mod.Arena.Poison()
	}
	if a.Use != nil {
		a.Use.Arena.Poison()
	}
}

// abort tears down a partially built analysis after err stopped it:
// panic-path arenas are poisoned (so the pool never sees them), then
// everything checked out so far is released.
func (a *Analysis) abort(err error) {
	var pe *batch.PanicError
	if errors.As(err, &pe) {
		a.poisonArenas()
	}
	a.Release()
}

// AnalyzeContext is Analyze with deadline propagation and fault
// isolation: the context is consulted at every stage boundary, injected
// faults (Options.Faults) surface as errors, and a panic anywhere in
// the pipeline — injected or genuine — is returned as an error wrapping
// *batch.PanicError after the affected arenas are poisoned. It never
// panics and never leaks pooled storage: a failed call has already
// released (or safely dropped) everything it checked out.
func AnalyzeContext(ctx context.Context, src string, opts Options) (*Analysis, error) {
	prog, err := sem.AnalyzeSource(src)
	if err != nil {
		return nil, fmt.Errorf("sideeffect: %w", err)
	}
	return AnalyzeProgramContext(ctx, prog.Prune(), opts)
}

// AnalyzeProgramContext analyzes an already-built program model
// without pruning, under the hardened contract of AnalyzeContext:
// cancellable, fault-injectable, total (it returns errors, never
// panics), and arena-safe on every failure path.
//
// The stage dependency graph has two layers. Mod, Use, and alias
// factoring read only the immutable program model, so they run
// concurrently first. The four derived stages each depend on one or
// two of those results and on nothing else: SecMod and SecUse consume
// the Mod result (both section problems are driven by Mod's GMOD sets,
// which fix symbol invariance), and the final per-call-site sets
// factor each core result through the alias analysis. All reads of
// the shared inputs are read-only, so the layer runs with no locking.
func AnalyzeProgramContext(ctx context.Context, prog *ir.Program, opts Options) (ra *Analysis, err error) {
	a := &Analysis{Prog: prog}
	defer func() {
		if rec := recover(); rec != nil {
			err = asPanicError(rec)
		}
		if err != nil {
			a.abort(err)
			ra, err = nil, fmt.Errorf("sideeffect: analysis failed: %w", err)
		}
	}()
	if err = opts.Faults.At("sideeffect.analyze"); err != nil {
		return nil, err
	}
	if ctx != nil {
		if err = ctx.Err(); err != nil {
			return nil, err
		}
	}
	if opts.Profile {
		popts := []prof.Option{prof.WithLabels()}
		if opts.workers() == 1 {
			// Allocation deltas come from runtime.ReadMemStats and are
			// only attributable to a stage when stages run one at a
			// time.
			popts = append(popts, prof.CountAllocs())
		}
		a.Stages = prof.New(popts...)
	}
	w := opts.workers()
	// The binding graph, its components, the call graph, and the
	// per-level subgraphs are identical for the Mod and Use problems;
	// build them once and let both analyses (running concurrently —
	// the Structure is read-only) share the skeleton.
	var st *core.Structure
	a.Stages.Do("structure", func() { st = core.BuildStructure(prog) })
	co := core.Options{Alloc: opts.Alloc, Prof: a.Stages, Structure: st, Faults: opts.Faults, DisableCondensation: opts.DisableCondensation}
	var modErr, useErr error
	err = batch.RunCtx(ctx, w, []func(){
		func() { a.Mod, modErr = core.AnalyzeCtx(ctx, prog, core.Mod, co) },
		func() { a.Use, useErr = core.AnalyzeCtx(ctx, prog, core.Use, co) },
		func() { a.Stages.Do("aliases", func() { a.Aliases = alias.Compute(prog) }) },
	})
	if err = errors.Join(err, modErr, useErr); err != nil {
		return nil, err
	}
	// Factored sets share their core Result's lifetime, so they are
	// drawn from its arena.
	if err = a.derivedCtx(ctx, opts,
		func() { a.ModSets = a.Aliases.FactorArena(a.Mod.DMOD, a.Mod.Arena) },
		func() { a.UseSets = a.Aliases.FactorArena(a.Use.DMOD, a.Use.Arena) }); err != nil {
		return nil, err
	}
	return a, nil
}

// derivedCtx runs the second stage layer with cancellation, fault
// injection, and panic capture: both section problems, recomputed from
// the Mod result, beside factorMod and factorUse, which bring the
// factored per-site sets up to date (from scratch in the pipeline, by
// delta on the incremental path). Each arena is touched by exactly one
// of the factoring tasks. The derived stages may draw from the core
// results' arenas, so a panic here leaves carve state unknown: the
// arenas are poisoned before the error is returned, and no later
// Release can pool them.
func (a *Analysis) derivedCtx(ctx context.Context, opts Options, factorMod, factorUse func()) error {
	if err := opts.Faults.At("sideeffect.derived"); err != nil {
		return err
	}
	err := batch.RunCtx(ctx, opts.workers(), []func(){
		func() { a.SecMod = section.AnalyzeProf(a.Mod, core.Mod, section.SimpleSections, a.Stages) },
		func() { a.SecUse = section.AnalyzeProf(a.Mod, core.Use, section.SimpleSections, a.Stages) },
		func() { a.Stages.Do("factor.mod", factorMod) },
		func() { a.Stages.Do("factor.use", factorUse) },
	})
	var pe *batch.PanicError
	if errors.As(err, &pe) {
		a.poisonArenas()
	}
	return err
}

// AnalyzeAllContext is AnalyzeAll with per-request cancellation and
// graceful degradation. Each program runs under the hardened pipeline;
// one whose first attempt dies with a captured panic is retried once in
// degraded mode — sequential, dense allocation, nothing pooled — so a
// poisoned worker pool or arena bug degrades throughput instead of
// failing requests (BatchResult.Degraded marks those entries). Once ctx
// is done, undispatched programs are skipped; their slots carry
// ctx.Err(). The returned slice always has len(srcs) entries, in input
// order.
func AnalyzeAllContext(ctx context.Context, srcs []string, opts Options) []BatchResult {
	if ctx == nil {
		ctx = context.Background()
	}
	inner := opts.perProgram()
	out, err := batch.MapCtx(ctx, opts.workers(), srcs, func(_ int, src string) BatchResult {
		a, aerr := AnalyzeContext(ctx, src, inner)
		if aerr == nil {
			return BatchResult{Analysis: a}
		}
		var pe *batch.PanicError
		if errors.As(aerr, &pe) && ctx.Err() == nil {
			degraded := inner
			degraded.Alloc = core.AllocDense
			da, derr := AnalyzeContext(ctx, src, degraded)
			if derr == nil {
				return BatchResult{Analysis: da, Degraded: true}
			}
			aerr = errors.Join(aerr, derr)
		}
		return BatchResult{Err: aerr}
	})
	if err != nil {
		// Skipped (undispatched) slots have a zero BatchResult; stamp
		// them with the cancellation cause so callers see a structured
		// error rather than an inexplicable empty entry. Panic errors
		// cannot reach here — AnalyzeContext is total and the closure
		// above does not panic.
		for i := range out {
			if out[i].Analysis == nil && out[i].Err == nil {
				out[i].Err = err
			}
		}
	}
	return out
}

// analyzeAllPrograms is the batch body behind AnalyzeAllPrograms and
// AnalyzeGoPackages: the AnalyzeAllContext pool over program models,
// without the degraded retry. On any failure the completed analyses are
// released and the joined errors returned.
func analyzeAllPrograms(ctx context.Context, progs []*ir.Program, opts Options) ([]*Analysis, error) {
	inner := opts.perProgram()
	errs := make([]error, len(progs))
	out, err := batch.MapCtx(ctx, opts.workers(), progs, func(i int, p *ir.Program) (a *Analysis) {
		a, errs[i] = AnalyzeProgramContext(ctx, p, inner)
		return a
	})
	if err = errors.Join(append(errs, err)...); err != nil {
		for _, a := range out {
			a.Release()
		}
		return nil, err
	}
	return out, nil
}

// LintContext is Lint with cancellation and panic capture: a panic in a
// lint rule is returned as an error wrapping *batch.PanicError instead
// of crossing an API boundary (the lint stage allocates nothing pooled,
// so no arena handling is needed).
func (a *Analysis) LintContext(ctx context.Context, cfg lint.Config) (rep *lint.Report, err error) {
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
	}
	defer func() {
		if rec := recover(); rec != nil {
			rep, err = nil, fmt.Errorf("sideeffect: lint failed: %w", asPanicError(rec))
		}
	}()
	return a.Lint(cfg)
}

// ErrSessionBroken reports an operation on a session whose maintained
// solution was left inconsistent by a failed edit (the failure hit
// after in-place mutation had begun and the full-reanalysis fallback
// failed too). A broken session refuses every further edit; the only
// safe operation is Close. The server surfaces this as a structured
// error until the client deletes the session.
var ErrSessionBroken = errors.New("sideeffect: session broken by a failed edit; close and recreate it")

// Broken reports whether a failed edit left the session's maintained
// solution inconsistent. See ErrSessionBroken.
func (s *Session) Broken() bool { return s.broken }

// NewSessionContext parses, checks, and analyzes src under the
// hardened pipeline and holds it open for edits: cancellable and total.
// A failed construction leaves nothing checked out.
func NewSessionContext(ctx context.Context, src string, opts Options) (*Session, error) {
	a, err := AnalyzeContext(ctx, src, opts)
	if err != nil {
		return nil, err
	}
	return &Session{opts: opts, src: src, inc: NewIncrementalWith(a, opts)}, nil
}

// EditContext replaces the session's source text and brings the
// analysis up to date, incrementally when the edit is additive and by
// full reanalysis otherwise, with transactional failure semantics under
// cancellation and fault injection:
//
//   - a parse/semantic error, or any failure before the maintained
//     solution is touched (including the whole full-reanalysis path),
//     leaves the session exactly as it was — same analysis, same
//     source;
//   - a failure after in-place mutation has begun falls back to full
//     reanalysis; if that succeeds the edit still lands (mode
//     EditFull);
//   - if the fallback fails too, the session is marked broken: the old
//     solution is unrecoverable (it was mutated) and every further
//     edit returns ErrSessionBroken.
//
// EditContext never panics and never hands a half-updated solution to
// a later read.
func (s *Session) EditContext(ctx context.Context, newSrc string) (mode EditMode, err error) {
	if s.broken {
		return EditFull, ErrSessionBroken
	}
	prog, perr := sem.AnalyzeSource(newSrc)
	if perr != nil {
		return EditFull, fmt.Errorf("sideeffect: %w", perr)
	}
	prog = prog.Prune()
	modAdds, useAdds, ok := ir.AdditiveDelta(s.inc.a.Prog, prog)
	if !ok {
		// Full path: the fresh analysis is built off to the side, so a
		// failure here cannot touch the current solution.
		return s.editFullCtx(ctx, prog, newSrc, false)
	}
	// Incremental path: from the rebase on, the maintained solution is
	// being mutated in place, so every failure must recover through
	// full reanalysis or break the session. The recover is load-bearing:
	// fault points reached on this goroutine (rather than inside a
	// panic-capturing worker pool) panic straight through the
	// incremental machinery, and without it the half-mutated solution
	// would be served as if the edit had never happened.
	defer func() {
		if rec := recover(); rec != nil {
			// The panic tore the in-place update at an arbitrary point;
			// the arenas must not be pooled when the fallback releases
			// this analysis.
			s.inc.a.poisonArenas()
			var ferr error
			mode, ferr = s.editFullCtx(ctx, prog, newSrc, true)
			if ferr == nil {
				err = nil
				return
			}
			err = errors.Join(asPanicError(rec), ferr)
		}
	}()
	s.inc.rebase(prog)
	if _, err := s.inc.addFacts(ctx, s.opts, modAdds, useAdds); err != nil {
		mode, ferr := s.editFullCtx(ctx, prog, newSrc, true)
		if ferr == nil {
			return mode, nil
		}
		return EditFull, errors.Join(err, ferr)
	}
	s.src = newSrc
	return EditIncremental, nil
}

// editFullCtx replaces the session's analysis with a fresh one of prog.
// mutated says whether the current solution has already been touched in
// place: if so, a failure here is unrecoverable and breaks the session;
// if not, failure leaves the session unchanged.
func (s *Session) editFullCtx(ctx context.Context, prog *ir.Program, src string, mutated bool) (EditMode, error) {
	a, err := AnalyzeProgramContext(ctx, prog, s.opts)
	if err != nil {
		if mutated {
			s.broken = true
			err = errors.Join(err, ErrSessionBroken)
		}
		return EditFull, err
	}
	old := s.inc.a
	s.inc = NewIncrementalWith(a, s.opts)
	s.src = src
	old.Release()
	return EditFull, nil
}
