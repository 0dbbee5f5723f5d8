// Package sideeffect is a Go implementation of Cooper & Kennedy's
// linear-time interprocedural side-effect analysis (PLDI 1988),
// together with the full pipeline the paper builds on: a small
// imperative source language (MiniPL) with by-reference parameters,
// globals, and nested procedures; the binding multi-graph RMOD
// algorithm (Figure 1 of the paper); the Tarjan-based findgmod
// algorithm for global effects (Figure 2) with the multi-level nesting
// extension (Section 4); alias factoring (Section 5); and regular
// section analysis for array subregions (Section 6).
//
// The one-call entry point analyzes MiniPL source text:
//
//	a, err := sideeffect.Analyze(src)
//	a.MOD("p")              // GMOD(p): names modified by invoking p
//	a.CallSites()           // per-call-site MOD/USE sets
//	fmt.Print(a.Report())   // complete formatted report
//
// In-module tools (cmd/, examples/) may reach the richer intermediate
// results through the exported fields, which expose the internal
// packages directly.
package sideeffect

import (
	"context"
	"fmt"
	"sort"

	"sideeffect/internal/alias"
	"sideeffect/internal/batch"
	"sideeffect/internal/bitset"
	"sideeffect/internal/core"
	"sideeffect/internal/faultinject"
	"sideeffect/internal/ir"
	"sideeffect/internal/prof"
	"sideeffect/internal/report"
	"sideeffect/internal/section"
)

// Options controls how the analysis pipeline is scheduled. The zero
// value runs independent stages concurrently with GOMAXPROCS workers,
// which is the default used by Analyze and AnalyzeProgram.
type Options struct {
	// Workers bounds the number of concurrently executing stages (in
	// AnalyzeProgramWith) or programs (in AnalyzeAll). Zero or negative
	// means GOMAXPROCS.
	Workers int
	// Sequential forces the classic single-goroutine pipeline: every
	// stage runs in order on the calling goroutine. The result is
	// identical either way — only the schedule changes.
	Sequential bool
	// Alloc selects the bit-vector allocation discipline for the core
	// solvers. The zero value (core.AllocAuto) is the arena+hybrid
	// production default; core.AllocDense is the pre-arena baseline
	// kept for benchmarking and differential testing.
	Alloc core.AllocPolicy
	// Profile, when true, records per-stage wall time (and, on a
	// sequential run, allocation counts) in Analysis.Stages and tags
	// each stage's execution with a pprof "stage" label.
	Profile bool
	// DisableCondensation forces the per-node Figure-2 GMOD search
	// instead of the SCC-condensed storage layer (see
	// core.Options.DisableCondensation). Results are identical; this is
	// the differential baseline for tests and experiments.
	DisableCondensation bool
	// GoModule, when true, makes AnalyzeGoPackages treat its patterns
	// as one whole Go module: every matched package plus its
	// module-local import closure lowers into a single shared program
	// with cross-package calls resolved and closed interface calls
	// devirtualized (see gofront.LoadModule). MiniPL inputs ignore it.
	GoModule bool
	// Faults, when non-nil, injects deterministic seed-driven faults at
	// the pipeline's stage boundaries for chaos testing (see
	// internal/faultinject). Every entry point runs the one hardened
	// pipeline, so every entry point honors it: an injected panic is
	// captured after any affected arena is poisoned and surfaces like
	// any other pipeline error, so a faulted run never corrupts pooled
	// storage. Production runs leave this nil.
	Faults *faultinject.Injector
}

// workers resolves the options to a concrete positive worker count.
// This is the single normalization point for the whole public API:
// Sequential forces 1, a positive Workers is taken as-is, and zero or
// negative Workers fall back to GOMAXPROCS — a negative value is
// treated as "unset" here and never reaches the pools.
func (o Options) workers() int {
	switch {
	case o.Sequential:
		return 1
	case o.Workers > 0:
		return o.Workers
	default:
		return batch.Workers(0)
	}
}

// Analysis bundles the complete side-effect solution for one program.
type Analysis struct {
	// Prog is the analyzed program model.
	Prog *ir.Program
	// Mod and Use are the two flow-insensitive problems' full results
	// (RMOD/IMOD+/GMOD/DMOD and the USE-side analogs).
	Mod, Use *core.Result
	// Aliases is the Section 5 alias-pair analysis.
	Aliases *alias.Analysis
	// SecMod and SecUse are the Section 6 regular-section results.
	SecMod, SecUse *section.Result
	// ModSets and UseSets are the final per-call-site answers,
	// DMOD/DUSE extended with aliases (equation (2) + Section 5).
	ModSets, UseSets []*bitset.Set
	// Stages holds the per-stage profile when the analysis ran with
	// Options.Profile; nil otherwise. Stage names are hierarchical:
	// "mod.gmod", "use.rmod", "sections.mod.formals", "factor.mod", …
	Stages *prof.Profile
}

// GMODWork sums the findgmod work counters of both problems across
// every nesting level: the Theorem-2 step counts plus the
// condensed-storage counters (CondensedRows materialized, zero-copy
// SharedRowHits). modan -profile and the modand metrics read it.
func (a *Analysis) GMODWork() core.GMODStats {
	var t core.GMODStats
	for _, r := range []*core.Result{a.Mod, a.Use} {
		if r == nil {
			continue
		}
		for _, s := range r.GMODStats {
			t.Accumulate(s)
		}
	}
	return t
}

// Analyze parses, checks, and analyzes MiniPL source text, running
// both the MOD and USE problems, alias factoring, and regular section
// analysis. Procedures unreachable from the main program are pruned
// first, as the paper assumes.
func Analyze(src string) (*Analysis, error) {
	return AnalyzeWith(src, Options{})
}

// AnalyzeWith is Analyze with explicit scheduling options.
func AnalyzeWith(src string, opts Options) (*Analysis, error) {
	return AnalyzeContext(context.Background(), src, opts)
}

// AnalyzeProgram analyzes an already-built program model without
// pruning. It panics with the pipeline's error if the analysis fails.
func AnalyzeProgram(prog *ir.Program) *Analysis {
	return AnalyzeProgramWith(prog, Options{})
}

// AnalyzeProgramWith analyzes an already-built program model without
// pruning, scheduling independent stages according to opts. It is
// AnalyzeProgramContext without a deadline, for callers that want
// fail-fast behavior: it panics with the pipeline's error.
func AnalyzeProgramWith(prog *ir.Program, opts Options) *Analysis {
	return must(AnalyzeProgramContext(context.Background(), prog, opts))
}

// must unwraps the result of a hardened entry point for the plain
// forms without an error return, panicking with the error.
func must[T any](v T, err error) T {
	if err != nil {
		panic(err)
	}
	return v
}

// Release returns the analysis's arena-backed set storage to a
// process-wide pool for reuse by a later analysis. It is optional —
// dropping the Analysis frees everything through the collector — but a
// loop that analyzes many programs and fully consumes each result
// before the next (the batch engine's steady state) recycles warm
// slabs this way instead of growing fresh ones per program. After
// Release no set previously obtained from the Analysis may be used;
// the set-valued fields are nilled to fail fast. Under AllocHybrid or
// AllocDense there is nothing pooled and Release is a no-op.
func (a *Analysis) Release() {
	if a == nil {
		return
	}
	a.ModSets, a.UseSets = nil, nil
	a.SecMod, a.SecUse = nil, nil
	a.Mod.Release()
	a.Use.Release()
}

// BatchResult is one program's outcome from AnalyzeAll: either a
// completed Analysis or the parse/semantic error that stopped it.
type BatchResult struct {
	Analysis *Analysis
	Err      error
	// Degraded reports that the first attempt failed with a captured
	// panic and the Analysis came from AnalyzeAllContext's fallback
	// retry (sequential, dense allocation, no pooled storage).
	Degraded bool
}

// AnalyzeAll analyzes many source texts concurrently on a bounded
// worker pool and returns one result per input, in input order. Each
// program's own stage pipeline runs sequentially — with many programs
// in flight, program-level parallelism already saturates the workers,
// and nesting stage-level goroutines underneath would only oversubscribe
// the pool. A failed parse disables only that entry; the others are
// unaffected. It is AnalyzeAllContext without a deadline.
func AnalyzeAll(srcs []string, opts Options) []BatchResult {
	return AnalyzeAllContext(context.Background(), srcs, opts)
}

// AnalyzeAllPrograms is AnalyzeAll for callers that already hold
// program models: the same bounded worker pool and per-program
// sequential pipeline, without the parser in front. Programs are
// analyzed as given (prune first if needed). It panics with the joined
// errors if any analysis fails.
func AnalyzeAllPrograms(progs []*ir.Program, opts Options) []*Analysis {
	return must(analyzeAllPrograms(context.Background(), progs, opts))
}

// perProgram derives the options each program of a batch runs under:
// the caller's options with the pipeline forced sequential and Workers
// cleared, since the batch pool owns the parallelism.
func (o Options) perProgram() Options {
	o.Sequential, o.Workers = true, 0
	return o
}

// Procedures returns the procedure names in declaration order (main
// first, as "$main").
func (a *Analysis) Procedures() []string {
	out := make([]string, 0, a.Prog.NumProcs())
	for _, p := range a.Prog.Procs {
		out = append(out, p.Name)
	}
	return out
}

func (a *Analysis) proc(name string) (*ir.Procedure, error) {
	p := a.Prog.Proc(name)
	if p == nil {
		return nil, fmt.Errorf("sideeffect: no procedure %q", name)
	}
	return p, nil
}

// MOD returns GMOD(proc): the qualified names of variables whose
// values an invocation of proc may modify.
func (a *Analysis) MOD(proc string) ([]string, error) {
	p, err := a.proc(proc)
	if err != nil {
		return nil, err
	}
	return report.VarNames(a.Prog, a.Mod.GMOD[p.ID]), nil
}

// USE returns GUSE(proc): the qualified names of variables whose
// values an invocation of proc may use.
func (a *Analysis) USE(proc string) ([]string, error) {
	p, err := a.proc(proc)
	if err != nil {
		return nil, err
	}
	return report.VarNames(a.Prog, a.Use.GMOD[p.ID]), nil
}

// RMOD returns the names of proc's by-reference formal parameters that
// an invocation may modify.
func (a *Analysis) RMOD(proc string) ([]string, error) {
	p, err := a.proc(proc)
	if err != nil {
		return nil, err
	}
	var out []string
	for _, f := range p.Formals {
		if a.Mod.RMOD.Of(f) {
			out = append(out, f.Name)
		}
	}
	return out, nil
}

// CallSite describes one call site's final analysis results.
type CallSite struct {
	// Caller and Callee are procedure names; Pos is the source
	// position ("line:col") when the program came from source.
	Caller, Callee, Pos string
	// MOD and USE are the per-call-site sets after alias factoring.
	MOD, USE []string
	// Sections lists the array-subregion refinements for MOD, e.g.
	// "A(*, j)".
	Sections []string
}

// CallSites returns the final per-call-site results in program order.
func (a *Analysis) CallSites() []CallSite {
	out := make([]CallSite, 0, a.Prog.NumSites())
	for _, cs := range a.Prog.Sites {
		c := CallSite{
			Caller: cs.Caller.Name,
			Callee: cs.Callee.Name,
			Pos:    cs.Pos.String(),
			MOD:    report.VarNames(a.Prog, a.ModSets[cs.ID]),
			USE:    report.VarNames(a.Prog, a.UseSets[cs.ID]),
		}
		at := a.SecMod.AtCall(cs)
		ids := make([]int, 0, len(at))
		for id := range at {
			ids = append(ids, id)
		}
		sort.Ints(ids)
		for _, id := range ids {
			c.Sections = append(c.Sections, at[id].Format(a.Prog.Vars[id].Name, a.Prog.Vars))
		}
		out = append(out, c)
	}
	return out
}

// Report renders the complete human-readable analysis report.
func (a *Analysis) Report() string {
	return report.Full(a.Mod, a.Use, a.Aliases, a.SecMod)
}
