package core

import (
	"context"
	"errors"
	"testing"

	"sideeffect/internal/arena"
	"sideeffect/internal/faultinject"
	"sideeffect/internal/workload"
)

// TestAnalyzeCtxCancelReturnsArena proves the cancellation contract: a
// cancelled analysis reports ctx.Err() and its arena goes straight
// back to the pool (the sets never escaped), so cancelled requests
// cannot leak slab storage.
func TestAnalyzeCtxCancelReturnsArena(t *testing.T) {
	prog := workload.Random(workload.DefaultConfig(20, 1))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	before := arena.Stats()
	r, err := AnalyzeCtx(ctx, prog, Mod, Options{})
	if r != nil || !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled AnalyzeCtx = %v, %v", r, err)
	}
	after := arena.Stats()
	if gets, puts := after.Gets-before.Gets, after.Puts-before.Puts; gets != puts {
		t.Fatalf("cancelled analysis leaked its arena: %d gets, %d puts", gets, puts)
	}
}

// TestAnalyzeCtxInjectedErrorAborts drives an error-only injector at
// rate 1: the very first stage boundary must abort cleanly with the
// injected error and no pooled-state leak.
func TestAnalyzeCtxInjectedErrorAborts(t *testing.T) {
	prog := workload.Random(workload.DefaultConfig(10, 2))
	inj := faultinject.New(faultinject.Config{Rate: 1, Seed: 1, Kinds: []faultinject.Kind{faultinject.KindError}})
	before := arena.Stats()
	r, err := AnalyzeCtx(context.Background(), prog, Use, Options{Faults: inj})
	if r != nil || err == nil {
		t.Fatalf("injected error not reported: %v, %v", r, err)
	}
	var ie *faultinject.InjectedError
	if !errors.As(err, &ie) {
		t.Fatalf("error %v does not unwrap to InjectedError", err)
	}
	after := arena.Stats()
	if gets, puts := after.Gets-before.Gets, after.Puts-before.Puts; gets != puts {
		t.Fatalf("aborted analysis leaked its arena: %d gets, %d puts", gets, puts)
	}
}

// TestAnalyzeCtxPanicPoisonsArena proves the arena-safe recovery path:
// an injected panic propagates to the caller, and the arena that was
// checked out for the panicking analysis is poisoned so Put refuses to
// recycle it.
func TestAnalyzeCtxPanicPoisonsArena(t *testing.T) {
	prog := workload.Random(workload.DefaultConfig(10, 3))
	inj := faultinject.New(faultinject.Config{Rate: 1, Seed: 1, Kinds: []faultinject.Kind{faultinject.KindPanic}})
	before := arena.Stats()
	var recovered any
	func() {
		defer func() { recovered = recover() }()
		_, _ = AnalyzeCtx(context.Background(), prog, Mod, Options{Faults: inj})
	}()
	if recovered == nil {
		t.Fatal("injected panic did not propagate")
	}
	if _, ok := recovered.(*faultinject.InjectedPanic); !ok {
		t.Fatalf("recovered %T, want *faultinject.InjectedPanic", recovered)
	}
	after := arena.Stats()
	if after.Poisoned <= before.Poisoned {
		t.Fatal("panicking analysis did not poison its arena")
	}
	if after.PoisonedReuse != 0 {
		t.Fatal("a poisoned arena re-entered circulation")
	}
}

// TestAnalyzeCtxIdentity: the guarded pipeline with a healthy context
// and no injector must produce results byte-identical to Analyze.
func TestAnalyzeCtxIdentity(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		prog := workload.Random(workload.DefaultConfig(15, 100+seed))
		want := Analyze(prog, Mod, Options{})
		got, err := AnalyzeCtx(context.Background(), prog, Mod, Options{})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		for _, p := range prog.Procs {
			if !got.GMOD[p.ID].Equal(want.GMOD[p.ID]) {
				t.Fatalf("seed %d: GMOD(%s) differs under AnalyzeCtx", seed, p.Name)
			}
		}
		got.Release()
		want.Release()
	}
}

// TestAnalyzeCondensedCancelled: the condensed entry point runs the
// same stage runner as AnalyzeCtx, so a cancelled context stops it
// with ctx.Err().
func TestAnalyzeCondensedCancelled(t *testing.T) {
	prog := workload.Random(workload.DefaultConfig(20, 4))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	r, err := AnalyzeCondensed(ctx, prog, Mod, Options{})
	if r != nil || !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled AnalyzeCondensed = %v, %v", r, err)
	}
}
