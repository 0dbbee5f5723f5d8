// Package batch provides the bounded worker pool behind the public
// AnalyzeAll API and the parallel-stage analysis engine. It is a small
// generic utility with no knowledge of the analysis itself, so both
// the root package and the command-line tools can share one
// scheduling policy.
//
// The pool is panic-isolating: a task that panics never crashes the
// process from a worker goroutine. RunCtx converts each panic into a
// *PanicError and keeps running the remaining (independent) tasks;
// Run re-raises the first captured panic on the calling goroutine, so
// legacy callers observe the old propagation semantics while gaining
// a recoverable stack. RunCtx also honors context cancellation:
// undispatched tasks are skipped once the context is done, which is
// what lets a cancelled HTTP request free its worker slots instead of
// grinding through an abandoned batch.
package batch

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
)

// PanicError wraps a panic recovered from a task, preserving the
// original panic value and the stack of the panicking goroutine.
type PanicError struct {
	Value any
	Stack []byte
}

// Error implements error.
func (e *PanicError) Error() string { return fmt.Sprintf("batch: task panicked: %v", e.Value) }

// Workers normalizes a worker-count request: n if positive, otherwise
// GOMAXPROCS — the number of OS threads Go will actually run
// concurrently, which is the right default for the CPU-bound
// bit-vector work this pool carries.
func Workers(n int) int {
	if n > 0 {
		return n
	}
	return runtime.GOMAXPROCS(0)
}

// protect runs t, converting a panic into *PanicError. A re-panicked
// *PanicError passes through unchanged so nested pools keep the
// original stack.
func protect(t func()) (err *PanicError) {
	defer func() {
		if rec := recover(); rec != nil {
			if pe, ok := rec.(*PanicError); ok {
				err = pe
				return
			}
			err = &PanicError{Value: rec, Stack: debug.Stack()}
		}
	}()
	t()
	return nil
}

// RunCtx executes every task, at most Workers(workers) at a time,
// and returns when all dispatched tasks have finished. Panics are
// captured per task (the remaining tasks still run — tasks handed to
// one Run layer are independent by contract) and joined into the
// returned error as *PanicError values. Once ctx is done, tasks not
// yet dispatched are skipped and ctx.Err() joins the result; tasks
// already running are left to finish, so the pool always drains.
//
// With one worker the tasks run sequentially on the calling goroutine
// in order — no goroutines, no nondeterministic interleaving — which
// keeps Sequential mode truly sequential for debugging and
// differential testing.
func RunCtx(ctx context.Context, workers int, tasks []func()) error {
	if ctx == nil {
		ctx = context.Background()
	}
	w := Workers(workers)
	if w == 1 || len(tasks) == 1 {
		var errs []error
		for _, t := range tasks {
			if err := ctx.Err(); err != nil {
				errs = append(errs, err)
				break
			}
			if pe := protect(t); pe != nil {
				errs = append(errs, pe)
			}
		}
		return errors.Join(errs...)
	}
	if w > len(tasks) {
		w = len(tasks)
	}
	var (
		mu   sync.Mutex
		errs []error
	)
	next := make(chan func())
	var wg sync.WaitGroup
	wg.Add(w)
	for i := 0; i < w; i++ {
		go func() {
			defer wg.Done()
			for t := range next {
				if pe := protect(t); pe != nil {
					mu.Lock()
					errs = append(errs, pe)
					mu.Unlock()
				}
			}
		}()
	}
	done := ctx.Done()
	for _, t := range tasks {
		// select picks at random among ready cases, so a context that
		// is already done is checked first: it must never dispatch.
		if ctx.Err() == nil {
			select {
			case <-done:
			case next <- t:
				continue
			}
		}
		mu.Lock()
		errs = append(errs, ctx.Err())
		mu.Unlock()
		break
	}
	close(next)
	wg.Wait()
	return errors.Join(errs...)
}

// Run executes every task, at most Workers(workers) at a time, and
// returns when all have finished. A panicking task is re-panicked on
// the calling goroutine as a *PanicError (never from a worker, which
// would crash the process unrecoverably); the other tasks still
// complete first.
func Run(workers int, tasks []func()) {
	if err := RunCtx(context.Background(), workers, tasks); err != nil {
		var pe *PanicError
		if errors.As(err, &pe) {
			panic(pe)
		}
	}
}

// Map applies f to every item, at most Workers(workers) at a time, and
// returns the results in input order. The index passed to f is the
// item's position in items. Panics propagate as in Run.
func Map[T, R any](workers int, items []T, f func(int, T) R) []R {
	out := make([]R, len(items))
	tasks := make([]func(), len(items))
	for i := range items {
		i := i
		tasks[i] = func() { out[i] = f(i, items[i]) }
	}
	Run(workers, tasks)
	return out
}

// MapCtx is Map with cancellation and panic capture: results are
// returned in input order, with the zero value at every index whose
// task was skipped (context done) or panicked; the joined error
// reports why. A nil error means every slot is populated.
func MapCtx[T, R any](ctx context.Context, workers int, items []T, f func(int, T) R) ([]R, error) {
	out := make([]R, len(items))
	tasks := make([]func(), len(items))
	for i := range items {
		i := i
		tasks[i] = func() { out[i] = f(i, items[i]) }
	}
	err := RunCtx(ctx, workers, tasks)
	return out, err
}
