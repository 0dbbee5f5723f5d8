package sideeffect

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"strings"
	"testing"

	"sideeffect/internal/faultinject"
	"sideeffect/internal/ir"
	"sideeffect/internal/workload"
)

// errorFaults returns options whose injector fails every fault point
// with *faultinject.InjectedError.
func errorFaults() Options {
	return Options{Faults: faultinject.New(faultinject.Config{
		Rate: 1, Seed: 1, Kinds: []faultinject.Kind{faultinject.KindError},
	})}
}

// panicValue runs f, which must panic, and returns the panic value as
// an error.
func panicValue(f func()) (err error) {
	defer func() {
		switch rec := recover().(type) {
		case nil:
			err = errors.New("no panic")
		case error:
			err = rec
		default:
			err = fmt.Errorf("non-error panic value %v", rec)
		}
	}()
	f()
	return nil
}

// TestSinglePipelineFaults is the guard that every public entry point
// runs the one hardened pipeline: under an injector that fails every
// fault point, each must surface *faultinject.InjectedError — as its
// error return, as BatchResult.Err, or as the panic value of a form
// without an error return. A second copy of a pipeline body that
// drops Options.Faults fails its row. Analyze takes no Options; it is
// AnalyzeWith(src, Options{}).
func TestSinglePipelineFaults(t *testing.T) {
	src := chaosSrc(t, 7)
	prog := func() *ir.Program { return workload.Random(workload.DefaultConfig(15, 7)) }
	const goSrc = "package p\n\nvar g int\n\nfunc f() { g = 1 }\n"
	crosspkg := filepath.Join("testdata", "gofront", "mod", "crosspkg")
	edit := func(newSrc string) error {
		s, err := NewSession(incrSrc, Options{})
		if err != nil {
			return fmt.Errorf("setup: %v", err)
		}
		defer s.Close()
		s.opts = errorFaults()
		_, err = s.Edit(newSrc)
		return err
	}
	rows := []struct {
		name string
		run  func() error
	}{
		{"AnalyzeWith", func() error { _, err := AnalyzeWith(src, errorFaults()); return err }},
		{"AnalyzeContext", func() error { _, err := AnalyzeContext(context.Background(), src, errorFaults()); return err }},
		{"AnalyzeProgramWith", func() error {
			return panicValue(func() { AnalyzeProgramWith(prog(), errorFaults()) })
		}},
		{"AnalyzeProgramContext", func() error {
			_, err := AnalyzeProgramContext(context.Background(), prog(), errorFaults())
			return err
		}},
		{"NewSession", func() error { _, err := NewSession(src, errorFaults()); return err }},
		{"Session.Edit/incremental", func() error {
			return edit(strings.Replace(incrSrc, "x := 1", "x := 1; h := 2", 1))
		}},
		{"Session.Edit/full", func() error { return edit(src) }},
		{"AnalyzeAll", func() error { return AnalyzeAll([]string{src, src}, errorFaults())[1].Err }},
		{"AnalyzeAllContext", func() error {
			return AnalyzeAllContext(context.Background(), []string{src}, errorFaults())[0].Err
		}},
		{"AnalyzeAllPrograms", func() error {
			return panicValue(func() { AnalyzeAllPrograms([]*ir.Program{prog(), prog()}, errorFaults()) })
		}},
		{"AnalyzeGoSource", func() error { _, err := AnalyzeGoSource("p.go", goSrc, errorFaults()); return err }},
		{"AnalyzeGoModule", func() error { _, err := AnalyzeGoModule(crosspkg, nil, errorFaults()); return err }},
		{"AnalyzeGoPackages", func() error {
			_, err := AnalyzeGoPackages([]string{filepath.Join("testdata", "gofront", "pure")}, errorFaults())
			return err
		}},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			err := row.run()
			var ie *faultinject.InjectedError
			if !errors.As(err, &ie) {
				t.Fatalf("got %v, want an error wrapping *faultinject.InjectedError", err)
			}
		})
	}
}

// TestAnalyzeAllHonorsProfile checks that the batch entry points derive
// each program's options from the caller's: Profile survives into
// every entry's Analysis.Stages.
func TestAnalyzeAllHonorsProfile(t *testing.T) {
	srcs := []string{chaosSrc(t, 1), chaosSrc(t, 2), chaosSrc(t, 3)}
	for i, r := range AnalyzeAll(srcs, Options{Profile: true}) {
		if r.Err != nil {
			t.Fatalf("entry %d: %v", i, r.Err)
		}
		if r.Analysis.Stages == nil {
			t.Fatalf("entry %d: Profile dropped, Stages is nil", i)
		}
	}
	progs := []*ir.Program{workload.Random(workload.DefaultConfig(15, 1))}
	for i, a := range AnalyzeAllPrograms(progs, Options{Profile: true}) {
		if a.Stages == nil {
			t.Fatalf("program %d: Profile dropped, Stages is nil", i)
		}
	}
}
