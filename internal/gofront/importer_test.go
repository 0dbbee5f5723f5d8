package gofront

import (
	"encoding/json"
	"fmt"
	"go/build"
	"path/filepath"
	"sync"
	"testing"
)

// summary renders the load outputs that must not depend on which
// loads ran before or beside this one.
func summary(p *Package) string {
	notes, _ := json.Marshal(p.Notes) // plain strings and ints: cannot fail
	return fmt.Sprintf("%s %d %s %v", p.Path, p.TypeErrors, notes, p.Degraded())
}

// TestStdlibImporterConcurrent runs single-package, in-memory and
// whole-module loads at once over standard-library packages with
// shared and generic-heavy imports, and requires each to match the
// same load run alone. Run it under -race: the loads share one
// stdlib importer and read its packages concurrently.
func TestStdlibImporterConcurrent(t *testing.T) {
	goroot := filepath.Join(build.Default.GOROOT, "src")
	const src = `package p

import (
	"iter"
	"maps"
	"slices"
	"sync/atomic"
)

var hits atomic.Int64

func Keys(m map[string]int) []string { return slices.Sorted(maps.Keys(m)) }

func Each(s []int) iter.Seq[int] {
	return func(yield func(int) bool) {
		for _, v := range s {
			hits.Add(1)
			if !yield(v) {
				return
			}
		}
	}
}

func Grow(p *atomic.Pointer[[]int], v int) {
	s := slices.Clone(*p.Load())
	p.Store(&s)
	s = append(s, v)
}
`
	loads := map[string]func() (*Package, error){
		"source": func() (*Package, error) { return AnalyzeSource("p.go", src) },
		"module": func() (*Package, error) {
			return LoadModule(filepath.Join("..", "..", "testdata", "gofront", "mod", "crosspkg"), nil)
		},
	}
	for _, path := range []string{"slices", "maps", "sync/atomic", "iter"} {
		dir := filepath.Join(goroot, filepath.FromSlash(path))
		loads[path] = func() (*Package, error) {
			ps, err := Load([]string{dir})
			if err != nil {
				return nil, err
			}
			return ps[0], nil
		}
	}

	const rounds = 3
	var (
		wg  sync.WaitGroup
		mu  sync.Mutex
		got = map[string][]string{}
	)
	for i := 0; i < rounds; i++ {
		for name, load := range loads {
			wg.Add(1)
			go func() {
				defer wg.Done()
				p, err := load()
				if err != nil {
					t.Errorf("%s: %v", name, err)
					return
				}
				mu.Lock()
				got[name] = append(got[name], summary(p))
				mu.Unlock()
			}()
		}
	}
	wg.Wait()
	for name, load := range loads {
		p, err := load()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		want := summary(p)
		for _, g := range got[name] {
			if g != want {
				t.Errorf("%s: concurrent load differs from a lone one\n got: %s\nwant: %s", name, g, want)
			}
		}
		if name == "source" && p.TypeErrors != 0 {
			t.Errorf("source: %d type errors, want 0", p.TypeErrors)
		}
	}
}

// TestThirdPartySharesStdlibTypes loads a file whose GOPATH dependency
// takes a *bufio.Reader: the dependency is checked per load, but
// through the load's own importer, so its bufio is the shared one the
// file sees and passing a reader across type-checks.
func TestThirdPartySharesStdlibTypes(t *testing.T) {
	gopath, err := filepath.Abs(filepath.Join("testdata", "gopath"))
	if err != nil {
		t.Fatal(err)
	}
	t.Setenv("GO111MODULE", "off")
	old := build.Default.GOPATH
	build.Default.GOPATH = gopath
	t.Cleanup(func() { build.Default.GOPATH = old })

	p, err := AnalyzeSource("count.go", `package p

import (
	"bufio"
	"os"

	"example.com/shelf"
)

func Count() int { return shelf.Lines(bufio.NewReader(os.Stdin)) }
`)
	if err != nil {
		t.Fatal(err)
	}
	if p.TypeErrors != 0 {
		t.Errorf("%d type errors, want 0: the dependency saw a different bufio", p.TypeErrors)
	}
}

// TestImportCycleTerminates loads a module whose packages import each
// other. Go forbids the cycle, so the loads may degrade, but they must
// return instead of recursing without end.
func TestImportCycleTerminates(t *testing.T) {
	root := filepath.Join("testdata", "cycle")
	if _, err := LoadDir(filepath.Join(root, "a")); err != nil {
		t.Errorf("LoadDir: %v", err)
	}
	if _, err := LoadModule(root, nil); err != nil {
		t.Errorf("LoadModule: %v", err)
	}
}
