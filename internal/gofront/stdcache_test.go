package gofront_test

import (
	"encoding/json"
	"fmt"
	"go/build"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"sort"
	"testing"

	"sideeffect"
	"sideeffect/internal/gofront"
	"sideeffect/internal/lint"
)

// coldPassEnv names the file the cold-pass helper process writes its
// renderings to; the helper test does nothing when it is unset.
const coldPassEnv = "GOFRONT_COLD_PASS_OUT"

// fixture is one load target of the cache tests: a package directory,
// a whole module, or a single file analyzed from memory.
type fixture struct {
	kind, path string
}

// fixtures lists every testdata/gofront package, the first file of
// each package as an in-memory source, and every module under mod/,
// in name order.
func fixtures(t *testing.T) []fixture {
	t.Helper()
	root := filepath.Join("..", "..", "testdata", "gofront")
	ents, err := os.ReadDir(root)
	if err != nil {
		t.Fatal(err)
	}
	var out []fixture
	for _, e := range ents {
		switch {
		case !e.IsDir() || e.Name() == "golden":
		case e.Name() == "mod":
			mods, err := os.ReadDir(filepath.Join(root, "mod"))
			if err != nil {
				t.Fatal(err)
			}
			for _, m := range mods {
				out = append(out, fixture{"module", filepath.Join(root, "mod", m.Name())})
			}
		default:
			dir := filepath.Join(root, e.Name())
			files, err := filepath.Glob(filepath.Join(dir, "*.go"))
			if err != nil || len(files) == 0 {
				t.Fatalf("%s: no Go files (%v)", dir, err)
			}
			sort.Strings(files)
			out = append(out, fixture{"package", dir}, fixture{"source", files[0]})
		}
	}
	if len(out) < 20 {
		t.Fatalf("found %d fixtures, want >= 20", len(out))
	}
	return out
}

// render analyzes one fixture and returns every output a user can
// see: the text report, lint text/JSON/SARIF, the confidence notes,
// the type-error count and the degraded list.
func render(t *testing.T, f fixture) string {
	t.Helper()
	var (
		r   sideeffect.GoResult
		err error
	)
	switch f.kind {
	case "module":
		r, err = sideeffect.AnalyzeGoModule(f.path, nil, sideeffect.Options{})
	case "source":
		var b []byte
		if b, err = os.ReadFile(f.path); err == nil {
			r, err = sideeffect.AnalyzeGoSource(filepath.Base(f.path), string(b), sideeffect.Options{})
		}
	default:
		var rs []sideeffect.GoResult
		if rs, err = sideeffect.AnalyzeGoPackages([]string{f.path}, sideeffect.Options{}); err == nil {
			r = rs[0]
		}
	}
	if err != nil {
		t.Fatalf("%s %s: %v", f.kind, f.path, err)
	}
	defer r.Release()
	rep, err := r.Analysis.Lint(lint.Config{})
	if err != nil {
		t.Fatal(err)
	}
	files := []lint.FileReport{{File: r.Pkg.Path, Report: rep}}
	lintJSON, err := lint.JSON(files)
	if err != nil {
		t.Fatal(err)
	}
	sarif, err := lint.SARIF(files)
	if err != nil {
		t.Fatal(err)
	}
	notes, err := json.Marshal(r.Pkg.Notes)
	if err != nil {
		t.Fatal(err)
	}
	return fmt.Sprintf("%s\n--\n%s\n--\n%s\n--\n%s\n--\nnotes %s\ntype errors %d\ndegraded %q\n",
		r.GoReport(), lint.Text(files), lintJSON, sarif, notes, r.Pkg.TypeErrors, r.Pkg.Degraded())
}

// loadGOROOT loads a standard-library package as a user package,
// which fills the process-wide stdlib cache with its import closure.
func loadGOROOT(t *testing.T, path string) {
	t.Helper()
	if _, err := gofront.LoadDir(filepath.Join(build.Default.GOROOT, "src", path)); err != nil {
		t.Fatal(err)
	}
}

// TestStdlibCacheColdPass is the child half of
// TestStdlibCacheColdWarmIdentical: in a fresh process, so with an
// empty stdlib cache, it renders every fixture in forward order.
func TestStdlibCacheColdPass(t *testing.T) {
	out := os.Getenv(coldPassEnv)
	if out == "" {
		t.Skip("runs as the child process of TestStdlibCacheColdWarmIdentical")
	}
	got := map[string]string{}
	for _, f := range fixtures(t) {
		got[f.kind+" "+f.path] = render(t, f)
	}
	b, err := json.Marshal(got)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(out, b, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestStdlibCacheColdWarmIdentical pins that the process-wide stdlib
// cache changes no output byte: every fixture rendered by a fresh
// process in forward order must equal its rendering here, in reverse
// order, with GOROOT packages loaded before and in between.
func TestStdlibCacheColdWarmIdentical(t *testing.T) {
	out := filepath.Join(t.TempDir(), "cold.json")
	cmd := exec.Command(os.Args[0], "-test.run=^TestStdlibCacheColdPass$", "-test.count=1")
	cmd.Env = append(os.Environ(), coldPassEnv+"="+out)
	if b, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("cold pass: %v\n%s", err, b)
	}
	b, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var cold map[string]string
	if err := json.Unmarshal(b, &cold); err != nil {
		t.Fatal(err)
	}

	fs := fixtures(t)
	slices.Reverse(fs)
	loadGOROOT(t, "bufio")
	for i, f := range fs {
		if i == len(fs)/2 {
			loadGOROOT(t, "regexp")
		}
		key := f.kind + " " + f.path
		want, ok := cold[key]
		if !ok {
			t.Errorf("%s: missing from the cold pass", key)
			continue
		}
		if got := render(t, f); got != want {
			t.Errorf("%s: warm output differs from cold\nwarm:\n%s\ncold:\n%s", key, got, want)
		}
	}
	if len(cold) != len(fs) {
		t.Errorf("cold pass rendered %d fixtures, warm pass %d", len(cold), len(fs))
	}
}

// TestThirdPartyImportNotCached pins the dotted-import fixture's
// notes and type-error count to what the per-load importer produced
// before the stdlib cache existed, on a cold and on a warm load: an
// unresolvable third-party import degrades and is never cached.
func TestThirdPartyImportNotCached(t *testing.T) {
	const wantNotes = `[{"proc":"Render","file":"thirdparty.go","confidence":"degraded","reasons":["calls unanalyzed \"strings\"","dynamic call"]},` +
		`{"proc":"Rename","file":"thirdparty.go","confidence":"degraded","reasons":["calls unanalyzed \"strings\""]},` +
		`{"proc":"Reset","file":"thirdparty.go","confidence":"high"}]`
	dir := filepath.Join("..", "..", "testdata", "gofront", "thirdparty")
	for pass := 0; pass < 2; pass++ {
		p, err := gofront.LoadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		notes, err := json.Marshal(p.Notes)
		if err != nil {
			t.Fatal(err)
		}
		if string(notes) != wantNotes || p.TypeErrors != 2 {
			t.Errorf("pass %d: notes %s, %d type errors; want %s, 2", pass, notes, p.TypeErrors, wantNotes)
		}
	}
}
