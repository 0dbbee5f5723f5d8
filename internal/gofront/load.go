package gofront

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
)

// sourceFile is one named Go source text.
type sourceFile struct {
	name string // display / base name
	src  string
}

// Load expands the given package patterns ("./...", a directory, or a
// single .go file), loads each matched package, and lowers it. The
// result is sorted by display path and deterministic for a fixed file
// system state. A pattern matching no Go packages is an error; a
// package that fails to *parse* is an error; type errors are tolerated
// and degrade confidence instead.
func Load(patterns []string) ([]*Package, error) {
	dirs, singles, err := Expand(patterns)
	if err != nil {
		return nil, err
	}
	var pkgs []*Package
	for _, dir := range dirs {
		p, err := LoadDir(dir)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, p)
	}
	for _, file := range singles {
		b, err := os.ReadFile(file)
		if err != nil {
			return nil, fmt.Errorf("gofront: %w", err)
		}
		p, err := analyzeFiles(file, filepath.Dir(file), []sourceFile{{name: filepath.Base(file), src: string(b)}})
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, p)
	}
	if len(pkgs) == 0 {
		return nil, fmt.Errorf("gofront: no Go packages match %v", patterns)
	}
	sort.Slice(pkgs, func(i, j int) bool { return pkgs[i].Path < pkgs[j].Path })
	return pkgs, nil
}

// Expand resolves package patterns to package directories and
// single-file targets. "dir/..." walks dir recursively; a directory
// matches itself when it holds non-test .go files; a path ending in
// ".go" is a single-file package. Walks skip testdata, hidden, and
// underscore-prefixed directories, mirroring the go tool.
func Expand(patterns []string) (dirs, singles []string, err error) {
	seen := map[string]bool{}
	addDir := func(dir string) {
		if !seen[dir] {
			seen[dir] = true
			dirs = append(dirs, dir)
		}
	}
	for _, pat := range patterns {
		switch {
		case strings.HasSuffix(pat, ".go"):
			if _, err := os.Stat(pat); err != nil {
				return nil, nil, fmt.Errorf("gofront: %w", err)
			}
			singles = append(singles, pat)
		case strings.HasSuffix(pat, "..."):
			root := strings.TrimSuffix(pat, "...")
			root = strings.TrimSuffix(root, "/")
			if root == "" {
				root = "."
			}
			err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
				if err != nil {
					return err
				}
				if !d.IsDir() {
					return nil
				}
				base := filepath.Base(path)
				if path != root && (base == "testdata" || strings.HasPrefix(base, ".") || strings.HasPrefix(base, "_")) {
					return filepath.SkipDir
				}
				if hasGoFiles(path) {
					addDir(path)
				}
				return nil
			})
			if err != nil {
				return nil, nil, fmt.Errorf("gofront: %w", err)
			}
		default:
			fi, err := os.Stat(pat)
			if err != nil {
				return nil, nil, fmt.Errorf("gofront: %w", err)
			}
			if !fi.IsDir() {
				return nil, nil, fmt.Errorf("gofront: %s is not a directory, a .go file, or a ... pattern", pat)
			}
			if !hasGoFiles(pat) {
				return nil, nil, fmt.Errorf("gofront: no non-test .go files in %s", pat)
			}
			addDir(pat)
		}
	}
	sort.Strings(dirs)
	sort.Strings(singles)
	return dirs, singles, nil
}

func hasGoFiles(dir string) bool {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return false
	}
	for _, e := range ents {
		if isSourceName(e.Name()) {
			return true
		}
	}
	return false
}

// isSourceName reports whether name is an analyzable Go source file:
// .go, not a test file, not generated-looking hidden/underscore names.
func isSourceName(name string) bool {
	return strings.HasSuffix(name, ".go") &&
		!strings.HasSuffix(name, "_test.go") &&
		!strings.HasPrefix(name, ".") &&
		!strings.HasPrefix(name, "_")
}

// LoadDir loads and lowers the package in one directory.
func LoadDir(dir string) (*Package, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("gofront: %w", err)
	}
	var files []sourceFile
	for _, e := range ents {
		if e.IsDir() || !isSourceName(e.Name()) {
			continue
		}
		b, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			return nil, fmt.Errorf("gofront: %w", err)
		}
		files = append(files, sourceFile{name: e.Name(), src: string(b)})
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("gofront: no non-test .go files in %s", dir)
	}
	return analyzeFiles(dir, dir, files)
}

// AnalyzeSource lowers a single in-memory Go file as its own package.
// name is the display name used in reports and positions.
func AnalyzeSource(name, src string) (*Package, error) {
	return analyzeFiles(name, "", []sourceFile{{name: name, src: src}})
}

// Hash computes the content-addressed package identity: language tag
// and lowering version, then each (name, content) pair in slice order.
func Hash(files []sourceFile) string {
	h := sha256.New()
	fmt.Fprintf(h, "lang=go\x00v%d\x00", LoweringVersion)
	for _, f := range files {
		fmt.Fprintf(h, "%s\x00%d\x00%s", f.name, len(f.src), f.src)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// analyzeFiles parses, type-checks (leniently), and lowers one
// package. Files must be sorted by name before hashing/lowering so two
// loads of the same directory are byte-identical.
func analyzeFiles(displayPath, dir string, files []sourceFile) (*Package, error) {
	sort.Slice(files, func(i, j int) bool { return files[i].name < files[j].name })

	fset := token.NewFileSet()
	var asts []*ast.File
	var parseErrs []string
	for _, f := range files {
		af, err := parser.ParseFile(fset, f.name, f.src, parser.SkipObjectResolution)
		if err != nil {
			parseErrs = append(parseErrs, err.Error())
			continue
		}
		asts = append(asts, af)
	}
	if len(asts) == 0 {
		return nil, fmt.Errorf("gofront: %s: %s", displayPath, strings.Join(parseErrs, "; "))
	}
	// Mixed package clauses in one directory (package x + package
	// x_test leftovers, or main + lib): keep the majority clause so
	// the type checker sees one package.
	asts = majorityPackage(asts)

	pkgName := asts[0].Name.Name
	typeErrs := 0
	imp := newLenientImporter(fset, dir)
	conf := types.Config{
		Importer:         imp,
		FakeImportC:      true,
		IgnoreFuncBodies: false,
		Error:            func(error) { typeErrs++ },
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
	}
	// Check never fails fatally here: the Error hook swallows
	// diagnostics and the lowering degrades around missing info.
	tpkg, _ := conf.Check(pkgName, fset, asts, info)

	low := newLowerer(displayPath, fset, info, tpkg)
	low.importBroken = imp.failed
	prog, notes, err := low.lower(asts)
	if err != nil {
		return nil, fmt.Errorf("gofront: %s: %w", displayPath, err)
	}
	names := make([]string, len(files))
	for i, f := range files {
		names[i] = f.name
	}
	return &Package{
		Name:       pkgName,
		Dir:        dir,
		Path:       displayPath,
		Files:      names,
		Hash:       Hash(files),
		Prog:       prog,
		Notes:      notes,
		TypeErrors: typeErrs + len(parseErrs),
	}, nil
}

// majorityPackage keeps the files of the most common package clause
// (ties break to the lexically smaller name for determinism).
func majorityPackage(asts []*ast.File) []*ast.File {
	count := map[string]int{}
	for _, f := range asts {
		count[f.Name.Name]++
	}
	best := ""
	for name, n := range count {
		if best == "" || n > count[best] || n == count[best] && name < best {
			best = name
		}
	}
	var out []*ast.File
	for _, f := range asts {
		if f.Name.Name == best {
			out = append(out, f)
		}
	}
	return out
}

// lenientImporter resolves imports without failing the load: standard
// library packages come from the process-wide stdlib importer, others
// are type-checked from source through this importer on demand, and
// anything unresolvable becomes an empty, incomplete package whose
// members the lowering treats as unknown (degrading confidence).
type lenientImporter struct {
	fset    *token.FileSet
	dir     string // directory of the package being loaded ("" = none)
	modRoot string // module root directory ("" = none found)
	modPath string // module path from go.mod
	memo    map[string]*types.Package
	// failed records import paths that fell back to an incomplete
	// package, sorted on read.
	failed map[string]bool
}

func newLenientImporter(fset *token.FileSet, dir string) *lenientImporter {
	li := &lenientImporter{
		fset:   fset,
		dir:    dir,
		memo:   map[string]*types.Package{},
		failed: map[string]bool{},
	}
	li.modRoot, li.modPath = findModule(dir)
	return li
}

// stdlib is the process-wide source importer for the standard library,
// whose types depend only on the toolchain and GOROOT: every load shares
// one checked copy. The mutex guards the importer's package map; the
// packages it returns are complete and only read.
var stdlib struct {
	once sync.Once
	mu   sync.Mutex
	imp  types.ImporterFrom
}

// importStd returns a standard-library package, type-checked on its
// first request in the process, or nil if it does not type-check.
func importStd(path string) *types.Package {
	stdlib.once.Do(func() {
		stdlib.imp = importer.ForCompiler(token.NewFileSet(), "source", nil).(types.ImporterFrom)
	})
	stdlib.mu.Lock()
	defer stdlib.mu.Unlock()
	if p, err := stdlib.imp.ImportFrom(path, filepath.Join(build.Default.GOROOT, "src"), 0); err == nil {
		return p
	}
	return nil
}

// isStd reports whether path is a standard-library package: its first
// element has no dot (the go command's rule) and GOROOT holds it.
func isStd(path string) bool {
	first, _, _ := strings.Cut(path, "/")
	fi, err := os.Stat(filepath.Join(build.Default.GOROOT, "src", filepath.FromSlash(path)))
	return !strings.Contains(first, ".") && err == nil && fi.IsDir()
}

// findModule walks up from dir to the nearest go.mod and returns its
// directory and module path.
func findModule(dir string) (root, path string) {
	if dir == "" {
		return "", ""
	}
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "", ""
	}
	for d := abs; ; {
		b, err := os.ReadFile(filepath.Join(d, "go.mod"))
		if err == nil {
			for _, line := range strings.Split(string(b), "\n") {
				line = strings.TrimSpace(line)
				if rest, ok := strings.CutPrefix(line, "module"); ok {
					return d, strings.Trim(strings.TrimSpace(rest), `"`)
				}
			}
			return d, ""
		}
		parent := filepath.Dir(d)
		if parent == d {
			return "", ""
		}
		d = parent
	}
}

func (li *lenientImporter) Import(path string) (*types.Package, error) {
	return li.ImportFrom(path, li.dir, 0)
}

func (li *lenientImporter) ImportFrom(path, srcDir string, mode types.ImportMode) (*types.Package, error) {
	if p, ok := li.memo[path]; ok {
		return p, nil
	}
	// Incomplete stand-in, memoized first so an import cycle ends here:
	// selections through it fail to type-check (unknown-call degradation).
	name := path
	if i := strings.LastIndexByte(name, '/'); i >= 0 {
		name = name[i+1:]
	}
	stand := types.NewPackage(path, name)
	li.memo[path] = stand
	if p := li.resolve(path, srcDir); p != nil {
		li.memo[path] = p
		return p, nil
	}
	li.failed[path] = true
	return stand, nil
}

func (li *lenientImporter) resolve(path, srcDir string) *types.Package {
	// Module-local import: type-check the subdirectory from source
	// with this same importer.
	if li.modPath != "" && (path == li.modPath || strings.HasPrefix(path, li.modPath+"/")) {
		sub := strings.TrimPrefix(strings.TrimPrefix(path, li.modPath), "/")
		dir := filepath.Join(li.modRoot, filepath.FromSlash(sub))
		return li.checkDir(path, dir)
	}
	if isStd(path) {
		return importStd(path)
	}
	// Others are checked per load, through li so they share stdlib types.
	if abs, err := filepath.Abs(srcDir); err == nil {
		srcDir = abs
	}
	bp, err := build.Import(path, srcDir, 0)
	if err != nil {
		return nil
	}
	return li.check(path, bp.Dir, append(bp.GoFiles, bp.CgoFiles...), true)
}

// checkDir type-checks a module-local dependency just enough to hand
// back its exported type information.
func (li *lenientImporter) checkDir(path, dir string) *types.Package {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil
	}
	var names []string
	for _, e := range ents {
		if !e.IsDir() && isSourceName(e.Name()) {
			names = append(names, e.Name())
		}
	}
	return li.check(path, dir, names, false)
}

// check type-checks the named files of dir as package path on the
// load's file set. A strict check, like the source importer, ignores
// function bodies and rejects the package on any parse or type error;
// a lenient one skips unparsable files and keeps what type-checks.
func (li *lenientImporter) check(path, dir string, names []string, strict bool) *types.Package {
	sort.Strings(names)
	var asts []*ast.File
	for _, name := range names {
		switch af, err := parser.ParseFile(li.fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution); {
		case err == nil:
			asts = append(asts, af)
		case strict:
			return nil
		}
	}
	if len(asts) == 0 {
		return nil
	}
	errs := 0
	conf := types.Config{Importer: li, FakeImportC: true, IgnoreFuncBodies: strict, Error: func(error) { errs++ }}
	pkg, _ := conf.Check(path, li.fset, asts, nil)
	if pkg == nil || strict && errs > 0 {
		return nil
	}
	pkg.MarkComplete()
	return pkg
}
