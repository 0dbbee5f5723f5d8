package sideeffect

import (
	"context"
	"fmt"
	"path/filepath"
	"strings"

	"sideeffect/internal/gofront"
	"sideeffect/internal/ir"
)

// GoResult pairs one lowered Go package with its completed analysis.
type GoResult struct {
	Pkg      *gofront.Package
	Analysis *Analysis
}

// AnalyzeGoPackages loads real Go packages (patterns: "./..."-style
// walks, directories, or single .go files), lowers each onto the ir
// with the conservative Banning-compatible cut (see internal/gofront),
// and analyzes them as a batch with the same worker-pool and
// allocation options as MiniPL batches. Results are sorted by package
// path and deterministic for a fixed file tree.
func AnalyzeGoPackages(patterns []string, opts Options) ([]GoResult, error) {
	if opts.GoModule {
		r, err := AnalyzeGoModule(moduleRootHint(patterns), patterns, opts)
		if err != nil {
			return nil, err
		}
		return []GoResult{r}, nil
	}
	pkgs, err := gofront.Load(patterns)
	if err != nil {
		return nil, err
	}
	progs := make([]*ir.Program, len(pkgs))
	for i, p := range pkgs {
		progs[i] = p.Prog
	}
	analyses, err := analyzeAllPrograms(context.Background(), progs, opts)
	if err != nil {
		return nil, err
	}
	out := make([]GoResult, len(pkgs))
	for i := range pkgs {
		out[i] = GoResult{Pkg: pkgs[i], Analysis: analyses[i]}
	}
	return out, nil
}

// AnalyzeGoModule analyzes a whole Go module as one shared program:
// the patterns' packages plus their module-local import closure lower
// together (the go.mod is found at or above root), so cross-package
// calls bind to real procedures and interface calls on module-defined
// interfaces devirtualize to the closed implementation set.
func AnalyzeGoModule(root string, patterns []string, opts Options) (GoResult, error) {
	pkg, err := gofront.LoadModule(root, patterns)
	if err != nil {
		return GoResult{}, err
	}
	return analyzeGoPackage(pkg, opts)
}

// moduleRootHint picks the directory LoadModule starts its go.mod
// search from, given CLI-style package patterns.
func moduleRootHint(patterns []string) string {
	if len(patterns) == 0 {
		return "."
	}
	p := strings.TrimSuffix(patterns[0], "...")
	p = strings.TrimSuffix(p, "/")
	if p == "" {
		return "."
	}
	if strings.HasSuffix(p, ".go") {
		return filepath.Dir(p)
	}
	return p
}

// AnalyzeGoSource lowers and analyzes a single in-memory Go file as
// its own package. name is the display name used in reports.
func AnalyzeGoSource(name, src string, opts Options) (GoResult, error) {
	pkg, err := gofront.AnalyzeSource(name, src)
	if err != nil {
		return GoResult{}, err
	}
	return analyzeGoPackage(pkg, opts)
}

// analyzeGoPackage runs the pipeline on one lowered package.
func analyzeGoPackage(pkg *gofront.Package, opts Options) (GoResult, error) {
	a, err := AnalyzeProgramContext(context.Background(), pkg.Prog, opts)
	if err != nil {
		return GoResult{}, err
	}
	return GoResult{Pkg: pkg, Analysis: a}, nil
}

// GoReport renders the standard analysis report for a Go package,
// followed by the per-function lowering-confidence table (the sound
// degradations the frontend applied).
func (r GoResult) GoReport() string {
	if r.Analysis == nil || r.Pkg == nil {
		return ""
	}
	return r.Analysis.Report() + "\n" + r.Pkg.ConfidenceReport()
}

// Release recycles the analysis scratch state (see Analysis.Release).
func (r GoResult) Release() {
	if r.Analysis != nil {
		r.Analysis.Release()
	}
}

// String identifies the result by package path and hash prefix.
func (r GoResult) String() string {
	if r.Pkg == nil {
		return "<nil>"
	}
	h := r.Pkg.Hash
	if len(h) > 12 {
		h = h[:12]
	}
	return fmt.Sprintf("%s@%s", r.Pkg.Path, h)
}
