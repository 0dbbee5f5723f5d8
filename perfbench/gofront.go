package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"go/build"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"sideeffect"
	"sideeffect/internal/gofront"
	"sideeffect/internal/lint"
)

// goPackages are the GOROOT packages the go-frontend workload cycles
// through, each with the file its edits append to. Each package and
// each file takes about as long as the others to load (0.25–0.3 s on a
// 2-core x86-64 box). Their count is odd, so a class median falls on
// one package's operations rather than between two packages'.
var goPackages = []struct{ path, file string }{
	{"bufio", "bufio.go"},
	{"regexp", "regexp.go"},
	{"regexp/syntax", "parse.go"},
	{"encoding/binary", "binary.go"},
	{"html", "escape.go"},
}

const goQueries = 16 // MOD+USE reads per package visit

var goFrontend = workload{
	name: "go-frontend",
	why: "Go source to answers: gofront.Load type-checks each package and its stdlib imports from source and is " +
		"most of each operation; the only workload where the Go frontend's importer shows",
	mix: fmt.Sprintf("one caller, closed loop, whole cycles over %d GOROOT packages in a fixed order; per package 1 analyze "+
		"(AnalyzeGoPackages), %d query (MOD+USE), 1 lint (LintContext), 1 edit (a function appended to one file, "+
		"re-analyzed with AnalyzeGoSource as the daemon and indexer do for Go)", len(goPackages), goQueries),
	nominal: [numClasses]int{analyze: 20, query: 20 * goQueries, edit: 20, lintOp: 20},
	setup: func(seed int64) (bench, error) {
		return newGoBench(seed, len(goPackages))
	},
}

// goPackage is one package with the answers every later operation on
// it must reproduce.
type goPackage struct {
	path, dir string
	procs     []string
	oracle    *oracle
	digest    string // answer digest of the set-up analysis
	degraded  int    // degraded functions in the set-up load
	findings  int    // set-up lint run
	file      string // display name of the edited file
	fileSrc   string
	// fileDegraded is the degraded count of the edited file analyzed
	// alone; an appended function must not change it.
	fileDegraded int
}

type goBench struct {
	seed int64
	pkgs []*goPackage
}

func newGoBench(seed int64, n int) (*goBench, error) {
	b := &goBench{seed: seed}
	for _, gp := range goPackages[:n] {
		p := &goPackage{path: gp.path, dir: filepath.Join(build.Default.GOROOT, "src", gp.path), file: gp.file}
		rs, err := sideeffect.AnalyzeGoPackages([]string{p.dir}, sideeffect.Options{})
		if err != nil {
			return nil, err
		}
		if len(rs) != 1 {
			return nil, fmt.Errorf("%s: %d packages loaded, want 1", p.path, len(rs))
		}
		a := rs[0].Analysis
		p.oracle = oracleOf(rs[0].Pkg.Prog)
		if summaryDigest(a.Prog, a.Mod.GMOD, a.Use.GMOD) != p.oracle.digest() {
			return nil, fmt.Errorf("%s: MOD/USE disagree with the Banning oracle", p.path)
		}
		p.digest = analysisDigest(a)
		p.degraded = len(rs[0].Pkg.Degraded())
		for _, q := range a.Prog.Procs {
			p.procs = append(p.procs, q.Name)
		}
		rep, err := a.LintContext(context.Background(), lint.Config{})
		if err != nil {
			return nil, err
		}
		p.findings = len(rep.Diags)
		rs[0].Release()
		src, err := os.ReadFile(filepath.Join(p.dir, p.file))
		if err != nil {
			return nil, err
		}
		p.fileSrc = string(src)
		fr, err := sideeffect.AnalyzeGoSource(p.file, p.fileSrc, sideeffect.Options{})
		if err != nil {
			return nil, err
		}
		p.fileDegraded = len(fr.Pkg.Degraded())
		fr.Release()
		b.pkgs = append(b.pkgs, p)
	}
	return b, nil
}

func (b *goBench) close() {}

func (b *goBench) measure(deadline time.Time, tr *tracer) *opLog {
	log := &opLog{}
	ctx := context.Background()
	if tr != nil {
		for _, p := range b.pkgs {
			start := time.Now()
			pkgs, err := gofront.Load([]string{p.dir})
			if err != nil {
				log.fail(analyze, err)
				continue
			}
			compose(scope{}, pkgs[0].Prog).release()
			tr.add("untraced.analyze", ms(time.Since(start)))
		}
	}
	rng := rand.New(rand.NewSource(b.seed))
	// A cycle visits every package once, and a cycle that starts before
	// the deadline runs to its end: the packages differ in lint and
	// query cost, so every run must weigh them alike.
	for i := 0; i%len(b.pkgs) != 0 || time.Now().Before(deadline); i++ {
		p := b.pkgs[i%len(b.pkgs)]
		runtime.GC()
		// Queries read procedures evenly spaced through the package
		// from a seeded offset.
		offset := rng.Intn(len(p.procs))
		if tr != nil {
			b.traceAnalyze(tr, p, log)
		}
		op := tr.root("op.analyze.oneshot")
		start := time.Now()
		rs, err := sideeffect.AnalyzeGoPackages([]string{p.dir}, sideeffect.Options{})
		d := time.Since(start)
		op.end()
		if err == nil {
			err = p.check(rs)
		}
		switch {
		case tr == nil:
			log.record(analyze, d, err)
		case err != nil:
			log.fail(analyze, err)
		}
		if err != nil {
			continue
		}
		a := rs[0].Analysis

		for q := 0; q < goQueries; q++ {
			name := p.procs[(offset+q*len(p.procs)/goQueries)%len(p.procs)]
			op := tr.root("op.query")
			start := time.Now()
			mod, err1 := a.MOD(name)
			use, err2 := a.USE(name)
			d := time.Since(start)
			op.end()
			err := errors.Join(err1, err2)
			if err == nil {
				err = p.oracle.checkModUse(name, mod, use)
			}
			log.record(query, d, err)
		}

		// As in scale-lib, collect the reads' garbage before lint.
		runtime.GC()
		op = tr.root("op.lint")
		sub := op.sub("lint.run")
		start = time.Now()
		rep, err := a.LintContext(ctx, lint.Config{})
		d = time.Since(start)
		sub.end()
		op.end()
		if err == nil {
			tr.add("lint.findings", float64(len(rep.Diags)))
			if len(rep.Diags) != p.findings {
				err = fmt.Errorf("%s: lint found %d, set-up run found %d", p.path, len(rep.Diags), p.findings)
			}
		}
		log.record(lintOp, d, err)
		if tr != nil {
			traceRender(tr, a)
		}
		rs[0].Release()

		edited := p.fileSrc + fmt.Sprintf("\nfunc perfbenchEdit%d(p *int) { *p = %d }\n", i, i)
		op = tr.root("op.edit")
		start = time.Now()
		er, err := sideeffect.AnalyzeGoSource(p.file, edited, sideeffect.Options{})
		d = time.Since(start)
		op.end()
		if err == nil {
			err = checkGoEdit(p, er)
			er.Release()
		}
		log.record(edit, d, err)
	}
	return log
}

// check compares a fresh analysis of p with the set-up one: the same
// answers and the same degraded count on every operation.
func (p *goPackage) check(rs []sideeffect.GoResult) error {
	if len(rs) != 1 {
		return fmt.Errorf("%s: %d packages loaded, want 1", p.path, len(rs))
	}
	if got := analysisDigest(rs[0].Analysis); got != p.digest {
		rs[0].Release()
		return fmt.Errorf("%s: answer digest changed from the set-up run", p.path)
	}
	if got := len(rs[0].Pkg.Degraded()); got != p.degraded {
		rs[0].Release()
		return fmt.Errorf("%s: %d degraded functions, set-up run had %d", p.path, got, p.degraded)
	}
	return nil
}

// checkGoEdit checks an edited file's analysis against the oracle run
// on its own lowered program, and that the appended function degraded
// nothing.
func checkGoEdit(p *goPackage, r sideeffect.GoResult) error {
	a := r.Analysis
	if summaryDigest(a.Prog, a.Mod.GMOD, a.Use.GMOD) != oracleOf(r.Pkg.Prog).digest() {
		return fmt.Errorf("%s: edited file's MOD/USE disagree with the Banning oracle", p.file)
	}
	if got := len(r.Pkg.Degraded()); got != p.fileDegraded {
		return fmt.Errorf("%s: edit changed the degraded count from %d to %d", p.file, p.fileDegraded, got)
	}
	return nil
}

// traceAnalyze is the traced analyze op of go-frontend: the Go load,
// then the composed pipeline on the lowered program, checked against
// the set-up one-shot digest.
func (b *goBench) traceAnalyze(tr *tracer, p *goPackage, log *opLog) {
	op := tr.root("op.analyze")
	var (
		pkgs []*gofront.Package
		err  error
	)
	op.do("gofront.load", func() { pkgs, err = gofront.Load([]string{p.dir}) })
	if err != nil {
		op.end()
		log.fail(analyze, err)
		return
	}
	prog := pkgs[0].Prog
	c := compose(op, prog)
	d := op.end()
	got := c.digest(prog)
	c.release()
	tr.add("gofront.funcs", float64(len(pkgs[0].Notes)))
	tr.add("gofront.degraded_ratio", float64(len(pkgs[0].Degraded()))/float64(max(len(pkgs[0].Notes), 1)))
	stages := tr.root("op.stages")
	stageFunctions(stages, prog)
	stages.end()
	if got != p.digest {
		err = fmt.Errorf("%s: composed pipeline answers differ from the one-shot analysis", p.path)
	}
	log.record(analyze, d, err)
}

// goSourceRecord names the GOROOT packages and hashes their sources, so
// a result can be tied to the exact inputs the Go toolchain provided.
func goSourceRecord() (map[string]any, error) {
	h := sha256.New()
	var paths []string
	for _, gp := range goPackages {
		paths = append(paths, gp.path)
		dir := filepath.Join(build.Default.GOROOT, "src", gp.path)
		names, err := filepath.Glob(filepath.Join(dir, "*.go"))
		if err != nil {
			return nil, err
		}
		sort.Strings(names)
		for _, name := range names {
			b, err := os.ReadFile(name)
			if err != nil {
				return nil, err
			}
			fmt.Fprintf(h, "%s/%s\x00%d\x00", gp.path, filepath.Base(name), len(b))
			h.Write(b)
		}
	}
	return map[string]any{"goroot": build.Default.GOROOT, "packages": paths, "sources_sha256": hex.EncodeToString(h.Sum(nil))}, nil
}
