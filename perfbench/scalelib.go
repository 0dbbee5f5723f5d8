package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"sideeffect"
	"sideeffect/internal/ir"
	"sideeffect/internal/lint"
	"sideeffect/internal/report"
)

const (
	scaleProcs   = 4096 // procedures per program: large enough that the materialized GMOD table is superlinear
	scalePool    = 4    // programs cycled through
	scaleDepth   = 2    // nesting depth, so the multi-level GMOD path runs
	scaleQueries = 64   // MOD+USE reads per cycle
	scaleEdits   = 8    // additive edits per cycle
)

var scaleLib = workload{
	name: "scale-lib",
	why: "library at N=4096 nested procs: parse, core, alias, sections, lint and the incremental path do the work; " +
		"HTTP and render do none",
	mix: fmt.Sprintf("one caller, closed loop; per cycle 1 analyze (NewSessionContext), %d query (MOD+USE), "+
		"1 lint (LintContext), %d edit (EditContext, each incremental), then Close", scaleQueries, scaleEdits),
	nominal: [numClasses]int{analyze: 4, query: 4 * scaleQueries, edit: 4 * scaleEdits, lintOp: 4},
	setup:   setupScaleLib,
}

// scaleProgram is one pool program with everything its checks need.
type scaleProgram struct {
	src   string
	procs []string
	base  *oracle
	// edits[k] is the source after the first k+1 edits of the cycle;
	// the same chain runs on every cycle over this program.
	edits []string
	// finalDigest is the oracle's answer digest after the last edit.
	finalDigest string
	// findings is the set-up lint run's finding count.
	findings int
}

// libBench runs the library cycle over a pool of generated programs.
type libBench struct {
	pool []*scaleProgram
	// renders adds the JSON report and CallSites to each traced cycle;
	// it is off at N=4096, where the report is hundreds of megabytes.
	renders bool
}

func setupScaleLib(seed int64) (bench, error) {
	return newLibBench(seed, scaleProcs, scalePool, false)
}

func newLibBench(seed int64, procs, pool int, renders bool) (*libBench, error) {
	b := &libBench{renders: renders}
	for i := 0; i < pool; i++ {
		// The programs are the same for every seed; the seed draws the
		// edits. Across seeds the operations change, while the cost of
		// the corpus, which a pool of four cannot average out, stays put.
		p := &scaleProgram{src: genSource(procs, int64(i+1), scaleDepth)}
		p.procs = procNames(p.src)
		var err error
		if p.base, err = oracleOfSource(p.src); err != nil {
			return nil, err
		}
		rng := rand.New(rand.NewSource(seed*7919 + int64(i)))
		writes, edits, err := editChain(p.src, p.procs, procs, scaleEdits, rng)
		if err != nil {
			return nil, err
		}
		p.edits = edits
		mod, err := p.base.afterGlobalWrites(writes)
		if err != nil {
			return nil, err
		}
		p.finalDigest = summaryDigest(p.base.prog, mod, p.base.use.GMOD)
		// Warm the pools the pipeline recycles and take the lint
		// expectation from a set-up run.
		sess, err := sideeffect.NewSessionContext(context.Background(), p.src, sideeffect.Options{})
		if err != nil {
			return nil, err
		}
		rep, err := sess.Analysis().LintContext(context.Background(), lint.Config{})
		if err != nil {
			return nil, err
		}
		p.findings = len(rep.Diags)
		sess.Close()
		b.pool = append(b.pool, p)
	}
	return b, nil
}

func (b *libBench) close() {}

func (b *libBench) measure(deadline time.Time, tr *tracer) *opLog {
	log := &opLog{}
	ctx := context.Background()
	opts := sideeffect.Options{}
	if tr != nil {
		// The traced analyze op is composed stage by stage; time the
		// same composition untraced once per program for the overhead.
		for _, p := range b.pool {
			prog, err := parseProgram(p.src)
			if err != nil {
				log.fail(analyze, err)
				continue
			}
			start := time.Now()
			compose(scope{}, prog).release()
			tr.add("untraced.analyze", ms(time.Since(start)))
		}
	}
	// The loop runs whole rounds, one cycle per program, and a round
	// that starts before the deadline runs to its end: the programs
	// differ in cost, so every run must weigh them alike.
	for cycle := 0; cycle%len(b.pool) != 0 || time.Now().Before(deadline); cycle++ {
		p := b.pool[cycle%len(b.pool)]
		// Start each cycle from a collected heap, so the garbage of one
		// cycle is not charged to the next one's operations.
		runtime.GC()
		if tr != nil {
			traceAnalyze(tr, p.src, log)
		}

		op := tr.root("op.analyze.session")
		start := time.Now()
		sess, err := sideeffect.NewSessionContext(ctx, p.src, opts)
		d := time.Since(start)
		op.end()
		if tr == nil {
			log.record(analyze, d, err)
		}
		if err != nil {
			continue
		}
		tr.add("session.create", ms(d))
		a := sess.Analysis()
		// Reads allocate their answers; collect the analysis' garbage
		// first, as before lint below.
		runtime.GC()

		for q := 0; q < scaleQueries; q++ {
			// The same procedures, evenly spaced through the program, on
			// every cycle and seed: what a read costs depends on which
			// procedure is read, and 64 reads do not average that out.
			name := p.procs[q*len(p.procs)/scaleQueries]
			op := tr.root("op.query")
			start := time.Now()
			mod, err1 := a.MOD(name)
			use, err2 := a.USE(name)
			d := time.Since(start)
			op.end()
			err := errors.Join(err1, err2)
			if err == nil {
				err = p.base.checkModUse(name, mod, use)
			}
			log.record(query, d, err)
		}

		// Lint allocates a finding per fact; collect the reads' garbage
		// first so the lint time does not depend on it.
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
				err = fmt.Errorf("lint found %d, set-up run found %d", len(rep.Diags), p.findings)
			}
		}
		log.record(lintOp, d, err)
		if tr != nil && b.renders {
			traceRender(tr, a)
		}

		for _, next := range p.edits {
			op := tr.root("op.edit")
			sub := op.sub("session.edit")
			start := time.Now()
			mode, err := sess.EditContext(ctx, next)
			d := time.Since(start)
			sub.end()
			op.end()
			if err == nil && mode != sideeffect.EditIncremental {
				err = fmt.Errorf("edit came back %s, want incremental", mode)
			}
			if tr != nil {
				tr.add("session.incremental", boolValue(mode == sideeffect.EditIncremental))
			}
			log.record(edit, d, err)
		}
		if a = sess.Analysis(); summaryDigest(a.Prog, a.Mod.GMOD, a.Use.GMOD) != p.finalDigest {
			log.fail(edit, errors.New("post-edit MOD/USE disagree with the Banning oracle on the edited program"))
		}
		sess.Close()
	}
	return log
}

// traceAnalyze is the traced analyze op of the library workloads: the
// composed pipeline under spans, checked against the one-shot answers.
func traceAnalyze(tr *tracer, src string, log *opLog) {
	op := tr.root("op.analyze")
	var (
		prog *ir.Program
		err  error
	)
	op.do("lang.parse", func() { prog, err = parseProgram(src) })
	if err != nil {
		op.end()
		log.fail(analyze, err)
		return
	}
	c := compose(op, prog)
	d := op.end()
	got := c.digest(prog)
	c.release()
	stages := tr.root("op.stages")
	stageFunctions(stages, prog)
	stages.end()
	one, err := sideeffect.AnalyzeContext(context.Background(), src, sideeffect.Options{})
	if err == nil && analysisDigest(one) != got {
		err = errors.New("composed pipeline answers differ from the one-shot analysis")
	}
	if one != nil {
		one.Release()
	}
	log.record(analyze, d, err)
}

// traceRender times what a report query costs beyond the analysis:
// building the JSON report, encoding it as the daemon does, and
// CallSites.
func traceRender(tr *tracer, a *sideeffect.Analysis) {
	op := tr.root("op.render")
	var rep *report.JSONReport
	op.do("report.render", func() { rep = report.BuildJSON(a.Mod, a.Use, a.Aliases, a.SecMod) })
	var buf bytes.Buffer
	op.do("report.encode", func() {
		enc := json.NewEncoder(&buf)
		enc.SetIndent("", "  ")
		_ = enc.Encode(rep) // writes to a bytes.Buffer
	})
	tr.add("report.bytes", float64(buf.Len()))
	op.do("query.callsites", func() { a.CallSites() })
	op.end()
}

func boolValue(b bool) float64 {
	if b {
		return 1
	}
	return 0
}
