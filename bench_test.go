package sideeffect

// One benchmark per experiment of EXPERIMENTS.md (E1–E10). Run with
//
//	go test -bench=. -benchmem
//
// The experiment harness (cmd/experiments) prints the analytic tables;
// these benches provide the wall-clock/allocation view under the Go
// benchmark methodology.

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"testing"

	"sideeffect/internal/alias"
	"sideeffect/internal/baseline"
	"sideeffect/internal/binding"
	"sideeffect/internal/callgraph"
	"sideeffect/internal/core"
	"sideeffect/internal/ir"
	"sideeffect/internal/lint"
	"sideeffect/internal/section"
	"sideeffect/internal/workload"
)

var benchSizes = []int{64, 256, 1024, 4096}

// E1 — Figure 1: RMOD on the binding multi-graph.
func BenchmarkRMOD(b *testing.B) {
	for _, n := range benchSizes {
		prog := workload.Random(workload.DefaultConfig(n, int64(n)))
		facts := core.ComputeFacts(prog, core.Mod)
		beta := binding.Build(prog)
		b.Run(fmt.Sprintf("N=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				core.SolveRMOD(beta, facts)
			}
		})
	}
}

// E2 — Figure 2: findgmod with globals growing linearly in N.
func BenchmarkFindGMOD(b *testing.B) {
	for _, n := range benchSizes {
		prog := workload.Random(workload.DefaultConfig(n, int64(n)))
		facts := core.ComputeFacts(prog, core.Mod)
		beta := binding.Build(prog)
		rmod := core.SolveRMOD(beta, facts)
		imodPlus := core.ComputeIMODPlus(facts, rmod)
		cg := callgraph.Build(prog)
		b.Run(fmt.Sprintf("N=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				core.FindGMOD(cg.G, imodPlus, facts.Local, prog.Main.ID)
			}
		})
	}
}

// E3 — Figure 3: the regular-section meet operation.
func BenchmarkSectionMeet(b *testing.B) {
	bld := ir.NewBuilder("m")
	i := bld.Global("I")
	j := bld.Global("J")
	k := bld.Global("K")
	a1 := section.NewRSD(section.SymAtom(i), section.SymAtom(j))
	a2 := section.NewRSD(section.SymAtom(k), section.SymAtom(j))
	b.ReportAllocs()
	for n := 0; n < b.N; n++ {
		section.Meet(a1, a2)
	}
}

// E4 — RMOD head-to-head: Figure 1 vs swift-style iterative vs
// Banning on the chain family (the iterative worst case).
func BenchmarkRMODVersus(b *testing.B) {
	for _, n := range []int{256, 2048} {
		chain := workload.Chain(n)
		random := workload.Random(workload.DefaultConfig(n, int64(n)))
		for _, w := range []struct {
			tag  string
			prog *ir.Program
		}{{"chain", chain}, {"random", random}} {
			facts := core.ComputeFacts(w.prog, core.Mod)
			beta := binding.Build(w.prog)
			b.Run(fmt.Sprintf("%s/N=%d/fig1", w.tag, n), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					core.SolveRMOD(beta, facts)
				}
			})
			b.Run(fmt.Sprintf("%s/N=%d/swift", w.tag, n), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					baseline.SwiftDecomposed(w.prog, facts)
				}
			})
			b.Run(fmt.Sprintf("%s/N=%d/banning", w.tag, n), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					baseline.BanningIterative(w.prog, facts)
				}
			})
		}
	}
}

// E5 — multi-level nesting: one findgmod family per nesting depth.
func BenchmarkMultiLevel(b *testing.B) {
	for _, d := range []int{0, 2, 4, 8} {
		cfg := workload.DefaultConfig(600, int64(77+d))
		cfg.MaxDepth = d
		if d > 0 {
			cfg.NestFraction = 0.7
		}
		prog := workload.Random(cfg).Prune()
		facts := core.ComputeFacts(prog, core.Mod)
		beta := binding.Build(prog)
		rmod := core.SolveRMOD(beta, facts)
		imodPlus := core.ComputeIMODPlus(facts, rmod)
		cg := callgraph.Build(prog)
		b.Run(fmt.Sprintf("dP=%d", d), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				core.SolveGMODMultiLevel(cg, facts, imodPlus)
			}
		})
	}
}

// E6 — β construction is a single linear scan of the call sites.
func BenchmarkBetaConstruction(b *testing.B) {
	for _, mu := range []float64{2, 8} {
		cfg := workload.DefaultConfig(1000, int64(mu))
		cfg.AvgFormals = mu
		prog := workload.Random(cfg)
		b.Run(fmt.Sprintf("muF=%v", mu), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				binding.Build(prog)
			}
		})
	}
}

// E7 — Section 5: alias pairs and MOD factoring.
func BenchmarkComputeMOD(b *testing.B) {
	for _, n := range []int{256, 1024} {
		prog := workload.Random(workload.DefaultConfig(n, int64(n+5)))
		res := core.Analyze(prog, core.Mod, core.Options{})
		b.Run(fmt.Sprintf("N=%d/aliases", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				alias.Compute(prog)
			}
		})
		an := alias.Compute(prog)
		b.Run(fmt.Sprintf("N=%d/factor", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				an.Factor(res.DMOD)
			}
		})
	}
}

// E8 — Section 6: regular section analysis on the divide-and-conquer
// family and on random array-heavy programs.
func BenchmarkSections(b *testing.B) {
	divide := workload.DivideConquer()
	divideRes := core.Analyze(divide, core.Mod, core.Options{})
	b.Run("divide", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			section.Analyze(divideRes, core.Mod)
		}
	})
	cfg := workload.DefaultConfig(512, 9)
	cfg.ArrayFormalFraction = 0.5
	cfg.GlobalArrays = 16
	prog := workload.Random(cfg)
	res := core.Analyze(prog, core.Mod, core.Options{})
	b.Run("random-arrays", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			section.Analyze(res, core.Mod)
		}
	})
}

// E9 — full pipeline end to end, from IR to per-call-site MOD sets.
func BenchmarkEndToEnd(b *testing.B) {
	for _, n := range benchSizes {
		prog := workload.Random(workload.DefaultConfig(n, int64(3*n)))
		b.Run(fmt.Sprintf("N=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				AnalyzeProgram(prog)
			}
		})
	}
}

// E10 — the parallelization decision per call site.
func BenchmarkParallelizeDecision(b *testing.B) {
	a, err := Analyze(`
program par;
global A[100, 100], n, i;
proc colop(ref c[*], val m)
  var r;
begin
  for r := 1 to m do c[r] := c[r] + 1 end
end;
begin
  for i := 1 to n do call colop(A[*, i], n) end
end.
`)
	if err != nil {
		b.Fatal(err)
	}
	cs := a.Prog.Sites[0]
	loopVar := a.Prog.Var("i")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		at := a.SecMod.AtCallWithin(cs, loopVar)
		for _, rsd := range at {
			section.DisjointAcrossIterations(rsd, rsd, loopVar)
		}
	}
}

// BenchmarkParseAnalyze measures the front end plus analysis on
// emitted synthetic source — the "compiler integration" cost.
func BenchmarkParseAnalyze(b *testing.B) {
	src := workload.Emit(workload.Random(workload.DefaultConfig(200, 4)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Analyze(src); err != nil {
			b.Fatal(err)
		}
	}
}

// E5 ablation — the sparse multi-level variant restricts each level's
// problem to the subgraph that can carry its variables.
func BenchmarkMultiLevelSparse(b *testing.B) {
	for _, d := range []int{2, 4, 8} {
		cfg := workload.DefaultConfig(600, int64(77+d))
		cfg.MaxDepth = d
		cfg.NestFraction = 0.7
		prog := workload.Random(cfg).Prune()
		facts := core.ComputeFacts(prog, core.Mod)
		beta := binding.Build(prog)
		rmod := core.SolveRMOD(beta, facts)
		imodPlus := core.ComputeIMODPlus(facts, rmod)
		cg := callgraph.Build(prog)
		b.Run(fmt.Sprintf("dP=%d", d), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				core.SolveGMODMultiLevelSparse(cg, facts, imodPlus)
			}
		})
	}
}

// benchBatchRecord mirrors the row shape cmd/experiments/exp_batch.go
// writes, so both producers feed the same BENCH_batch.json.
type benchBatchRecord struct {
	Name       string  `json:"name"`
	Cores      int     `json:"cores"`
	Workers    int     `json:"workers"`
	Programs   int     `json:"programs"`
	ProcsEach  int     `json:"procs_each"`
	SeqNsPerOp int64   `json:"seq_ns_per_op"`
	ParNsPerOp int64   `json:"par_ns_per_op"`
	Speedup    float64 `json:"speedup"`
}

// benchSchedule runs f as a named sub-benchmark and returns the
// measured ns/op, so a top-level benchmark can compare two schedules.
func benchSchedule(b *testing.B, name string, f func()) int64 {
	var ns int64
	b.Run(name, func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			f()
		}
		if b.N > 0 {
			ns = b.Elapsed().Nanoseconds() / int64(b.N)
		}
	})
	return ns
}

// mergeBenchBatch folds one record into BENCH_batch.json next to the
// rows written by `experiments -run E13`, replacing any previous row
// with the same name. Benchmarks only run under -bench, so plain
// `go test` never touches the file.
func mergeBenchBatch(b *testing.B, rec benchBatchRecord) {
	b.Helper()
	var doc struct {
		Cores   int                `json:"cores"`
		NumCPU  int                `json:"num_cpu"`
		Records []benchBatchRecord `json:"records"`
	}
	if data, err := os.ReadFile("BENCH_batch.json"); err == nil {
		_ = json.Unmarshal(data, &doc)
	}
	doc.Cores = runtime.GOMAXPROCS(0)
	doc.NumCPU = runtime.NumCPU()
	kept := doc.Records[:0]
	for _, r := range doc.Records {
		if r.Name != rec.Name {
			kept = append(kept, r)
		}
	}
	doc.Records = append(kept, rec)
	out, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		b.Fatalf("marshal BENCH_batch.json: %v", err)
	}
	if err := os.WriteFile("BENCH_batch.json", append(out, '\n'), 0o644); err != nil {
		b.Fatalf("write BENCH_batch.json: %v", err)
	}
}

// E13 — batch throughput: a corpus of programs through AnalyzeAll on
// the worker pool vs the fully sequential schedule. The speedup row is
// recorded in BENCH_batch.json together with the core count, since on
// a single core the two schedules are expected to tie.
func BenchmarkAnalyzeAll(b *testing.B) {
	const nProgs, procsEach = 12, 64
	srcs := make([]string, nProgs)
	for i := range srcs {
		srcs[i] = workload.Emit(workload.Random(workload.DefaultConfig(procsEach, int64(500+i))))
	}
	check := func(rs []BatchResult) {
		for _, r := range rs {
			if r.Err != nil {
				b.Fatal(r.Err)
			}
		}
	}
	seq := benchSchedule(b, "seq", func() { check(AnalyzeAll(srcs, Options{Sequential: true})) })
	par := benchSchedule(b, "par", func() { check(AnalyzeAll(srcs, Options{})) })
	if seq > 0 && par > 0 {
		mergeBenchBatch(b, benchBatchRecord{
			Name: fmt.Sprintf("BenchmarkAnalyzeAll/N=%d", procsEach), Cores: runtime.GOMAXPROCS(0),
			Workers: runtime.GOMAXPROCS(0), Programs: nProgs, ProcsEach: procsEach,
			SeqNsPerOp: seq, ParNsPerOp: par, Speedup: float64(seq) / float64(par),
		})
	}
}

// E13 — stage-level parallelism inside a single Analyze: the
// {Mod, Use, Aliases} and {SecMod, SecUse, ModSets, UseSets} stage
// groups run concurrently vs strictly in order on one large program.
func BenchmarkAnalyzeParallelStages(b *testing.B) {
	const procs = 1024
	prog := workload.Random(workload.DefaultConfig(procs, 7)).Prune()
	seq := benchSchedule(b, "seq", func() { AnalyzeProgramWith(prog, Options{Sequential: true}) })
	par := benchSchedule(b, "par", func() { AnalyzeProgramWith(prog, Options{}) })
	if seq > 0 && par > 0 {
		mergeBenchBatch(b, benchBatchRecord{
			Name: fmt.Sprintf("BenchmarkAnalyzeParallelStages/N=%d", procs), Cores: runtime.GOMAXPROCS(0),
			Workers: runtime.GOMAXPROCS(0), Programs: 1, ProcsEach: procs,
			SeqNsPerOp: seq, ParNsPerOp: par, Speedup: float64(seq) / float64(par),
		})
	}
}

// E15 — the diagnostics engine over a finished analysis. The rules
// only re-read summary bit sets and precomputed loop verdicts; cost
// tracks the findings emitted, not the procedure count (the per-op
// times here divided by the finding counts E15 reports stay flat).
func BenchmarkLint(b *testing.B) {
	for _, c := range []struct {
		n, depth int
	}{{64, 0}, {512, 0}, {4096, 2}} {
		cfg := workload.DefaultConfig(c.n, int64(300+c.n))
		name := fmt.Sprintf("N=%d", c.n)
		if c.depth > 0 {
			// The scale-lib shape: nested procedures, SE003-dominated.
			cfg.MaxDepth, cfg.NestFraction = c.depth, 0.3
			name = fmt.Sprintf("nested/N=%d", c.n)
		}
		a, err := AnalyzeWith(workload.Emit(workload.Random(cfg)), Options{Sequential: true})
		if err != nil {
			b.Fatal(err)
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := a.Lint(lint.Config{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// E12 — incremental maintenance vs full recomputation.
func BenchmarkIncremental(b *testing.B) {
	for _, n := range []int{256, 2048} {
		prog := workload.Random(workload.DefaultConfig(n, int64(n)))
		target := prog.Procs[prog.NumProcs()-1]
		g := prog.Globals()[0]
		b.Run(fmt.Sprintf("N=%d/full", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				core.Analyze(prog, core.Mod, core.Options{})
			}
		})
		res := core.Analyze(prog, core.Mod, core.Options{})
		inc := core.NewIncremental(res)
		b.Run(fmt.Sprintf("N=%d/incremental", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := inc.AddLocalEffect(target, g); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
