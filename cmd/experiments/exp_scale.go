package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"time"

	"sideeffect/internal/bitset"
	"sideeffect/internal/core"
	"sideeffect/internal/ir"
	"sideeffect/internal/workload"
)

func init() {
	experiments = append(experiments,
		experiment{"E20", "Giant-graph scalability: SCC-condensed pipeline from 256 to 100k procedures", expE20},
	)
}

// scaleBaseline, when set, points at a previously checked-in
// BENCH_scale.json; after the sweep the run compares its ns/procedure
// at every overlapping N and exits non-zero on a >2× regression. The
// CI scale-smoke job drives this.
var scaleBaseline = flag.String("scale-baseline", "",
	"E20: baseline BENCH_scale.json to compare against; exit 1 if ns/proc regresses >2x")

// scaleBenchRecord is one row of BENCH_scale.json: a full condensed
// MOD+USE analysis of one random program, with the paper's work
// counters and the memory cost alongside the wall time. Verified marks
// rows double-checked row-for-row against the uncondensed solver.
type scaleBenchRecord struct {
	Procs     int     `json:"procs"`
	Sites     int     `json:"sites"`
	Vars      int     `json:"vars"`
	GenNs     int64   `json:"gen_ns"`
	WallNs    int64   `json:"wall_ns"`
	NsPerProc float64 `json:"ns_per_proc"`
	// AllocBytes is the TotalAlloc delta of the timed analysis — the
	// cumulative allocation cost, the quantity whose growth exponent
	// the acceptance gate bounds.
	AllocBytes     uint64 `json:"alloc_bytes"`
	HeapAllocBytes uint64 `json:"heap_alloc_bytes"`
	SysBytes       uint64 `json:"sys_bytes"`
	BitVectorSteps int    `json:"bit_vector_steps"`
	Components     int    `json:"components"`
	CondensedRows  int    `json:"condensed_rows"`
	SharedRowHits  int    `json:"shared_row_hits"`
	// Verified is "identical" when the row was re-solved with the
	// per-node solver and matched, "skipped" above the verification
	// cap; a mismatch aborts the run instead of writing a record.
	Verified string `json:"verified"`
}

type scaleBenchDoc struct {
	Cores  int       `json:"cores"`
	NumCPU int       `json:"num_cpu"`
	Mem    memSample `json:"mem"`
	// TimeExponent and BytesExponent are the least-squares slopes of
	// log(wall_ns) and log(alloc_bytes) against log(procs): 1.0 is
	// linear scaling, the paper's claim; the acceptance gate is ≤ 1.2.
	TimeExponent  float64            `json:"time_exponent"`
	BytesExponent float64            `json:"bytes_exponent"`
	Records       []scaleBenchRecord `json:"records"`
}

func writeBenchScale(doc scaleBenchDoc) error {
	out, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile("BENCH_scale.json", append(out, '\n'), 0o644)
}

// fitExponent returns the least-squares slope of log(y) on log(x) —
// the growth exponent of y in x.
func fitExponent(xs []float64, ys []float64) float64 {
	n := float64(len(xs))
	var sx, sy, sxx, sxy float64
	for i := range xs {
		lx, ly := math.Log(xs[i]), math.Log(ys[i])
		sx += lx
		sy += ly
		sxx += lx * lx
		sxy += lx * ly
	}
	return (n*sxy - sx*sy) / (n*sxx - sx*sx)
}

// expE20 sweeps the condensed pipeline across program sizes up to
// 100k procedures in one process: generate (streaming generator), run
// the condensed MOD+USE analysis, record wall time, allocation, and
// the Theorem-2 work counters, and fit the growth exponents. Sizes
// where the per-node solver is still affordable are re-solved
// uncondensed and compared row for row — the scaled runs inherit the
// byte-identity the differential tests establish at small N.
func expE20(quick bool) {
	sizes := []int{256, 1024, 4096, 16384, 65536, 100000}
	verifyMax := 16384
	reps := 3
	if quick {
		sizes = []int{256, 1024, 4096}
		verifyMax = 4096
		reps = 1
	}

	var doc scaleBenchDoc
	doc.Cores = runtime.GOMAXPROCS(0)
	doc.NumCPU = runtime.NumCPU()
	rows := [][]string{{"N", "sites", "gen", "analyze", "ns/proc", "steps", "steps/N", "shared", "alloc MB", "verified"}}
	for _, n := range sizes {
		t0 := time.Now()
		prog := workload.Random(workload.DefaultConfig(n, int64(20*n+5)))
		genNs := time.Since(t0)

		run := func() (mod, use *core.CondensedResult) {
			st := core.BuildStructure(prog)
			mod, merr := core.AnalyzeCondensed(context.Background(), prog, core.Mod, core.Options{Structure: st})
			use, uerr := core.AnalyzeCondensed(context.Background(), prog, core.Use, core.Options{Structure: st})
			if err := errors.Join(merr, uerr); err != nil {
				fmt.Fprintf(os.Stderr, "experiments: E20: %v\n", err)
				os.Exit(1)
			}
			return mod, use
		}
		run() // warm pools
		var best time.Duration
		var mod, use *core.CondensedResult
		var before, after runtime.MemStats
		for i := 0; i < reps; i++ {
			runtime.GC()
			runtime.ReadMemStats(&before)
			start := time.Now()
			mod, use = run()
			wall := time.Since(start)
			runtime.ReadMemStats(&after)
			if i == 0 || wall < best {
				best = wall
			}
		}

		ms, us := mod.Stats(), use.Stats()
		rec := scaleBenchRecord{
			Procs: n, Sites: prog.NumSites(), Vars: prog.NumVars(),
			GenNs: genNs.Nanoseconds(), WallNs: best.Nanoseconds(),
			NsPerProc:      float64(best.Nanoseconds()) / float64(n),
			AllocBytes:     after.TotalAlloc - before.TotalAlloc,
			HeapAllocBytes: after.HeapAlloc, SysBytes: after.Sys,
			BitVectorSteps: ms.BitVectorSteps() + us.BitVectorSteps(),
			Components:     ms.Components + us.Components,
			CondensedRows:  ms.CondensedRows + us.CondensedRows,
			SharedRowHits:  ms.SharedRowHits + us.SharedRowHits,
		}

		rec.Verified = "skipped"
		if n <= verifyMax {
			if !verifyCondensed(prog, mod, use) {
				fmt.Fprintf(os.Stderr, "experiments: E20: condensed result diverges from the per-node solver at N=%d\n", n)
				os.Exit(1)
			}
			rec.Verified = "identical"
		}
		doc.Records = append(doc.Records, rec)
		rows = append(rows, []string{
			fmt.Sprint(n), fmt.Sprint(rec.Sites), dur(genNs), dur(best),
			fmt.Sprintf("%.0f", rec.NsPerProc),
			fmt.Sprint(rec.BitVectorSteps), f2(float64(rec.BitVectorSteps) / float64(n)),
			fmt.Sprint(rec.SharedRowHits),
			fmt.Sprintf("%.1f", float64(rec.AllocBytes)/1e6),
			rec.Verified,
		})
	}

	xs := make([]float64, len(doc.Records))
	ts := make([]float64, len(doc.Records))
	bs := make([]float64, len(doc.Records))
	for i, r := range doc.Records {
		xs[i] = float64(r.Procs)
		ts[i] = float64(r.WallNs)
		bs[i] = float64(r.AllocBytes)
	}
	doc.TimeExponent = fitExponent(xs, ts)
	doc.BytesExponent = fitExponent(xs, bs)
	doc.Mem = sampleMem()

	printTable(rows)
	fmt.Printf("\nfitted exponents: time %.3f, bytes %.3f (1.0 = linear; gate ≤ 1.2)\n",
		doc.TimeExponent, doc.BytesExponent)
	fmt.Printf("peak RSS %.1f MB\n", float64(doc.Mem.PeakRSSBytes)/1e6)
	if err := writeBenchScale(doc); err != nil {
		fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
		return
	}
	fmt.Println("Records written to BENCH_scale.json.")
	fmt.Println("Claim check: the condensed pipeline completes 100k procedures in one process" +
		" with near-linear time and allocation (exponent ≤ 1.2), identical to the per-node" +
		" solver everywhere both run.")

	if *scaleBaseline != "" {
		if !checkScaleBaseline(*scaleBaseline, doc) {
			os.Exit(1)
		}
	}
}

// verifyCondensed re-solves prog with the per-node (uncondensed)
// solver and compares every GMOD/GUSE row, size, and DMOD/DUSE row
// against the condensed accessors.
func verifyCondensed(prog *ir.Program, mod, use *core.CondensedResult) bool {
	sc := bitset.New(prog.NumVars())
	for _, kindPair := range []struct {
		kind core.Kind
		cr   *core.CondensedResult
	}{{core.Mod, mod}, {core.Use, use}} {
		r := core.Analyze(prog, kindPair.kind, core.Options{DisableCondensation: true})
		for _, p := range prog.Procs {
			sc.Clear()
			if !kindPair.cr.GMODInto(p.ID, sc).Equal(r.GMOD[p.ID]) {
				return false
			}
			if kindPair.cr.GMODSize(p.ID) != r.GMOD[p.ID].Len() {
				return false
			}
		}
		for _, cs := range prog.Sites {
			sc.Clear()
			if !kindPair.cr.DMODInto(cs.ID, sc).Equal(r.DMOD[cs.ID]) {
				return false
			}
		}
		r.Release()
	}
	return true
}

// checkScaleBaseline compares ns/proc at every N present in both runs
// and reports false on a >2× regression.
func checkScaleBaseline(path string, cur scaleBenchDoc) bool {
	data, err := os.ReadFile(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "experiments: E20 baseline: %v\n", err)
		return false
	}
	var base scaleBenchDoc
	if err := json.Unmarshal(data, &base); err != nil {
		fmt.Fprintf(os.Stderr, "experiments: E20 baseline: %v\n", err)
		return false
	}
	byN := map[int]scaleBenchRecord{}
	for _, r := range base.Records {
		byN[r.Procs] = r
	}
	ok := true
	for _, r := range cur.Records {
		b, found := byN[r.Procs]
		if !found || b.NsPerProc <= 0 {
			continue
		}
		ratio := r.NsPerProc / b.NsPerProc
		fmt.Printf("baseline check N=%d: %.0f vs %.0f ns/proc (%.2fx)\n",
			r.Procs, r.NsPerProc, b.NsPerProc, ratio)
		if ratio > 2 {
			fmt.Fprintf(os.Stderr, "experiments: E20: ns/proc at N=%d regressed %.2fx (>2x) vs %s\n",
				r.Procs, ratio, path)
			ok = false
		}
	}
	return ok
}
