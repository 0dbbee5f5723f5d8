package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"sideeffect"
	"sideeffect/internal/cluster"
	"sideeffect/internal/server"
)

// layerMetric is one per-layer metric of the traced run. A workload
// whose own operations do not reach the layer gets the value from
// probe, a short run of the named probe seeded like the workload.
type layerMetric struct {
	name, unit, probe string
	value             func(t *tracer) (float64, bool)
}

func selfMedian(span string) func(*tracer) (float64, bool) {
	return func(t *tracer) (float64, bool) { xs := t.selfMS(span); return median(xs), len(xs) > 0 }
}

func durMedian(span string) func(*tracer) (float64, bool) {
	return func(t *tracer) (float64, bool) { xs := t.durMS(span); return median(xs), len(xs) > 0 }
}

func sampleMedian(name string) func(*tracer) (float64, bool) {
	return func(t *tracer) (float64, bool) { xs := t.samples(name); return median(xs), len(xs) > 0 }
}

func sampleMean(name string) func(*tracer) (float64, bool) {
	return func(t *tracer) (float64, bool) { xs := t.samples(name); return mean(xs), len(xs) > 0 }
}

// The layer table. Layers are named after the repository's modules; see
// README.md for the end-to-end metric each should move.
var layerTable = []layerMetric{
	{"lang.parse_ms", "ms", "lib", selfMedian("lang.parse")},
	{"gofront.load_ms", "ms", "go", selfMedian("gofront.load")},
	{"gofront.funcs", "count", "go", sampleMedian("gofront.funcs")},
	{"gofront.degraded_ratio", "ratio", "go", sampleMedian("gofront.degraded_ratio")},
	{"core.structure_ms", "ms", "lib", selfMedian("core.structure")},
	{"core.mod_ms", "ms", "lib", selfMedian("core.mod")},
	{"core.use_ms", "ms", "lib", selfMedian("core.use")},
	{"core.facts_ms", "ms", "lib", selfMedian("core.facts")},
	{"core.rmod_ms", "ms", "lib", selfMedian("core.rmod")},
	{"core.imodplus_ms", "ms", "lib", selfMedian("core.imodplus")},
	{"core.gmod_ms", "ms", "lib", selfMedian("core.gmod")},
	{"core.dmod_ms", "ms", "lib", selfMedian("core.dmod")},
	{"core.gmod_steps", "count", "lib", sampleMedian("core.gmod_steps")},
	{"core.condensed_rows", "count", "lib", sampleMedian("core.condensed_rows")},
	{"core.shared_row_hits", "count", "lib", sampleMedian("core.shared_row_hits")},
	{"core.result_words", "count", "lib", sampleMedian("core.result_words")},
	{"core.alloc_mb", "MB", "lib", sampleMedian("core.alloc_mb")},
	{"alias.compute_ms", "ms", "lib", selfMedian("alias.compute")},
	{"alias.pairs", "count", "lib", sampleMedian("alias.pairs")},
	{"alias.factor_ms", "ms", "lib", selfMedian("alias.factor")},
	{"section.mod_ms", "ms", "lib", selfMedian("section.mod")},
	{"section.use_ms", "ms", "lib", selfMedian("section.use")},
	{"session.edit_ms", "ms", "lib", selfMedian("session.edit")},
	{"session.incremental_ratio", "ratio", "lib", sampleMean("session.incremental")},
	{"session.edit_vs_full", "ratio", "lib", func(t *tracer) (float64, bool) {
		e, full := t.selfMS("session.edit"), t.samples("session.create")
		return median(e) / median(full), len(e) > 0 && len(full) > 0
	}},
	{"lint.run_ms", "ms", "lib", selfMedian("lint.run")},
	{"lint.findings", "count", "lib", sampleMedian("lint.findings")},
	{"report.render_ms", "ms", "lib", selfMedian("report.render")},
	{"report.encode_ms", "ms", "lib", selfMedian("report.encode")},
	{"report.bytes", "bytes", "lib", sampleMedian("report.bytes")},
	{"query.callsites_ms", "ms", "lib", selfMedian("query.callsites")},
	{"server.handler_analyze_ms", "ms", "server", durMedian("server.handler.analyze")},
	{"server.handler_query_ms", "ms", "server", durMedian("server.handler.query")},
	{"server.handler_edit_ms", "ms", "server", durMedian("server.handler.edit")},
	{"server.handler_lint_ms", "ms", "server", durMedian("server.handler.lint")},
	{"server.http_ms", "ms", "server", sampleMedian("server.http")},
	{"server.cache_hit_ratio", "ratio", "server", sampleMedian("server.cache_hit_ratio")},
	{"server.shed", "count", "server", sampleMedian("server.shed")},
	{"cluster.hop_ms", "ms", "cluster", sampleMedian("cluster.hop")},
	{"cluster.attempts_per_req", "count", "cluster", sampleMean("cluster.attempts")},
	{"pipeline.time_exponent", "ratio", "scale", sampleMedian("pipeline.time_exponent")},
	{"trace.overhead_ms", "ms", "lib", func(t *tracer) (float64, bool) {
		traced, untraced := t.durMS("op.analyze"), t.samples("untraced.analyze")
		return median(traced) - median(untraced), len(traced) > 0 && len(untraced) > 0
	}},
}

// probeWindow is how long a probe measures.
const probeWindow = 3 * time.Second

// probes run a layer that the workload's own operations do not reach,
// on small inputs seeded like the workload, into a tracer of their own.
var probes = map[string]func(seed int64, tr *tracer) (*opLog, error){
	// lib: the library cycle at N=256, where reports are small enough
	// to render on every cycle.
	"lib": func(seed int64, tr *tracer) (*opLog, error) {
		b, err := newLibBench(seed, daemonMaxProcs, scalePool, true)
		if err != nil {
			return nil, err
		}
		return b.measure(time.Now().Add(probeWindow), tr), nil
	},
	// go: the go-frontend cycle on its first package only.
	"go": func(seed int64, tr *tracer) (*opLog, error) {
		b, err := newGoBench(seed, 1)
		if err != nil {
			return nil, err
		}
		return b.measure(time.Now().Add(probeWindow), tr), nil
	},
	// server: daemon-mix's stream over a pool of 8 sources.
	"server": func(seed int64, tr *tracer) (*opLog, error) {
		b, err := newDaemonBench(seed, 8)
		if err != nil {
			return nil, err
		}
		defer b.close()
		return b.measure(time.Now().Add(probeWindow), tr), nil
	},
	"cluster": clusterProbe,
	"scale":   exponentProbe,
}

// layerMetrics fills metrics with every per-layer metric: from the
// workload's own traced operations where they reach the layer, from
// the layer's probe otherwise. It returns the metrics that came from
// probes.
func layerMetrics(tr *tracer, seed int64, metrics map[string]metric) ([]string, error) {
	probeTracers := map[string]*tracer{}
	var probed []string
	for _, m := range layerTable {
		if v, ok := m.value(tr); ok {
			metrics[m.name] = metric{v, m.unit}
			continue
		}
		pt, ran := probeTracers[m.probe]
		if !ran {
			pt = newTracer()
			log, err := probes[m.probe](seed, pt)
			if err != nil {
				return probed, fmt.Errorf("%s probe: %w", m.probe, err)
			}
			if log.failed > 0 || log.attempted == 0 {
				return probed, fmt.Errorf("%s probe: %d of %d operations failed: %v", m.probe, log.failed, log.attempted, log.errs)
			}
			probeTracers[m.probe] = pt
		}
		v, ok := m.value(pt)
		if !ok {
			return probed, fmt.Errorf("%s probe reported no %s", m.probe, m.name)
		}
		metrics[m.name] = metric{v, m.unit}
		probed = append(probed, m.name)
	}
	return probed, nil
}

// exponentProbe fits the log-log slope of NewSessionContext's median
// time between N=1024 and N=4096 programs of the same shape: the
// paper's linear-time claim on the user path.
func exponentProbe(seed int64, tr *tracer) (*opLog, error) {
	log := &opLog{}
	p50 := func(n int) (float64, error) {
		src := genSource(n, seed, scaleDepth)
		var xs []float64
		for i := 0; i < 3; i++ {
			start := time.Now()
			s, err := sideeffect.NewSessionContext(context.Background(), src, sideeffect.Options{})
			d := time.Since(start)
			log.record(analyze, d, err)
			if err != nil {
				return 0, err
			}
			s.Close()
			xs = append(xs, ms(d))
		}
		return median(xs), nil
	}
	small, err := p50(1024)
	if err != nil {
		return nil, err
	}
	big, err := p50(4096)
	if err != nil {
		return nil, err
	}
	tr.add("pipeline.time_exponent", math.Log(big/small)/math.Log(4))
	return log, nil
}

// clusterProbe sends daemon-mix's read requests, one at a time, through
// an in-process coordinator over two single-worker shards, and charges
// each request's coordinator handler time minus its shard handler time
// to the hop.
func clusterProbe(seed int64, tr *tracer) (*opLog, error) {
	var shardNs atomic.Int64
	timed := func(h http.Handler, sum *atomic.Int64) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			start := time.Now()
			h.ServeHTTP(w, r)
			sum.Add(int64(time.Since(start)))
		})
	}
	var servers []*http.Server
	defer func() {
		for _, s := range servers {
			_ = s.Close() // closes the listener and every connection
		}
	}()
	serve := func(h http.Handler) (string, error) {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return "", err
		}
		s := &http.Server{Handler: h}
		servers = append(servers, s)
		go s.Serve(ln) //nolint:errcheck // returns ErrServerClosed on close
		return "http://" + ln.Addr().String(), nil
	}
	coord, err := cluster.New(cluster.Config{Seed: seed})
	if err != nil {
		return nil, err
	}
	for i := 0; i < 2; i++ {
		id := "shard" + strconv.Itoa(i)
		url, err := serve(timed(server.New(server.Config{Workers: 1, ShardID: id}).Handler(), &shardNs))
		if err != nil {
			return nil, err
		}
		if err := coord.AddShard(id, url); err != nil {
			return nil, err
		}
	}
	coord.Start()
	defer coord.Stop()
	if !coord.WaitHealthy(2, 10*time.Second) {
		return nil, fmt.Errorf("cluster shards did not become healthy")
	}
	var coordNs atomic.Int64
	url, err := serve(timed(coord.Handler(), &coordNs))
	if err != nil {
		return nil, err
	}
	pool, err := newPool(8)
	if err != nil {
		return nil, err
	}
	client := newHTTPClient()
	defer client.CloseIdleConnections()
	for _, ps := range pool {
		body, _ := json.Marshal(map[string]string{"source": ps.src})
		if _, err := post(client, url+"/analyze", body, "", true); err != nil {
			return nil, err
		}
	}
	log := &opLog{}
	deadline := time.Now().Add(probeWindow)
	for round := 0; time.Now().Before(deadline); round++ {
		ps := pool[round%len(pool)]
		kind := warmKinds[round%len(warmKinds)]
		proc := ps.procs[round%len(ps.procs)]
		req := map[string]any{"source": ps.src}
		if kind != "report" {
			req["query"] = map[string]string{"kind": kind, "proc": proc}
		}
		path := "/analyze"
		if round%8 == 7 {
			path = "/lint"
			req = map[string]any{"source": ps.src}
		}
		body, _ := json.Marshal(req)
		shardNs.Store(0)
		coordNs.Store(0)
		start := time.Now()
		r, err := post(client, url+path, body, "", path == "/analyze" && hashedKinds[kind])
		dur := time.Since(start)
		switch {
		case err == nil && r.status != http.StatusOK:
			err = fmt.Errorf("%s via coordinator: status %d", path, r.status)
		case err == nil && path == "/lint":
			err = ps.checkLint(r.body)
		case err == nil:
			err = ps.checkWarm(kind, proc, r)
		}
		log.record(query, dur, err)
		if err == nil {
			tr.add("cluster.hop", ms(time.Duration(coordNs.Load()-shardNs.Load())))
			tr.add("cluster.attempts", float64(r.attempts))
		}
	}
	return log, nil
}
