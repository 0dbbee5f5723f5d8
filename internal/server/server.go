// Package server is the serving subsystem behind cmd/modand: an
// HTTP/JSON API over the sideeffect analysis pipeline, built for the
// programming-environment scenario the paper targets — a long-lived
// process that re-answers MOD/USE queries as programs are edited,
// serving memoized summaries instead of recomputing from scratch.
//
// Three request families are exposed:
//
//   - POST /analyze — one-shot analysis of a source text, served from a
//     content-addressed LRU (internal/cache) with singleflight
//     deduplication; responses carry the full JSON report or the answer
//     to one query (gmod/guse/rmod/callsites/report).
//   - POST /batch — many sources fanned out over the bounded worker
//     pool (sideeffect.AnalyzeAllContext), each entry consulting the cache.
//   - /session — stateful handles that hold a program open and absorb
//     edits through sideeffect.Session: additive edits ride the
//     incremental engine, anything else falls back to full reanalysis.
//
// Production plumbing: request-size limits, per-request timeouts with
// structured JSON errors, Prometheus-style counters and latency
// histograms at /metrics, expvar at /debug/vars, and pprof at
// /debug/pprof/. Graceful shutdown is the daemon's job (cmd/modand).
package server

import (
	"context"
	"encoding/json"
	"errors"
	"expvar"
	"fmt"
	"net/http"
	"net/http/pprof"
	"runtime"
	"runtime/debug"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"sideeffect"
	"sideeffect/internal/batch"
	"sideeffect/internal/cache"
	"sideeffect/internal/core"
	"sideeffect/internal/faultinject"
	"sideeffect/internal/gofront"
	"sideeffect/internal/ir"
	"sideeffect/internal/lang/sem"
	"sideeffect/internal/report"
	"sideeffect/internal/store"
)

// Config tunes the server. The zero value gets sensible production
// defaults from withDefaults.
type Config struct {
	// Workers bounds the analysis pools (0 = GOMAXPROCS; negative
	// values are normalized by the library).
	Workers int
	// CacheEntries bounds the content-addressed result cache
	// (default 256 entries).
	CacheEntries int
	// MaxRequestBytes bounds request bodies (default 1 MiB). Larger
	// requests receive 413 with a structured error.
	MaxRequestBytes int64
	// Timeout bounds each request's analysis work (default 30s).
	// Requests that exceed it receive 503; the underlying computation
	// is left to finish and populate the cache.
	Timeout time.Duration
	// MaxSessions bounds concurrently open sessions (default 64).
	MaxSessions int
	// MaxBatchSources bounds the number of sources per /batch request
	// (default 256).
	MaxBatchSources int
	// MaxInFlight bounds the analysis-bearing requests executing at
	// once (default 32, -1 = unlimited). Requests beyond it wait in the
	// admission queue.
	MaxInFlight int
	// MaxQueue bounds the requests waiting for an admission slot
	// (default 64, -1 = unlimited). Requests beyond it are shed with
	// 429 and a Retry-After header instead of piling onto a saturated
	// server.
	MaxQueue int
	// FaultRate, when positive, arms deterministic fault injection at
	// probability FaultRate per fault point, both in the request
	// plumbing and through the analysis pipeline. Chaos testing only.
	FaultRate float64
	// FaultSeed seeds the injector; the same seed and request sequence
	// replays the same faults.
	FaultSeed int64
	// ShardID, when non-empty, marks this server as one replica of a
	// sharded cluster (see internal/cluster). It is purely an identity:
	// the ID shows up in /healthz, /cluster/status, and the
	// modand_shard_info metric so operators and the coordinator's
	// prober can tell replicas apart. Routing itself lives in the
	// coordinator — a shard answers any request it receives.
	ShardID string
}

func (c Config) withDefaults() Config {
	if c.CacheEntries == 0 {
		c.CacheEntries = 256
	}
	if c.MaxRequestBytes == 0 {
		c.MaxRequestBytes = 1 << 20
	}
	if c.Timeout == 0 {
		c.Timeout = 30 * time.Second
	}
	if c.MaxSessions == 0 {
		c.MaxSessions = 64
	}
	if c.MaxBatchSources == 0 {
		c.MaxBatchSources = 256
	}
	if c.MaxInFlight == 0 {
		c.MaxInFlight = 32
	}
	if c.MaxQueue == 0 {
		c.MaxQueue = 64
	}
	return c
}

// cached is one memoized analysis with lazily rendered report forms.
// The Analysis inside is shared by every request for the same source
// hash and must be treated as immutable (sessions, which mutate their
// analyses, never go through the cache).
//
// An entry has one of two backings: a live Analysis (a is non-nil —
// the normal computed case), or a restored snapshot (snap is non-nil —
// the entry was loaded from a persisted checkpoint and serves purely
// rendered data, with no analysis behind it). Both answer every
// /analyze, /lint, and query request byte-identically; the snapshot
// backing is what makes a warm restart possible.
type cached struct {
	a *sideeffect.Analysis
	// snap backs restored entries; json is pre-decoded from it at
	// install time (see newCachedSnap).
	snap *store.EntrySnapshot
	// lang is "minipl" or "go", tracked so the checkpoint exporter can
	// round-trip the entry's namespace.
	lang string
	// sum is the integrity fingerprint taken when the entry was built;
	// the cache's validation hook recomputes it on every hit and evicts
	// entries whose stored analysis no longer matches, so a corrupted
	// entry costs a recompute instead of serving a wrong answer.
	sum uint64
	// refs counts the entry's users: the cache's own reference plus one
	// per request currently reading the entry. The analysis's pooled
	// arenas go back to the pool when the last reference releases, so
	// an entry evicted (or displaced, or rejected as corrupt) while a
	// request still reads it stays alive exactly until that request
	// finishes.
	refs     atomic.Int64
	jsonOnce sync.Once
	json     *report.JSONReport
	textOnce sync.Once
	text     string
	// Go-frontend entries carry the per-function lowering-confidence
	// notes and the rendered confidence table appended to text reports.
	notes []gofront.Note
	conf  string
}

func (e *cached) acquire() { e.refs.Add(1) }

// release returns one reference; the last one recycles the analysis's
// arenas (a no-op for snapshot-backed entries, which hold no pooled
// storage). Nil-safe so error paths can release unconditionally.
func (e *cached) release() {
	if e == nil {
		return
	}
	if e.refs.Add(-1) == 0 {
		e.a.Release()
	}
}

// fingerprint folds the analysis's summary-set cardinalities into one
// word. It is deliberately cheap — O(procedures) — because it runs on
// every cache hit: enough to catch a flipped or truncated bit vector,
// not a cryptographic commitment.
func fingerprint(a *sideeffect.Analysis) uint64 {
	h := uint64(1469598103934665603)
	mix := func(x uint64) { h ^= x; h *= 1099511628211 }
	for _, p := range a.Prog.Procs {
		mix(uint64(a.Mod.GMOD[p.ID].Len()))
		mix(uint64(a.Use.GMOD[p.ID].Len()))
	}
	mix(uint64(len(a.ModSets)))
	mix(uint64(len(a.UseSets)))
	return h
}

// newCached wraps a freshly computed analysis, with the creator holding
// the first reference.
func newCached(a *sideeffect.Analysis) *cached {
	e := &cached{a: a, lang: "minipl", sum: fingerprint(a)}
	e.refs.Store(1)
	return e
}

// newCachedSnap wraps a restored (or indexer-rendered) snapshot as a
// cache entry, decoding its JSON report once up front. The creator
// holds the first reference.
func newCachedSnap(snap *store.EntrySnapshot) (*cached, error) {
	jr := new(report.JSONReport)
	if err := json.Unmarshal(snap.JSON, jr); err != nil {
		return nil, fmt.Errorf("snapshot entry %s: %w", snap.Key, err)
	}
	if snap.Lint == nil {
		return nil, fmt.Errorf("snapshot entry %s: missing lint report", snap.Key)
	}
	e := &cached{snap: snap, lang: snap.Lang, json: jr, notes: snap.Notes, conf: snap.Conf}
	e.sum = snap.Fingerprint()
	e.refs.Store(1)
	return e, nil
}

// admission is the load-shedding gate in front of every
// analysis-bearing endpoint: at most maxInFlight requests compute at
// once, at most maxQueue more wait for a slot, and the rest are shed
// immediately with 429 — a saturated server stays responsive instead of
// stacking unbounded goroutines behind the worker pool.
type admission struct {
	sem      chan struct{} // nil = unlimited
	maxQueue int64         // <0 = unlimited
	queued   atomic.Int64
	shed     atomic.Int64
}

func newAdmission(maxInFlight, maxQueue int) *admission {
	ad := &admission{maxQueue: int64(maxQueue)}
	if maxInFlight > 0 {
		ad.sem = make(chan struct{}, maxInFlight)
	}
	return ad
}

// acquire blocks until a slot frees, the queue overflows (shed), or ctx
// expires. A nil return means the caller holds a slot and must release.
func (ad *admission) acquire(ctx context.Context) *apiError {
	if ad.sem == nil {
		return nil
	}
	select {
	case ad.sem <- struct{}{}:
		return nil
	default:
	}
	if n := ad.queued.Add(1); ad.maxQueue >= 0 && n > ad.maxQueue {
		ad.queued.Add(-1)
		ad.shed.Add(1)
		return errOverloaded()
	}
	defer ad.queued.Add(-1)
	select {
	case ad.sem <- struct{}{}:
		return nil
	case <-ctx.Done():
		ad.shed.Add(1)
		return errTimeout()
	}
}

func (ad *admission) release() {
	if ad.sem != nil {
		<-ad.sem
	}
}

func (ad *admission) inFlight() int {
	if ad.sem == nil {
		return -1
	}
	return len(ad.sem)
}

func (e *cached) jsonReport() *report.JSONReport {
	e.jsonOnce.Do(func() {
		if e.json == nil {
			e.json = report.BuildJSON(e.a.Mod, e.a.Use, e.a.Aliases, e.a.SecMod)
		}
	})
	return e.json
}

func (e *cached) textReport() string {
	e.textOnce.Do(func() {
		if e.snap != nil {
			e.text = e.snap.Text
		} else {
			e.text = e.a.Report()
		}
		if e.conf != "" {
			e.text += "\n" + e.conf
		}
	})
	return e.text
}

// findProc locates a procedure's summary in the decoded JSON report
// (snapshot-backed entries only). The error text matches the live
// path's, so warm and cold answers stay byte-identical down to error
// bodies.
func (e *cached) findProc(proc string) (*report.JSONProcedure, error) {
	for i := range e.json.Procedures {
		if e.json.Procedures[i].Name == proc {
			return &e.json.Procedures[i], nil
		}
	}
	return nil, fmt.Errorf("sideeffect: no procedure %q", proc)
}

// modNames answers the "gmod" query from either backing.
func (e *cached) modNames(proc string) ([]string, error) {
	if e.a != nil {
		return e.a.MOD(proc)
	}
	p, err := e.findProc(proc)
	if err != nil {
		return nil, err
	}
	return p.GMOD, nil
}

// useNames answers the "guse" query from either backing.
func (e *cached) useNames(proc string) ([]string, error) {
	if e.a != nil {
		return e.a.USE(proc)
	}
	p, err := e.findProc(proc)
	if err != nil {
		return nil, err
	}
	return p.GUSE, nil
}

// rmodNames answers the "rmod" query from either backing.
func (e *cached) rmodNames(proc string) ([]string, error) {
	if e.a != nil {
		return e.a.RMOD(proc)
	}
	p, err := e.findProc(proc)
	if err != nil {
		return nil, err
	}
	return p.RMOD, nil
}

// callSites answers the "callsites" query from either backing. The
// snapshot path reconstructs the wire shape from the decoded JSON
// report, whose per-site MOD/USE/section strings were rendered by the
// same code the live path renders with.
func (e *cached) callSites() []sideeffect.CallSite {
	if e.a != nil {
		return e.a.CallSites()
	}
	out := make([]sideeffect.CallSite, 0, len(e.json.CallSites))
	for _, cs := range e.json.CallSites {
		out = append(out, sideeffect.CallSite{
			Caller:   cs.Caller,
			Callee:   cs.Callee,
			Pos:      cs.Pos,
			MOD:      cs.MOD,
			USE:      cs.USE,
			Sections: cs.Sections,
		})
	}
	return out
}

// Server is the analysis service. Create with New, expose with
// Handler.
type Server struct {
	cfg      Config
	opts     sideeffect.Options
	faults   *faultinject.Injector
	adm      *admission
	cache    *cache.Cache[*cached]
	sessions *sessionStore
	met      *metrics
	mux      *http.ServeMux
	// index is the attached watch-mode indexer view (nil when the
	// daemon runs without -watch); see index.go.
	index atomic.Pointer[indexHolder]
}

// New builds a server with its routes registered.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	faults := faultinject.New(faultinject.Config{Rate: cfg.FaultRate, Seed: cfg.FaultSeed})
	s := &Server{
		cfg:      cfg,
		opts:     sideeffect.Options{Workers: cfg.Workers, Faults: faults},
		faults:   faults,
		adm:      newAdmission(cfg.MaxInFlight, cfg.MaxQueue),
		cache:    cache.New[*cached](cfg.CacheEntries),
		sessions: newSessionStore(cfg.MaxSessions),
		met:      newMetrics(),
	}
	// The validation hook guards every cache hit; the "cache.entry"
	// fault point simulates corruption so chaos runs exercise the
	// evict-and-recompute path. Snapshot-backed entries validate
	// against their own content fold — same contract, no analysis.
	s.cache.Validate = func(_ string, e *cached) bool {
		if s.faults.Corrupt("cache.entry") {
			return false
		}
		if e.a == nil {
			return e.snap.Fingerprint() == e.sum
		}
		return fingerprint(e.a) == e.sum
	}
	// Reference-count entries through the cache's lifecycle hooks so an
	// analysis's arenas return to the pool the moment its last user —
	// the cache on evict/corrupt/replace, or the final in-flight reader
	// — lets go. Without this, every displaced entry stranded its two
	// result arenas.
	s.cache.Acquire = func(e *cached) { e.acquire() }
	s.cache.Drop = func(e *cached) { e.release() }
	s.mux = http.NewServeMux()
	s.routeHeavy("POST /analyze", "/analyze", s.handleAnalyze)
	s.routeHeavy("POST /batch", "/batch", s.handleBatch)
	s.routeHeavy("POST /lint", "/lint", s.handleLint)
	s.routeHeavy("POST /session/{id}/lint", "/session/{id}/lint", s.handleSessionLint)
	s.routeHeavy("POST /session", "/session", s.handleSessionCreate)
	s.route("GET /session/{id}", "/session/{id}", s.handleSessionGet)
	s.routeHeavy("POST /session/{id}/edit", "/session/{id}/edit", s.handleSessionEdit)
	s.route("DELETE /session/{id}", "/session/{id}", s.handleSessionDelete)
	s.route("GET /index/status", "/index/status", s.handleIndexStatus)
	s.route("GET /index/files", "/index/files", s.handleIndexFiles)
	s.route("GET /cluster/status", "/cluster/status", s.handleClusterStatus)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		resp := map[string]any{"ok": true, "role": s.role()}
		if s.cfg.ShardID != "" {
			resp["shard"] = s.cfg.ShardID
		}
		writeJSON(w, http.StatusOK, resp)
	})
	s.mux.Handle("GET /debug/vars", expvar.Handler())
	s.mux.HandleFunc("GET /debug/pprof/", pprof.Index)
	s.mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
	s.mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
	s.mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
	s.mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	return s
}

// Handler returns the server's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// apiError is the structured error payload every failure returns,
// wrapped as {"error": {...}}.
type apiError struct {
	Status  int    `json:"status"`
	Code    string `json:"code"`
	Message string `json:"message"`
	// RetryAfter, when positive, is sent as a Retry-After header (shed
	// responses carry it so well-behaved clients back off).
	RetryAfter int `json:"-"`
}

func (e *apiError) Error() string { return e.Message }

func errBadRequest(format string, args ...any) *apiError {
	return &apiError{Status: http.StatusBadRequest, Code: "bad_request", Message: fmt.Sprintf(format, args...)}
}

func errAnalysis(err error) *apiError {
	return &apiError{Status: http.StatusUnprocessableEntity, Code: "analysis_failed", Message: err.Error()}
}

func errTimeout() *apiError {
	return &apiError{Status: http.StatusServiceUnavailable, Code: "timeout", Message: "analysis did not finish within the request budget"}
}

func errTooLarge(limit int64) *apiError {
	return &apiError{Status: http.StatusRequestEntityTooLarge, Code: "too_large",
		Message: fmt.Sprintf("request body exceeds the %d-byte limit", limit)}
}

func errNotFound(id string) *apiError {
	return &apiError{Status: http.StatusNotFound, Code: "not_found", Message: fmt.Sprintf("no session %q", id)}
}

func errSessionLimit(max int) *apiError {
	return &apiError{Status: http.StatusTooManyRequests, Code: "session_limit",
		Message: fmt.Sprintf("session table is full (%d open); DELETE one first", max)}
}

func errOverloaded() *apiError {
	return &apiError{Status: http.StatusTooManyRequests, Code: "overloaded",
		Message:    "server is at capacity and the admission queue is full; retry later",
		RetryAfter: 1}
}

func errInternal(err error) *apiError {
	return &apiError{Status: http.StatusInternalServerError, Code: "internal",
		Message: fmt.Sprintf("internal error: %v", err)}
}

func errFaultInjected(err error) *apiError {
	return &apiError{Status: http.StatusInternalServerError, Code: "fault_injected", Message: err.Error()}
}

func errSessionBroken() *apiError {
	return &apiError{Status: http.StatusConflict, Code: "session_poisoned",
		Message: "a failed edit left this session inconsistent; DELETE it and recreate"}
}

// errFrom classifies a hardened-pipeline error into the structured
// vocabulary: cancellation → timeout, injected faults → fault_injected,
// captured panics → internal, broken sessions → session_poisoned, and
// everything else (parse/semantic failures) → analysis_failed.
func errFrom(err error) *apiError {
	var (
		inj *faultinject.InjectedError
		pe  *batch.PanicError
	)
	switch {
	case errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled):
		return errTimeout()
	case errors.Is(err, sideeffect.ErrSessionBroken):
		return errSessionBroken()
	case errors.As(err, &inj):
		return errFaultInjected(err)
	case errors.As(err, &pe):
		return errInternal(err)
	default:
		return errAnalysis(err)
	}
}

// handlerFunc is a route body: it returns the status and response
// value, or an apiError.
type handlerFunc func(w http.ResponseWriter, r *http.Request) (int, any, *apiError)

// route registers fn under pattern with the shared plumbing: a request
// body size limit, a per-request timeout context, per-request panic
// isolation (a panicking handler answers with a structured 500, and
// the goroutine — which belongs to net/http, not a worker pool —
// survives), a fault point named after the endpoint, request counting
// by endpoint label, and structured error rendering.
func (s *Server) route(pattern, label string, fn handlerFunc) {
	s.routeWith(pattern, label, fn, false)
}

// routeHeavy is route behind the admission gate: the handler computes
// (or may compute), so it must hold an in-flight slot. Requests beyond
// MaxInFlight wait, requests beyond MaxQueue are shed with 429.
func (s *Server) routeHeavy(pattern, label string, fn handlerFunc) {
	s.routeWith(pattern, label, fn, true)
}

func (s *Server) routeWith(pattern, label string, fn handlerFunc, heavy bool) {
	s.mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
		r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxRequestBytes)
		ctx, cancel := context.WithTimeout(r.Context(), s.cfg.Timeout)
		defer cancel()
		status, body, apiErr := s.serve(ctx, label, heavy, fn, w, r)
		if apiErr != nil {
			status = apiErr.Status
			s.met.failure(apiErr.Code)
			if apiErr.RetryAfter > 0 {
				w.Header().Set("Retry-After", strconv.Itoa(apiErr.RetryAfter))
			}
			writeJSON(w, status, map[string]*apiError{"error": apiErr})
		} else {
			writeJSON(w, status, body)
		}
		s.met.request(label, status)
	})
}

// serve runs one request body under admission control, the endpoint
// fault point, and panic isolation.
func (s *Server) serve(ctx context.Context, label string, heavy bool, fn handlerFunc, w http.ResponseWriter, r *http.Request) (status int, body any, apiErr *apiError) {
	if heavy {
		if apiErr := s.adm.acquire(ctx); apiErr != nil {
			return 0, nil, apiErr
		}
		defer s.adm.release()
	}
	defer func() {
		if rec := recover(); rec != nil {
			s.met.panicked()
			if ip, ok := rec.(*faultinject.InjectedPanic); ok {
				status, body, apiErr = 0, nil, &apiError{
					Status: http.StatusInternalServerError, Code: "fault_injected", Message: ip.String(),
				}
				return
			}
			pe, ok := rec.(*batch.PanicError)
			if !ok {
				pe = &batch.PanicError{Value: rec, Stack: debug.Stack()}
			}
			status, body, apiErr = 0, nil, errInternal(pe)
		}
	}()
	// The endpoint fault point: an injected panic exercises the
	// recovery above, an injected error the structured-500 path.
	if err := s.faults.At("server" + label); err != nil {
		return 0, nil, errFaultInjected(err)
	}
	return fn(w, r.WithContext(ctx))
}

// FaultCounts reports the injector's per-site/kind fault counts (nil
// when fault injection is disarmed). Used by the chaos harness to
// assert determinism.
func (s *Server) FaultCounts() map[string]uint64 { return s.faults.Counts() }

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// decodeJSON reads the request body into v, translating the
// MaxBytesReader overflow into the structured 413.
func (s *Server) decodeJSON(r *http.Request, v any) *apiError {
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			return errTooLarge(tooLarge.Limit)
		}
		return errBadRequest("invalid JSON body: %v", err)
	}
	return nil
}

// lower is the cache fill's frontend step. MiniPL source is parsed,
// checked and pruned as sideeffect.AnalyzeContext does; Go source
// lowers as a single-file package, returned too so its notes and
// confidence table ride along on the cache entry.
func lower(lang, src string) (*ir.Program, *gofront.Package, error) {
	if lang == "go" {
		pkg, err := gofront.AnalyzeSource("source.go", src)
		if err != nil {
			return nil, nil, err
		}
		return pkg.Prog, pkg, nil
	}
	prog, err := sem.AnalyzeSource(src)
	if err != nil {
		return nil, nil, fmt.Errorf("sideeffect: %w", err)
	}
	return prog.Prune(), nil, nil
}

// goCacheKey derives the cache address of a single-file Go analysis.
// The namespace folds in the frontend's lowering version, so an entry
// persisted by an older lowering (coarser struct tracking, no module
// resolution) is never served for the same bytes after the frontend
// changed what those bytes mean. Whole-module entries live in a
// separate "go-module" namespace derived from the module content hash
// (see internal/indexer), which folds the version in the same way.
func goCacheKey(src string) string {
	return cache.Key(fmt.Sprintf("go\x00v%d\x00", gofront.LoweringVersion) + src)
}

// analyzeCachedLang resolves src through the cache under the request
// context. lang "" and "minipl" select the MiniPL frontend and cache
// namespace; "go" selects the Go frontend under a language-prefixed
// key, so the two frontends never serve each other's entries.
//
// A hit returns immediately; a miss runs the frontend step and then
// the pipeline with the deadline threaded through every stage, and
// concurrent identical requests share one computation. A miss whose
// first attempt dies with a captured panic is retried once in degraded
// mode (sequential, dense allocation, nothing pooled). The computation
// runs on the request's own goroutine: a cancelled request stops at the
// next stage boundary, releases its arena, and frees its admission
// slot. Errors are never cached, so the next request retries. On
// success the caller owns one reference on the returned entry and must
// release it when done reading.
func (s *Server) analyzeCachedLang(ctx context.Context, lang, src string) (*cached, string, cache.Outcome, *apiError) {
	var key string
	switch lang {
	case "", "minipl":
		key = cache.Key(src)
	case "go":
		key = goCacheKey(src)
	default:
		return nil, "", 0, errBadRequest("unknown lang %q (want minipl or go)", lang)
	}
	entry, outcome, err := s.cache.Do(key, func() (*cached, error) {
		start := time.Now()
		prog, pkg, err := lower(lang, src)
		if err != nil {
			return nil, err
		}
		// Cache misses run profiled so /metrics can attribute analysis
		// time to pipeline stages.
		popts := s.opts
		popts.Profile = true
		a, err := sideeffect.AnalyzeProgramContext(ctx, prog, popts)
		if err != nil {
			var pe *batch.PanicError
			if !errors.As(err, &pe) || ctx.Err() != nil {
				return nil, err
			}
			a, err = sideeffect.AnalyzeProgramContext(ctx, prog, sideeffect.Options{
				Sequential: true, Alloc: core.AllocDense, Profile: true, Faults: s.opts.Faults,
			})
			if err != nil {
				return nil, err
			}
			s.met.degradedRetry()
		}
		s.met.observeAnalysis(time.Since(start).Seconds())
		s.met.observeStages(a.Stages.Snapshot())
		s.met.observeGMODWork(a.GMODWork())
		e := newCached(a)
		if pkg != nil {
			e.lang, e.notes, e.conf = "go", pkg.Notes, pkg.ConfidenceReport()
		}
		return e, nil
	})
	if err != nil {
		return nil, key, outcome, errFrom(err)
	}
	return entry, key, outcome, nil
}

// analyzeRequest is the /analyze body. Query is optional; without it
// the response carries the full JSON report.
type analyzeRequest struct {
	Source string        `json:"source"`
	Query  *analyzeQuery `json:"query,omitempty"`
	// Lang selects the frontend: "" or "minipl" for MiniPL source,
	// "go" to lower Source as a single-file Go package. The ?lang=
	// query parameter sets it too (the body wins when both appear).
	Lang string `json:"lang,omitempty"`
}

// analyzeQuery selects one answer instead of the full report. Kind is
// one of "gmod", "guse", "rmod" (these need Proc), "callsites", or
// "report" (the human-readable text).
type analyzeQuery struct {
	Kind string `json:"kind"`
	Proc string `json:"proc,omitempty"`
}

// analyzeResponse is the /analyze answer. Exactly one of Report, Text,
// Names, or CallSites is populated, depending on the query.
type analyzeResponse struct {
	Hash      string                `json:"hash"`
	Cached    bool                  `json:"cached"`
	Report    *report.JSONReport    `json:"report,omitempty"`
	Text      string                `json:"text,omitempty"`
	Names     []string              `json:"names,omitempty"`
	CallSites []sideeffect.CallSite `json:"callSites,omitempty"`
	// Notes carries the Go frontend's per-function lowering-confidence
	// records (absent for MiniPL sources).
	Notes []gofront.Note `json:"notes,omitempty"`
}

func (s *Server) handleAnalyze(w http.ResponseWriter, r *http.Request) (int, any, *apiError) {
	var req analyzeRequest
	if apiErr := s.decodeJSON(r, &req); apiErr != nil {
		return 0, nil, apiErr
	}
	if req.Source == "" {
		return 0, nil, errBadRequest("missing \"source\"")
	}
	if req.Lang == "" {
		req.Lang = r.URL.Query().Get("lang")
	}
	entry, key, outcome, apiErr := s.analyzeCachedLang(r.Context(), req.Lang, req.Source)
	if apiErr != nil {
		return 0, nil, apiErr
	}
	defer entry.release()
	if entry.snap != nil {
		s.met.warmHit()
	}
	resp := analyzeResponse{Hash: key, Cached: outcome == cache.Hit, Notes: entry.notes}
	if req.Query == nil || req.Query.Kind == "" {
		resp.Report = entry.jsonReport()
		return http.StatusOK, resp, nil
	}
	q := req.Query
	var err error
	switch q.Kind {
	case "report":
		resp.Text = entry.textReport()
	case "gmod":
		resp.Names, err = entry.modNames(q.Proc)
	case "guse":
		resp.Names, err = entry.useNames(q.Proc)
	case "rmod":
		resp.Names, err = entry.rmodNames(q.Proc)
	case "callsites":
		resp.CallSites = entry.callSites()
	default:
		return 0, nil, errBadRequest("unknown query kind %q (want gmod, guse, rmod, callsites, or report)", q.Kind)
	}
	if err != nil {
		return 0, nil, errBadRequest("%v", err)
	}
	if resp.Names == nil {
		resp.Names = []string{}
	}
	return http.StatusOK, resp, nil
}

// batchRequest is the /batch body.
type batchRequest struct {
	Sources []string `json:"sources"`
}

// batchEntry is one source's outcome, in input order.
type batchEntry struct {
	Hash   string             `json:"hash"`
	Cached bool               `json:"cached"`
	Report *report.JSONReport `json:"report,omitempty"`
	Error  string             `json:"error,omitempty"`
	// Degraded marks an entry served by the sequential fallback after
	// its first attempt died with a captured panic.
	Degraded bool `json:"degraded,omitempty"`
}

func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) (int, any, *apiError) {
	var req batchRequest
	if apiErr := s.decodeJSON(r, &req); apiErr != nil {
		return 0, nil, apiErr
	}
	if len(req.Sources) == 0 {
		return 0, nil, errBadRequest("missing \"sources\"")
	}
	if len(req.Sources) > s.cfg.MaxBatchSources {
		return 0, nil, errBadRequest("%d sources exceed the per-batch limit of %d", len(req.Sources), s.cfg.MaxBatchSources)
	}
	return http.StatusOK, map[string][]batchEntry{"results": s.runBatch(r.Context(), req.Sources)}, nil
}

// runBatch resolves every source, serving repeats and warm entries
// from the cache and fanning the rest out over the hardened batch
// pipeline on the request's own goroutine. Cancellation propagates:
// undispatched sources come back with the timeout error, running ones
// stop at their next stage boundary, arenas drain, and the worker pool
// is free when this returns — a cancelled batch cannot strand workers.
func (s *Server) runBatch(ctx context.Context, sources []string) []batchEntry {
	entries := make([]batchEntry, len(sources))
	var missSrcs []string
	missAt := make(map[string]int) // key → index into missSrcs
	for i, src := range sources {
		key := cache.Key(src)
		entries[i].Hash = key
		if e, ok := s.cache.Get(key); ok {
			entries[i].Cached = true
			entries[i].Report = e.jsonReport()
			if e.snap != nil {
				s.met.warmHit()
			}
			e.release()
			continue
		}
		if _, dup := missAt[key]; !dup {
			missAt[key] = len(missSrcs)
			missSrcs = append(missSrcs, src)
		}
	}
	if len(missSrcs) == 0 {
		return entries
	}
	start := time.Now()
	results := sideeffect.AnalyzeAllContext(ctx, missSrcs, s.opts)
	s.met.observeAnalysis(time.Since(start).Seconds())
	fresh := make(map[string]*cached, len(results))
	for j, res := range results {
		key := cache.Key(missSrcs[j])
		if res.Err == nil {
			e := newCached(res.Analysis)
			fresh[key] = e
			s.cache.Put(key, e)
			s.met.observeGMODWork(res.Analysis.GMODWork())
			if res.Degraded {
				s.met.degradedRetry()
			}
		}
	}
	// The creator references on fresh entries are released after the
	// response rows are filled; the cache's own references keep the
	// entries alive for later requests.
	defer func() {
		for _, e := range fresh {
			e.release()
		}
	}()
	for i := range sources {
		if entries[i].Report != nil || entries[i].Error != "" {
			continue
		}
		key := entries[i].Hash
		j, queued := missAt[key]
		switch {
		case !queued:
			// Unreachable: every non-cached source was queued.
			entries[i].Error = fmt.Sprintf("internal: source %d not analyzed", i)
		case results[j].Err != nil:
			entries[i].Error = results[j].Err.Error()
		default:
			entries[i].Report = fresh[key].jsonReport()
			entries[i].Degraded = results[j].Degraded
		}
	}
	return entries
}

// role reports how this process participates in a cluster:
// "shard" when it carries a ShardID, "standalone" otherwise.
func (s *Server) role() string {
	if s.cfg.ShardID != "" {
		return "shard"
	}
	return "standalone"
}

// effectiveWorkers is the analysis pool size actually in use (the
// library treats 0 and negative Workers as GOMAXPROCS).
func (s *Server) effectiveWorkers() int {
	if s.cfg.Workers > 0 {
		return s.cfg.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// handleClusterStatus is GET /cluster/status on a shard (or standalone
// server): its identity plus the capacity facts — CPU count,
// GOMAXPROCS, worker-pool size, admission limits — a coordinator or
// operator needs to interpret shard-scaling numbers. A fleet packing
// more workers than cores onto one box is oversubscribed: aggregate
// qps then measures scheduler contention, not capacity, so the skew is
// surfaced here and in the BENCH emitters rather than discovered after
// a confusing benchmark.
func (s *Server) handleClusterStatus(w http.ResponseWriter, r *http.Request) (int, any, *apiError) {
	workers := s.effectiveWorkers()
	return http.StatusOK, map[string]any{
		"role":           s.role(),
		"shard":          s.cfg.ShardID,
		"numCPU":         runtime.NumCPU(),
		"gomaxprocs":     runtime.GOMAXPROCS(0),
		"workers":        workers,
		"maxInFlight":    s.cfg.MaxInFlight,
		"maxQueue":       s.cfg.MaxQueue,
		"oversubscribed": workers > runtime.NumCPU() || runtime.GOMAXPROCS(0) > runtime.NumCPU(),
	}, nil
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	rs := robustnessStats{
		inFlight: s.adm.inFlight(),
		queued:   s.adm.queued.Load(),
		shed:     s.adm.shed.Load(),
		faults:   s.faults.Counts(),
	}
	fmt.Fprint(w, s.met.render(s.cache.Stats(), s.sessions.open(), rs))
	// Capacity gauges: shard-scaling numbers are only interpretable
	// when the worker-vs-core skew is visible next to them.
	fmt.Fprintf(w, "# HELP modand_num_cpu Logical CPUs visible to this process.\n")
	fmt.Fprintf(w, "# TYPE modand_num_cpu gauge\nmodand_num_cpu %d\n", runtime.NumCPU())
	fmt.Fprintf(w, "# TYPE modand_gomaxprocs gauge\nmodand_gomaxprocs %d\n", runtime.GOMAXPROCS(0))
	fmt.Fprintf(w, "# HELP modand_workers Analysis worker-pool size in effect.\n")
	fmt.Fprintf(w, "# TYPE modand_workers gauge\nmodand_workers %d\n", s.effectiveWorkers())
	if s.cfg.ShardID != "" {
		fmt.Fprintf(w, "# HELP modand_shard_info This replica's cluster identity.\n")
		fmt.Fprintf(w, "# TYPE modand_shard_info gauge\nmodand_shard_info{shard=%q} 1\n", s.cfg.ShardID)
	}
	if v := s.indexView(); v != nil {
		fmt.Fprint(w, v.MetricsLines())
	}
}
