package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/bits"
	"math/rand"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"sideeffect"
	"sideeffect/internal/cache"
	"sideeffect/internal/lint"
	"sideeffect/internal/report"
	"sideeffect/internal/server"
)

const (
	daemonPool     = 32  // warm sources
	daemonClients  = 1   // closed-loop clients, one keep-alive connection each
	daemonMinProcs = 64  // pool and cold sources have 64…256 procedures:
	daemonMaxProcs = 256 // a full report grows quadratically, 58 MB at N=1024
	sessionProcs   = 64  // per-client session source
)

var daemonMix = workload{
	name: "daemon-mix",
	why: "in-process daemon over loopback at N=64..256: HTTP, cache, render and encode do most of the work and core little; " +
		"edits beside the reads show whether a read-path change costs writes",
	mix: "1 client, closed loop, one keep-alive connection; 60% warm /analyze over gmod, guse, rmod, callsites and " +
		"the full report; 15% cold /analyze (fresh seed, gmod); 10% warm /lint; 15% /session/{id}/edit (additive)",
	nominal: [numClasses]int{analyze: 200, query: 1000, edit: 200, lintOp: 100},
	setup: func(seed int64) (bench, error) {
		return newDaemonBench(seed, daemonPool)
	},
}

// analyzeBody mirrors the daemon's /analyze response, in field order,
// so the expected warm bodies can be rendered from the library. The
// text report and Go notes are left out: no request here sets them.
type analyzeBody struct {
	Hash      string                `json:"hash"`
	Cached    bool                  `json:"cached"`
	Report    *report.JSONReport    `json:"report,omitempty"`
	Names     []string              `json:"names,omitempty"`
	CallSites []sideeffect.CallSite `json:"callSites,omitempty"`
}

// encodeLikeDaemon encodes v the way the daemon writes responses.
func encodeLikeDaemon(v any) []byte {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v) // writes to a bytes.Buffer
	return buf.Bytes()
}

// poolSource is one warm source with its expected answers.
type poolSource struct {
	src    string
	procs  []string
	oracle *oracle
	// SHA-256 of the expected warm bodies: report and callSites
	// rendered by the library at set-up; lint taken from a set-up
	// request whose counts matched the library's lint run.
	report, callSites, lint [32]byte
	// lintCounts is the library lint run's "<findings> <counts>".
	lintCounts string
}

type daemonBench struct {
	seed    int64
	pool    []*poolSource
	hs      *http.Server
	url     string
	clients []*daemonClient
	tr      atomic.Pointer[tracer]
	// handler holds the handler time of each traced request, by op id.
	handler sync.Map
}

type daemonClient struct {
	http    *http.Client
	session string
	src     string // the session's current source
	procs   []string
	edits   int
}

func newDaemonBench(seed int64, pool int) (*daemonBench, error) {
	b := &daemonBench{seed: seed}
	var err error
	if b.pool, err = newPool(pool); err != nil {
		return nil, err
	}
	srv := server.New(server.Config{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	b.url = "http://" + ln.Addr().String()
	b.hs = &http.Server{Handler: b.wrap(srv.Handler())}
	go b.hs.Serve(ln) //nolint:errcheck // returns ErrServerClosed on close
	setupClient := newHTTPClient()
	defer setupClient.CloseIdleConnections()
	for _, ps := range b.pool {
		if err := b.warm(setupClient, ps); err != nil {
			b.close()
			return nil, err
		}
	}
	for i := 0; i < daemonClients; i++ {
		// Session programs are the same for every seed, like scale-lib's
		// pool; the seed draws the edits.
		c := &daemonClient{http: newHTTPClient(), src: genSource(sessionProcs, int64(500+i), scaleDepth)}
		c.procs = procNames(c.src)
		b.clients = append(b.clients, c)
		body, _ := json.Marshal(map[string]string{"source": c.src})
		r, err := post(c.http, b.url+"/session", body, "", false)
		if err == nil && r.status != http.StatusCreated {
			err = fmt.Errorf("/session: status %d", r.status)
		}
		var st struct {
			ID string `json:"id"`
		}
		if err == nil {
			err = json.Unmarshal(r.body, &st)
		}
		if err != nil {
			b.close()
			return nil, err
		}
		c.session = st.ID
	}
	return b, nil
}

// newPool generates n warm sources spread over the size ladder. They
// are the same for every seed, like scale-lib's programs: lint and
// report costs depend on a program's shape as much as on its size, and
// 32 programs do not average that out.
func newPool(n int) ([]*poolSource, error) {
	var pool []*poolSource
	for i := 0; i < n; i++ {
		ps, err := newPoolSource(genSource(poolProcs(i*daemonPool/n), int64(1000+i), scaleDepth))
		if err != nil {
			return nil, err
		}
		pool = append(pool, ps)
	}
	return pool, nil
}

func newPoolSource(src string) (*poolSource, error) {
	ps := &poolSource{src: src, procs: procNames(src)}
	var err error
	if ps.oracle, err = oracleOfSource(src); err != nil {
		return nil, err
	}
	a, err := sideeffect.AnalyzeContext(context.Background(), src, sideeffect.Options{})
	if err != nil {
		return nil, err
	}
	defer a.Release()
	if summaryDigest(a.Prog, a.Mod.GMOD, a.Use.GMOD) != ps.oracle.digest() {
		return nil, errors.New("library MOD/USE disagree with the Banning oracle at set-up")
	}
	hash := cache.Key(src)
	ps.report = sha256.Sum256(encodeLikeDaemon(analyzeBody{Hash: hash, Cached: true, Report: report.BuildJSON(a.Mod, a.Use, a.Aliases, a.SecMod)}))
	ps.callSites = sha256.Sum256(encodeLikeDaemon(analyzeBody{Hash: hash, Cached: true, CallSites: a.CallSites()}))
	rep, err := a.LintContext(context.Background(), lint.Config{})
	if err != nil {
		return nil, err
	}
	ps.lintCounts = strconv.Itoa(len(rep.Diags)) + " " + fmt.Sprint(rep.Counts)
	return ps, nil
}

// warm fills the daemon's cache with ps, checks the warm full report
// against the library's, and keeps the lint body once its counts match
// the library's lint run.
func (b *daemonBench) warm(c *http.Client, ps *poolSource) error {
	fill, _ := json.Marshal(map[string]any{"source": ps.src, "query": map[string]string{"kind": "gmod", "proc": ps.procs[0]}})
	if _, err := post(c, b.url+"/analyze", fill, "", false); err != nil {
		return err
	}
	body, _ := json.Marshal(map[string]string{"source": ps.src})
	if r, err := post(c, b.url+"/analyze", body, "", true); err != nil || r.sum != ps.report {
		return fmt.Errorf("warm report differs from the library's (%v)", err)
	}
	r, err := post(c, b.url+"/lint", body, "", false)
	if err == nil {
		err = ps.checkLint(r.body)
	}
	ps.lint = sha256.Sum256(r.body)
	return err
}

// checkLint compares a /lint body's counts with the library's lint run.
func (ps *poolSource) checkLint(body []byte) error {
	var got struct {
		Findings int            `json:"findings"`
		Counts   map[string]int `json:"counts"`
	}
	if err := json.Unmarshal(body, &got); err != nil {
		return err
	}
	if strconv.Itoa(got.Findings)+" "+fmt.Sprint(got.Counts) != ps.lintCounts {
		return fmt.Errorf("/lint counts differ from the library's lint run (%s)", ps.lintCounts)
	}
	return nil
}

func newHTTPClient() *http.Client {
	return &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1, DisableCompression: true}}
}

// reply is one response as the benchmark keeps it.
type reply struct {
	status int
	// body is the whole body, or nil when it was hashed as it arrived;
	// sum is then its SHA-256.
	body []byte
	sum  [32]byte
	// attempts is the coordinator's X-Modand-Attempts header.
	attempts int
}

// post sends one request and reads the response. label, when non-empty,
// is sent for the traced handler wrapper. hashed keeps only the SHA-256
// of the body, so multi-megabyte reports are not held in memory.
func post(c *http.Client, url string, body []byte, label string, hashed bool) (reply, error) {
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return reply{}, err
	}
	req.Header.Set("Content-Type", "application/json")
	if label != "" {
		req.Header.Set(opHeader, label)
	}
	resp, err := c.Do(req)
	if err != nil {
		return reply{}, err
	}
	defer resp.Body.Close()
	r := reply{status: resp.StatusCode}
	r.attempts, _ = strconv.Atoi(resp.Header.Get("X-Modand-Attempts"))
	if !hashed {
		r.body, err = io.ReadAll(resp.Body)
		return r, err
	}
	h := sha256.New()
	_, err = io.Copy(h, resp.Body)
	h.Sum(r.sum[:0])
	return r, err
}

// opHeader carries "<op> <span> <class>" of a traced request so the
// handler wrapper can record its span under the client's.
const opHeader = "X-Perfbench-Op"

// wrap times the daemon's handler from outside on traced requests.
func (b *daemonBench) wrap(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		tr := b.tr.Load()
		f := strings.Fields(r.Header.Get(opHeader))
		if tr == nil || len(f) != 3 {
			h.ServeHTTP(w, r)
			return
		}
		op, _ := strconv.ParseInt(f[0], 10, 64)
		at, _ := strconv.Atoi(f[1])
		s := scope{t: tr, op: op, at: at}.sub("server.handler." + f[2])
		h.ServeHTTP(w, r)
		b.handler.Store(op, s.end())
	})
}

func (b *daemonBench) close() {
	if b.hs != nil {
		_ = b.hs.Close() // closes the listener and every connection
	}
	for _, c := range b.clients {
		c.http.CloseIdleConnections()
	}
}

func (b *daemonBench) measure(deadline time.Time, tr *tracer) *opLog {
	before := b.counters()
	if tr != nil {
		b.tr.Store(tr)
		defer b.tr.Store(nil)
	}
	logs := make([]*opLog, len(b.clients))
	var wg sync.WaitGroup
	for i, c := range b.clients {
		logs[i] = &opLog{}
		wg.Add(1)
		go func(i int, c *daemonClient) {
			defer wg.Done()
			b.loop(c, rand.New(rand.NewSource(b.seed*31+int64(i))), int64(i), deadline, tr, logs[i])
		}(i, c)
	}
	wg.Wait()
	log := &opLog{}
	for i, c := range b.clients {
		log.merge(logs[i])
		if err := b.checkSession(c); err != nil {
			log.fail(edit, err)
		}
	}
	if tr != nil {
		after := b.counters()
		hits, misses := after["modand_cache_hits_total"]-before["modand_cache_hits_total"],
			after["modand_cache_misses_total"]-before["modand_cache_misses_total"]
		tr.add("server.cache_hit_ratio", hits/max(hits+misses, 1))
		tr.add("server.shed", after["modand_shed_total"]-before["modand_shed_total"])
	}
	return log
}

// warmKinds are the query kinds of a warm /analyze, in the order a
// client cycles through them. Eight in ten are single-procedure
// answers, so the query median is a typical read rather than the
// boundary between reads and multi-megabyte reports; callsites and the
// full report set the recorded tail.
var warmKinds = []string{"gmod", "guse", "rmod", "gmod", "callsites", "guse", "gmod", "rmod", "guse", "report"}

// hashedKinds are the kinds whose bodies are checked by hash.
var hashedKinds = map[string]bool{"callsites": true, "report": true}

// schedule is one block of a client's requests: 60% warm queries, 15%
// cold analyses, 10% lint, 15% edits, exactly. Each block runs in a
// seeded order, so every run issues the same mix.
var schedule = func() []class {
	var s []class
	for _, part := range []struct {
		c class
		n int
	}{{analyze, 3}, {query, 12}, {edit, 3}, {lintOp, 2}} {
		for i := 0; i < part.n; i++ {
			s = append(s, part.c)
		}
	}
	return s
}()

// poolProcs is the size of the i-th pool source: a fixed ladder from 64
// to 250 procedures, so a seed changes the programs but not their sizes.
func poolProcs(i int) int {
	return daemonMinProcs + (i%daemonPool)*(daemonMaxProcs-daemonMinProcs)/daemonPool
}

func (b *daemonBench) loop(c *daemonClient, rng *rand.Rand, client int64, deadline time.Time, tr *tracer, log *opLog) {
	// Each client walks the size ladder from its own offset in
	// bit-reversed order, so however many operations a run completes,
	// the sizes it touched are spread evenly over the ladder. Queries
	// visit every kind of a source before moving to the next source.
	var nq, na, nl int
	off := int(client) * daemonPool / daemonClients
	at := func(n int) int { return off + int(bits.Reverse8(uint8(n%daemonPool))>>3) }
	for time.Now().Before(deadline) {
		for _, j := range rng.Perm(len(schedule)) {
			if !time.Now().Before(deadline) {
				return
			}
			switch schedule[j] {
			case query:
				ps := b.pool[at(nq/len(warmKinds))%len(b.pool)]
				kind := warmKinds[nq%len(warmKinds)]
				nq++
				proc := ps.procs[rng.Intn(len(ps.procs))]
				req := map[string]any{"source": ps.src}
				if kind != "report" {
					req["query"] = map[string]string{"kind": kind, "proc": proc}
				}
				r, d, err := b.do(c, tr, query, "/analyze", req, hashedKinds[kind])
				if err == nil {
					err = ps.checkWarm(kind, proc, r)
				}
				log.record(query, d, err)
			case analyze:
				src := genSource(poolProcs(at(na)), -(b.seed*1_000_000 + client*100_000 + int64(na)), scaleDepth)
				na++
				procs := procNames(src)
				proc := procs[rng.Intn(len(procs))]
				r, d, err := b.do(c, tr, analyze, "/analyze",
					map[string]any{"source": src, "query": map[string]string{"kind": "gmod", "proc": proc}}, false)
				if err == nil {
					err = checkCold(src, proc, r.body)
				}
				log.record(analyze, d, err)
			case lintOp:
				ps := b.pool[at(nl)%len(b.pool)]
				nl++
				r, d, err := b.do(c, tr, lintOp, "/lint", map[string]any{"source": ps.src}, true)
				if err == nil && r.sum != ps.lint {
					err = errors.New("/lint body differs from the warm set-up body")
				}
				log.record(lintOp, d, err)
			case edit:
				e := globalWrite{c.procs[rng.Intn(len(c.procs))], rng.Intn(sessionProcs)}
				next, err := e.apply(c.src)
				if err != nil {
					log.fail(edit, err)
					continue
				}
				r, d, err := b.do(c, tr, edit, "/session/"+c.session+"/edit", map[string]any{"source": next}, false)
				if err == nil {
					var st struct {
						Mode string `json:"mode"`
					}
					if err = json.Unmarshal(r.body, &st); err == nil && st.Mode != "incremental" {
						err = fmt.Errorf("edit came back %q, want incremental", st.Mode)
					}
				}
				if err == nil {
					c.src = next
					c.edits++
				}
				log.record(edit, d, err)
			}
		}
	}
}

// do sends one operation, timing it from the client's side. Any status
// but 200 counts as a failed operation.
func (b *daemonBench) do(c *daemonClient, tr *tracer, cl class, path string, req any, hashed bool) (reply, time.Duration, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return reply{}, 0, err
	}
	op := tr.root("op.http." + cl.String())
	label := ""
	if tr != nil {
		label = fmt.Sprintf("%d %d %s", op.op, op.at, cl)
	}
	start := time.Now()
	r, err := post(c.http, b.url+path, body, label, hashed)
	d := time.Since(start)
	op.end()
	if tr != nil {
		if h, ok := b.handler.LoadAndDelete(op.op); ok {
			tr.add("server.http", ms(d-h.(time.Duration)))
		}
	}
	if err == nil && r.status != http.StatusOK {
		err = fmt.Errorf("%s: status %d", path, r.status)
	}
	return r, d, err
}

func (ps *poolSource) checkWarm(kind, proc string, r reply) error {
	switch kind {
	case "report":
		if r.sum != ps.report {
			return errors.New("warm report differs from the library-rendered report")
		}
		return nil
	case "callsites":
		if r.sum != ps.callSites {
			return errors.New("warm callsites differ from the library's")
		}
		return nil
	}
	var got analyzeBody
	if err := json.Unmarshal(r.body, &got); err != nil {
		return err
	}
	var want []string
	switch kind {
	case "gmod", "guse":
		mod, use, err := ps.oracle.modUse(proc)
		if err != nil {
			return err
		}
		want = mod
		if kind == "guse" {
			want = use
		}
	case "rmod":
		want = ps.oracle.rmodNames(proc)
	}
	if !sameNames(got.Names, want) {
		return fmt.Errorf("%s(%s) disagrees with the oracle", kind, proc)
	}
	return nil
}

func checkCold(src, proc string, resp []byte) error {
	var got analyzeBody
	if err := json.Unmarshal(resp, &got); err != nil {
		return err
	}
	o, err := oracleOfSource(src)
	if err != nil {
		return err
	}
	want, _, err := o.modUse(proc)
	if err != nil {
		return err
	}
	if !sameNames(got.Names, want) {
		return fmt.Errorf("cold gmod(%s) disagrees with the Banning oracle", proc)
	}
	return nil
}

// checkSession compares the session's post-edit answers with the
// oracle run on its edited source.
func (b *daemonBench) checkSession(c *daemonClient) error {
	resp, err := c.http.Get(b.url + "/session/" + c.session)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	var st struct {
		Edits            int                `json:"edits"`
		IncrementalEdits int                `json:"incrementalEdits"`
		Report           *report.JSONReport `json:"report"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return err
	}
	if st.Report == nil || st.IncrementalEdits != st.Edits {
		return fmt.Errorf("session: %d of %d edits incremental", st.IncrementalEdits, st.Edits)
	}
	o, err := oracleOfSource(c.src)
	if err != nil {
		return err
	}
	for _, p := range st.Report.Procedures {
		if err := o.checkModUse(p.Name, p.GMOD, p.GUSE); err != nil {
			return fmt.Errorf("session after %d edits: %w", c.edits, err)
		}
	}
	return nil
}

// counters scrapes the daemon's /metrics counters.
func (b *daemonBench) counters() map[string]float64 {
	out := map[string]float64{}
	resp, err := http.Get(b.url + "/metrics")
	if err != nil {
		return out
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	for _, line := range strings.Split(string(body), "\n") {
		f := strings.Fields(line)
		if len(f) == 2 && !strings.HasPrefix(line, "#") {
			if v, err := strconv.ParseFloat(f[1], 64); err == nil {
				out[f[0]] = v
			}
		}
	}
	return out
}
