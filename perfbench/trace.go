package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one timed call into a layer. Spans of one operation share Op;
// Parent indexes the enclosing span, or is -1 for an operation's root.
type span struct {
	Name   string  `json:"name"`
	Op     int64   `json:"op"`
	Parent int     `json:"parent"`
	Start  float64 `json:"start_ms"`
	End    float64 `json:"end_ms"`
}

// tracer keeps spans and per-operation samples in memory; they are
// written out once the run ends. All spans are recorded by the
// benchmark around its own calls into the program: nothing is traced
// inside the program. A nil *tracer records nothing.
type tracer struct {
	mu     sync.Mutex
	t0     time.Time
	spans  []span
	vals   map[string][]float64
	nextOp int64
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), vals: map[string][]float64{}}
}

// scope is an open span that further spans nest under.
type scope struct {
	t  *tracer
	op int64
	at int
}

// root opens the root span of a new operation.
func (t *tracer) root(name string) scope {
	if t == nil {
		return scope{}
	}
	t.mu.Lock()
	t.nextOp++
	op := t.nextOp
	t.mu.Unlock()
	return scope{t: t, op: op, at: t.open(op, -1, name)}
}

func (t *tracer) open(op int64, parent int, name string) int {
	now := ms(time.Since(t.t0))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Op: op, Parent: parent, Start: now, End: -1})
	return len(t.spans) - 1
}

// sub opens a child span; close it with end.
func (s scope) sub(name string) scope {
	if s.t == nil {
		return s
	}
	return scope{t: s.t, op: s.op, at: s.t.open(s.op, s.at, name)}
}

// end closes the span and returns its duration.
func (s scope) end() time.Duration {
	if s.t == nil {
		return 0
	}
	now := ms(time.Since(s.t.t0))
	s.t.mu.Lock()
	defer s.t.mu.Unlock()
	sp := &s.t.spans[s.at]
	sp.End = now
	return time.Duration((sp.End - sp.Start) * float64(time.Millisecond))
}

// do runs f inside a child span.
func (s scope) do(name string, f func()) {
	c := s.sub(name)
	f()
	c.end()
}

// add records one sample of a named quantity.
func (t *tracer) add(name string, v float64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.vals[name] = append(t.vals[name], v)
}

// selfMS returns the self time of every closed span called name: its
// duration minus the time its child spans took.
func (t *tracer) selfMS(name string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	child := make([]float64, len(t.spans))
	for _, sp := range t.spans {
		if sp.Parent >= 0 && sp.End >= 0 {
			child[sp.Parent] += sp.End - sp.Start
		}
	}
	var out []float64
	for i, sp := range t.spans {
		if sp.Name == name && sp.End >= 0 {
			out = append(out, max(sp.End-sp.Start-child[i], 0))
		}
	}
	return out
}

// durMS returns the full duration of every closed span called name.
func (t *tracer) durMS(name string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, sp := range t.spans {
		if sp.Name == name && sp.End >= 0 {
			out = append(out, sp.End-sp.Start)
		}
	}
	return out
}

func (t *tracer) samples(name string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.vals[name]
}

// dump writes the spans and samples under .bench_build and returns the
// file's path.
func (t *tracer) dump(workload string, seed int64) (string, error) {
	path := filepath.Join(".bench_build", fmt.Sprintf("trace-%s-%d.json", workload, seed))
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return "", err
	}
	t.mu.Lock()
	b, err := json.Marshal(map[string]any{"spans": t.spans, "samples": t.vals})
	t.mu.Unlock()
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, b, 0o644)
}
