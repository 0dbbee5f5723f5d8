package server

import (
	"context"
	"net/http"
	"strings"
	"testing"
)

const goSrvSrc = `package p

var counter int

func Bump(p *int) { *p++; counter++ }

func Peek(p *int) int { return *p }
`

// TestAnalyzeGo covers the Go-frontend path of /analyze: lang in the
// body or the query string, content-addressed caching namespaced away
// from MiniPL, and confidence notes on the wire.
func TestAnalyzeGo(t *testing.T) {
	ts := newTestServer(t, Config{})

	var first analyzeResponse
	if code := post(t, ts.URL+"/analyze", map[string]string{"source": goSrvSrc, "lang": "go"}, &first); code != http.StatusOK {
		t.Fatalf("analyze lang=go: status %d", code)
	}
	if first.Cached {
		t.Error("first Go analysis reported cached")
	}
	if first.Report == nil {
		t.Fatal("no JSON report for Go source")
	}
	found := false
	for _, p := range first.Report.Procedures {
		if p.Name == "Bump" {
			found = true
		}
	}
	if !found {
		t.Errorf("report procedures missing Bump: %+v", first.Report.Procedures)
	}

	// Same source again: served from the cache under the same key.
	var second analyzeResponse
	post(t, ts.URL+"/analyze", map[string]string{"source": goSrvSrc, "lang": "go"}, &second)
	if !second.Cached {
		t.Error("repeat Go analysis not served from cache")
	}
	if second.Hash != first.Hash {
		t.Errorf("hash changed across identical requests: %s vs %s", first.Hash, second.Hash)
	}

	// The query-string form selects the same frontend.
	var viaQuery analyzeResponse
	if code := post(t, ts.URL+"/analyze?lang=go", map[string]string{"source": goSrvSrc}, &viaQuery); code != http.StatusOK {
		t.Fatalf("analyze?lang=go: status %d", code)
	}
	if viaQuery.Hash != first.Hash {
		t.Errorf("query-string lang keyed differently: %s vs %s", viaQuery.Hash, first.Hash)
	}

	// A text-report query carries the confidence table.
	var text analyzeResponse
	if code := post(t, ts.URL+"/analyze", map[string]any{
		"source": goSrvSrc, "lang": "go",
		"query": map[string]string{"kind": "report"},
	}, &text); code != http.StatusOK {
		t.Fatalf("report query: status %d", code)
	}
	if !strings.Contains(text.Text, "Lowering confidence") {
		t.Errorf("text report lacks the confidence table:\n%s", text.Text)
	}

	// An unknown language is a 400, not a guess.
	var eb errorBody
	if code := post(t, ts.URL+"/analyze", map[string]string{"source": goSrvSrc, "lang": "cobol"}, &eb); code != http.StatusBadRequest {
		t.Fatalf("lang=cobol: status %d, want 400", code)
	}
}

// TestAnalyzeGoCacheNamespacing pins the key construction: a byte
// string that happens to be valid in both languages must produce two
// distinct cache entries.
func TestAnalyzeGoCacheNamespacing(t *testing.T) {
	ts := newTestServer(t, Config{})
	var asGo analyzeResponse
	if code := post(t, ts.URL+"/analyze", map[string]string{"source": goSrvSrc, "lang": "go"}, &asGo); code != http.StatusOK {
		t.Fatalf("go analysis: status %d", code)
	}
	// The same bytes as MiniPL don't parse — but the failure proves
	// the request missed the Go entry and took the MiniPL path.
	var eb errorBody
	if code := post(t, ts.URL+"/analyze", map[string]string{"source": goSrvSrc}, &eb); code == http.StatusOK {
		t.Fatal("MiniPL analysis of Go source unexpectedly succeeded")
	} else if eb.Error.Code == "" {
		t.Error("MiniPL failure carried no structured error code")
	}
}

// TestAnalyzeGoDegradedNotes asserts that unanalyzable constructs
// surface as degraded per-function notes in the response.
func TestAnalyzeGoDegradedNotes(t *testing.T) {
	ts := newTestServer(t, Config{})
	src := "package p\n\nimport \"fmt\"\n\nfunc Log(p *int) { fmt.Println(p) }\n"
	var resp analyzeResponse
	if code := post(t, ts.URL+"/analyze", map[string]string{"source": src, "lang": "go"}, &resp); code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	var degraded []string
	for _, n := range resp.Notes {
		if n.Confidence.String() == "degraded" {
			degraded = append(degraded, n.Proc)
		}
	}
	if len(degraded) != 1 || degraded[0] != "Log" {
		t.Errorf("degraded notes = %v, want [Log]", degraded)
	}
}

// TestLintGo covers /lint with lang=go end to end.
func TestLintGo(t *testing.T) {
	ts := newTestServer(t, Config{})
	var resp lintResponse
	if code := post(t, ts.URL+"/lint", map[string]string{"source": goSrvSrc, "lang": "go", "format": "text"}, &resp); code != http.StatusOK {
		t.Fatalf("lint lang=go: status %d", code)
	}
	// Peek's pointer is never written: SE001 must fire on real Go.
	var hit bool
	for _, d := range resp.Diagnostics {
		if d.Rule == "SE001" && d.Proc == "Peek" {
			hit = true
		}
	}
	if !hit {
		t.Errorf("no SE001 for Peek in %+v", resp.Diagnostics)
	}
	if !strings.Contains(resp.Rendered, "source.go") {
		t.Errorf("rendered output not attributed to source.go:\n%s", resp.Rendered)
	}
}

// TestAnalyzeGoHonorsContext pins the Go branch to the hardened
// pipeline: with the request context already cancelled, the cache
// fill must stop with the timeout error and cache nothing, exactly as
// the MiniPL branch does.
func TestAnalyzeGoHonorsContext(t *testing.T) {
	srv := New(Config{})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	entry, key, _, apiErr := srv.analyzeCachedLang(ctx, "go", goSrvSrc)
	if entry != nil {
		entry.release()
		t.Fatal("cancelled Go analysis returned an entry")
	}
	if apiErr == nil || apiErr.Code != "timeout" {
		t.Fatalf("cancelled Go analysis: error %+v, want code timeout", apiErr)
	}
	if srv.HasEntry(key) {
		t.Fatal("cancelled Go analysis left a cache entry")
	}
}
