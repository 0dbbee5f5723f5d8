package indexer

import (
	"context"
	"os"
	"path/filepath"
	"sync"

	"sideeffect"
	"sideeffect/internal/cache"
	"sideeffect/internal/gofront"
	"sideeffect/internal/store"
)

// process absorbs one debounced batch: deletions first (capturing old
// keys so a same-content create elsewhere in the batch is recognized
// as a rename), then creates and modifications in path order.
//
// Per changed file the ladder is, cheapest first:
//   - content already in the target cache → warm, nothing to run;
//   - known MiniPL file with a live classification session → Session.Edit,
//     which takes the incremental path for additive deltas;
//   - otherwise a full analysis (mode "cold" for files never seen,
//     "full" for known files whose session was evicted or absent).
//
// Whatever ran, the rendered snapshot is installed into the target so
// the next request for that content is served warm.
func (ix *Indexer) process(b *batch) {
	ix.mu.Lock()
	// Deletions: drop the processed view now; remember old keys for
	// rename matching. A path created and deleted inside one batch has
	// no processed view and is skipped outright.
	deletedKeys := make(map[string]string) // old key → old path
	deletedStates := make(map[string]*fileState)
	for _, path := range sortedPaths(b.deleted) {
		old, ok := ix.files[path]
		if !ok {
			continue
		}
		delete(ix.files, path)
		deletedKeys[old.key] = path
		deletedStates[path] = old
	}
	ix.mu.Unlock()

	renamed := make(map[string]bool) // deleted paths matched to a create
	for _, path := range sortedPaths(b.changed) {
		ix.processFile(path, deletedKeys, deletedStates, renamed)
	}

	ix.mu.Lock()
	for path := range deletedStates {
		if renamed[path] {
			ix.stats.Renames++
		} else {
			ix.stats.Deletes++
		}
		ix.sessions.drop(path)
	}
	ix.stats.Files = len(ix.files)
	ix.mu.Unlock()

	// Module mode: any Go change in the batch re-derives the one
	// whole-module result (content addressing makes an unchanged
	// module warm, e.g. after a revert or a touch).
	if ix.cfg.GoModule && b.touchesGo(ix.exts) {
		ix.analyzeModule()
	}
	// Counted only once the batch is fully absorbed, so a reader that
	// sees a batch also sees every analysis it ran.
	ix.mu.Lock()
	ix.stats.Batches++
	ix.mu.Unlock()
	ix.logf("indexer: batch: %d changed, %d deleted", len(b.changed), len(b.deleted))
}

// touchesGo reports whether the batch contains any Go file event.
func (b *batch) touchesGo(exts map[string]string) bool {
	for path := range b.changed {
		if exts[filepath.Ext(path)] == "go" {
			return true
		}
	}
	for path := range b.deleted {
		if exts[filepath.Ext(path)] == "go" {
			return true
		}
	}
	return false
}

// moduleStatePath is the synthetic processed-view row carrying the
// whole-module result; it is not a file on disk (real rows are
// extension-addressed relative paths, which this can never be).
const moduleStatePath = "(module)"

// analyzeModule runs — or recognizes as warm — the whole-module Go
// analysis and installs it under a key derived from the module's
// content hash.
func (ix *Indexer) analyzeModule() {
	ix.mu.Lock()
	old := ix.files[moduleStatePath]
	ix.mu.Unlock()
	st := &fileState{path: moduleStatePath, lang: "go-module", status: "ok"}
	defer ix.setState(moduleStatePath, st)
	pkg, err := gofront.LoadModule(ix.cfg.Root, nil)
	if err != nil {
		ix.fail(st, err)
		return
	}
	st.key = cache.Key("go-module\x00" + pkg.Hash)
	if ix.target.HasEntry(st.key) {
		st.mode = "warm"
		if old != nil {
			st.procs = old.procs
		}
		ix.bumpWarm()
		return
	}
	a, err := sideeffect.AnalyzeProgramContext(context.Background(), pkg.Prog, ix.cfg.Opts)
	if err != nil {
		ix.fail(st, err)
		return
	}
	defer a.Release()
	snap, err := store.BuildEntry(a, st.key, "go-module", pkg.Notes, pkg.ConfidenceReport())
	if err != nil {
		ix.fail(st, err)
		return
	}
	if err := ix.target.InstallSnapshot(snap); err != nil {
		ix.fail(st, err)
		return
	}
	mode := "full"
	if old == nil {
		mode = "cold"
	}
	st.mode = mode
	st.procs = len(a.Procedures())
	ix.bumpAnalysis(mode)
}

// processFile absorbs one created or modified file.
func (ix *Indexer) processFile(path string, deletedKeys map[string]string, deletedStates map[string]*fileState, renamed map[string]bool) {
	lang, ok := ix.exts[filepath.Ext(path)]
	if !ok {
		return
	}
	data, err := os.ReadFile(filepath.Join(ix.cfg.Root, filepath.FromSlash(path)))
	if err != nil {
		return // raced a deletion; the next scan records it
	}
	src := string(data)
	key := keyFor(lang, src)

	ix.mu.Lock()
	old := ix.files[path]
	fp := ix.seen[path]
	ix.mu.Unlock()
	if old != nil && old.key == key && old.status == "ok" {
		// Touched but content-identical: refresh the stat fingerprint only.
		ix.setState(path, &fileState{path: path, lang: lang, key: key,
			size: fp.size, modTimeNs: fp.modTimeNs,
			status: "ok", mode: old.mode, procs: old.procs})
		return
	}

	st := &fileState{path: path, lang: lang, key: key, size: fp.size, modTimeNs: fp.modTimeNs, status: "ok"}
	if oldPath, ok := deletedKeys[key]; ok && ix.target.HasEntry(key) {
		// A file deleted in this batch reappeared elsewhere with the same
		// content: a rename. Content addressing means zero re-analysis.
		renamed[oldPath] = true
		st.mode = "warm"
		if prev := deletedStates[oldPath]; prev != nil {
			st.procs = prev.procs
		}
		ix.bumpWarm()
		ix.setState(path, st)
		return
	}
	if ix.target.HasEntry(key) {
		// Already-known content (a restart over unchanged sources, or a
		// revert to a previously indexed version): warm, nothing to run.
		st.mode = "warm"
		if old != nil {
			st.procs = old.procs
		}
		ix.bumpWarm()
		ix.setState(path, st)
		return
	}

	switch lang {
	case "minipl":
		ix.analyzeMiniPL(path, src, key, old != nil, st)
	case "go":
		if ix.cfg.GoModule {
			// Folded into the batch's one whole-module pass; the row
			// just tracks the file's fingerprint.
			st.mode = "module"
		} else {
			ix.analyzeGo(path, src, key, old != nil, st)
		}
	}
	ix.setState(path, st)
}

// analyzeMiniPL runs (or incrementally updates) the MiniPL analysis
// for path and installs the rendered snapshot.
func (ix *Indexer) analyzeMiniPL(path, src, key string, known bool, st *fileState) {
	sess := ix.sessions.get(path)
	var mode string
	if sess != nil {
		em, err := sess.Edit(src)
		if err != nil {
			// The session may be broken now; drop it so the next change
			// takes a clean full analysis.
			ix.sessions.drop(path)
			ix.fail(st, err)
			return
		}
		mode = em.String()
	} else {
		var err error
		sess, err = sideeffect.NewSession(src, ix.cfg.Opts)
		if err != nil {
			ix.fail(st, err)
			return
		}
		ix.sessions.put(path, sess)
		mode = "full"
		if !known {
			mode = "cold"
		}
	}
	a := sess.Analysis()
	snap, err := store.BuildEntry(a, key, "minipl", nil, "")
	if err != nil {
		ix.fail(st, err)
		return
	}
	if err := ix.target.InstallSnapshot(snap); err != nil {
		ix.fail(st, err)
		return
	}
	st.mode = mode
	st.procs = len(a.Procedures())
	ix.bumpAnalysis(mode)
}

// analyzeGo runs the Go frontend over path as a single-file package
// (the same lowering the server's lang=go endpoints use, so the cache
// key and rendered bytes match) and installs the snapshot.
func (ix *Indexer) analyzeGo(path, src, key string, known bool, st *fileState) {
	res, err := sideeffect.AnalyzeGoSource("source.go", src, ix.cfg.Opts)
	if err != nil {
		ix.fail(st, err)
		return
	}
	defer res.Analysis.Release()
	snap, err := store.BuildEntry(res.Analysis, key, "go", res.Pkg.Notes, res.Pkg.ConfidenceReport())
	if err != nil {
		ix.fail(st, err)
		return
	}
	if err := ix.target.InstallSnapshot(snap); err != nil {
		ix.fail(st, err)
		return
	}
	mode := "full"
	if !known {
		mode = "cold"
	}
	st.mode = mode
	st.procs = len(res.Analysis.Procedures())
	ix.bumpAnalysis(mode)
}

func (ix *Indexer) fail(st *fileState, err error) {
	st.status = "error"
	st.errMsg = err.Error()
	st.mode = ""
	ix.mu.Lock()
	ix.stats.Errors++
	ix.mu.Unlock()
	ix.logf("indexer: %s: %v", st.path, err)
}

func (ix *Indexer) setState(path string, st *fileState) {
	ix.mu.Lock()
	ix.files[path] = st
	ix.stats.Files = len(ix.files)
	ix.mu.Unlock()
}

func (ix *Indexer) bumpWarm() {
	ix.mu.Lock()
	ix.stats.Warm++
	ix.mu.Unlock()
}

func (ix *Indexer) bumpAnalysis(mode string) {
	ix.mu.Lock()
	ix.stats.Analyses++
	if mode == "incremental" {
		ix.stats.IncrementalEdits++
	} else {
		ix.stats.FullReanalyses++
	}
	ix.mu.Unlock()
}

// sessionTable is the bounded LRU of per-file MiniPL sessions kept so
// repeated edits to the same file can take the incremental path. It
// is only touched from the watch loop (plus closeAll after the loop
// exits), so a plain mutex around map+order suffices.
type sessionTable struct {
	mu    sync.Mutex
	max   int
	order []string // least recently used first
	m     map[string]*sideeffect.Session
}

func newSessionTable(max int) *sessionTable {
	return &sessionTable{max: max, m: make(map[string]*sideeffect.Session)}
}

func (t *sessionTable) get(path string) *sideeffect.Session {
	t.mu.Lock()
	defer t.mu.Unlock()
	s, ok := t.m[path]
	if !ok {
		return nil
	}
	t.bump(path)
	return s
}

func (t *sessionTable) put(path string, s *sideeffect.Session) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if old, ok := t.m[path]; ok {
		old.Close()
		t.m[path] = s
		t.bump(path)
		return
	}
	t.m[path] = s
	t.order = append(t.order, path)
	for len(t.m) > t.max {
		victim := t.order[0]
		t.order = t.order[1:]
		t.m[victim].Close()
		delete(t.m, victim)
	}
}

func (t *sessionTable) drop(path string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if s, ok := t.m[path]; ok {
		s.Close()
		delete(t.m, path)
		t.remove(path)
	}
}

func (t *sessionTable) closeAll() {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, s := range t.m {
		s.Close()
	}
	t.m = make(map[string]*sideeffect.Session)
	t.order = nil
}

func (t *sessionTable) bump(path string) {
	t.remove(path)
	t.order = append(t.order, path)
}

func (t *sessionTable) remove(path string) {
	for i, p := range t.order {
		if p == path {
			t.order = append(t.order[:i], t.order[i+1:]...)
			return
		}
	}
}
