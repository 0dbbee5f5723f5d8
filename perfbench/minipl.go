package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math/rand"
	"runtime"
	"strings"

	"sideeffect"
	"sideeffect/internal/alias"
	"sideeffect/internal/baseline"
	"sideeffect/internal/bitset"
	"sideeffect/internal/core"
	"sideeffect/internal/ir"
	"sideeffect/internal/lang/sem"
	"sideeffect/internal/report"
	"sideeffect/internal/section"
	gen "sideeffect/internal/workload"
)

// genSource emits a seeded workload.Random MiniPL program with procs
// procedures. depth > 0 nests procedures up to that level, so the
// multi-level GMOD path of the paper's Section 4 runs.
func genSource(procs int, seed int64, depth int) string {
	cfg := gen.DefaultConfig(procs, seed)
	if depth > 0 {
		cfg.MaxDepth = depth
		cfg.NestFraction = 0.3
	}
	return gen.Emit(gen.Random(cfg))
}

// procNames lists the procedures declared in src, in source order.
func procNames(src string) []string {
	var out []string
	for _, line := range strings.Split(src, "\n") {
		if rest, ok := strings.CutPrefix(strings.TrimLeft(line, " "), "proc "); ok {
			if i := strings.IndexByte(rest, '('); i > 0 {
				out = append(out, rest[:i])
			}
		}
	}
	return out
}

// globalWrite is the benchmark's additive edit: "g<global> := 0;"
// inserted as the first statement of procedure proc. Random programs
// declare globals g0…g<procs-1> and no local shadows them, so the edit
// adds only a local modification fact and a session absorbs it
// incrementally.
type globalWrite struct {
	proc   string
	global int
}

func (e globalWrite) apply(src string) (string, error) {
	header := "proc " + e.proc + "("
	for from := 0; ; {
		i := strings.Index(src[from:], header)
		if i < 0 {
			return "", fmt.Errorf("no procedure %q", e.proc)
		}
		i += from
		line := strings.LastIndexByte(src[:i], '\n') + 1
		if indent := src[line:i]; strings.Trim(indent, " ") == "" {
			begin := "\n" + indent + "begin\n"
			j := strings.Index(src[i:], begin)
			if j < 0 {
				return "", fmt.Errorf("no body for procedure %q", e.proc)
			}
			at := i + j + len(begin)
			return src[:at] + fmt.Sprintf("%s  g%d := 0;\n", indent, e.global) + src[at:], nil
		}
		from = i + len(header)
	}
}

// editChain draws n seeded edits and returns them with the source after
// each, every edit building on the previous one.
func editChain(src string, procs []string, globals, n int, rng *rand.Rand) ([]globalWrite, []string, error) {
	edits := make([]globalWrite, 0, n)
	srcs := make([]string, 0, n)
	for i := 0; i < n; i++ {
		e := globalWrite{procs[rng.Intn(len(procs))], rng.Intn(globals)}
		next, err := e.apply(src)
		if err != nil {
			return nil, nil, err
		}
		edits = append(edits, e)
		srcs = append(srcs, next)
		src = next
	}
	return edits, srcs, nil
}

// oracle holds the answers of the internal/baseline solvers, which
// share no code with the paper's algorithms: Banning's direct
// equation-(1) fixpoint for GMOD and GUSE, and the swift-style
// decomposition for RMOD.
type oracle struct {
	prog     *ir.Program
	mod, use *baseline.BanningResult
	rmod     *baseline.SwiftResult
}

// parseProgram turns source into the pruned program the library
// analyzes.
func parseProgram(src string) (*ir.Program, error) {
	prog, err := sem.AnalyzeSource(src)
	if err != nil {
		return nil, err
	}
	return prog.Prune(), nil
}

func oracleOf(prog *ir.Program) *oracle {
	fm := core.ComputeFacts(prog, core.Mod)
	return &oracle{
		prog: prog,
		mod:  baseline.BanningIterative(prog, fm),
		use:  baseline.BanningIterative(prog, core.ComputeFacts(prog, core.Use)),
		rmod: baseline.SwiftDecomposed(prog, fm),
	}
}

func oracleOfSource(src string) (*oracle, error) {
	prog, err := parseProgram(src)
	if err != nil {
		return nil, err
	}
	return oracleOf(prog), nil
}

func (o *oracle) digest() string { return summaryDigest(o.prog, o.mod.GMOD, o.use.GMOD) }

// modUse returns the oracle's GMOD and GUSE of proc in the library's
// answer format.
func (o *oracle) modUse(proc string) (mod, use []string, err error) {
	p := o.prog.Proc(proc)
	if p == nil {
		return nil, nil, fmt.Errorf("oracle: no procedure %q", proc)
	}
	return report.VarNames(o.prog, o.mod.GMOD[p.ID]), report.VarNames(o.prog, o.use.GMOD[p.ID]), nil
}

// rmodNames returns the oracle's RMOD of proc in the library's format.
func (o *oracle) rmodNames(proc string) []string {
	p := o.prog.Proc(proc)
	var out []string
	if p == nil {
		return out
	}
	for _, f := range p.Formals {
		if o.rmod.RMODOf(f) {
			out = append(out, f.Name)
		}
	}
	return out
}

// checkModUse compares one MOD+USE answer with the oracle.
func (o *oracle) checkModUse(proc string, mod, use []string) error {
	wm, wu, err := o.modUse(proc)
	if err != nil {
		return err
	}
	if !sameNames(mod, wm) || !sameNames(use, wu) {
		return fmt.Errorf("MOD/USE(%s) disagree with the Banning oracle", proc)
	}
	return nil
}

func sameNames(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// afterGlobalWrites returns the oracle's GMOD once edits have been
// applied. A global is in no procedure's LOCAL set, so writing g in p
// adds g to GMOD of p and of every procedure that reaches p along call
// edges, and changes nothing else; the reverse search over the call
// sites is independent of the library's solvers.
func (o *oracle) afterGlobalWrites(edits []globalWrite) ([]*bitset.Set, error) {
	mod := make([]*bitset.Set, len(o.mod.GMOD))
	for i, s := range o.mod.GMOD {
		mod[i] = s.Clone()
	}
	callers := make([][]int, o.prog.NumProcs())
	for _, cs := range o.prog.Sites {
		callers[cs.Callee.ID] = append(callers[cs.Callee.ID], cs.Caller.ID)
	}
	globals := map[string]int{}
	for _, v := range o.prog.Vars {
		if v.IsGlobal() {
			globals[v.Name] = v.ID
		}
	}
	for _, e := range edits {
		p := o.prog.Proc(e.proc)
		g, ok := globals[fmt.Sprintf("g%d", e.global)]
		if p == nil || !ok {
			return nil, fmt.Errorf("edit %v names no procedure or global", e)
		}
		seen := make([]bool, len(callers))
		seen[p.ID] = true
		for stack := []int{p.ID}; len(stack) > 0; {
			q := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			mod[q].Add(g)
			for _, c := range callers[q] {
				if !seen[c] {
					seen[c] = true
					stack = append(stack, c)
				}
			}
		}
	}
	return mod, nil
}

// summaryDigest hashes every procedure's GMOD and GUSE. Sets are
// hashed by variable ID: both sides of every comparison are programs
// the same front end built from the same declarations.
func summaryDigest(prog *ir.Program, mod, use []*bitset.Set) string {
	h := sha256.New()
	var buf []byte
	for _, p := range prog.Procs {
		buf = append(buf[:0], p.Name...)
		buf = appendSet(append(buf, 0), mod[p.ID])
		buf = appendSet(buf, use[p.ID])
		h.Write(buf)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// answerDigest extends summaryDigest with the per-call-site MOD and USE
// after alias factoring: every answer the analysis hands out.
func answerDigest(prog *ir.Program, mod, use, modSets, useSets []*bitset.Set) string {
	h := sha256.New()
	h.Write([]byte(summaryDigest(prog, mod, use)))
	var buf []byte
	for i := range prog.Sites {
		buf = appendSet(appendSet(buf[:0], modSets[i]), useSets[i])
		h.Write(buf)
	}
	return hex.EncodeToString(h.Sum(nil))
}

func analysisDigest(a *sideeffect.Analysis) string {
	return answerDigest(a.Prog, a.Mod.GMOD, a.Use.GMOD, a.ModSets, a.UseSets)
}

// appendSet appends s's elements and a terminator.
func appendSet(buf []byte, s *bitset.Set) []byte {
	s.ForEach(func(id int) { buf = binary.LittleEndian.AppendUint32(buf, uint32(id)) })
	return binary.LittleEndian.AppendUint32(buf, ^uint32(0))
}

// composed is the pipeline AnalyzeProgramContext runs, rebuilt from its
// public calls so each can be timed on its own.
type composed struct {
	mod, use         *core.Result
	aliases          *alias.Analysis
	secMod, secUse   *section.Result
	modSets, useSets []*bitset.Set
}

// compose runs the stages of AnalyzeProgramContext one public call at a
// time, each in its own span under s, and records the core and alias
// counters. The stages run in sequence: the library runs some of them
// concurrently, so the sum of their spans is not the one-shot time.
func compose(s scope, prog *ir.Program) *composed {
	c := &composed{}
	var st *core.Structure
	s.do("core.structure", func() { st = core.BuildStructure(prog) })
	co := core.Options{Structure: st}
	var before, after runtime.MemStats
	if s.t != nil {
		runtime.ReadMemStats(&before)
	}
	s.do("core.mod", func() { c.mod = core.Analyze(prog, core.Mod, co) })
	s.do("core.use", func() { c.use = core.Analyze(prog, core.Use, co) })
	if s.t != nil {
		runtime.ReadMemStats(&after)
	}
	s.do("alias.compute", func() { c.aliases = alias.Compute(prog) })
	s.do("section.mod", func() { c.secMod = section.AnalyzeProf(c.mod, core.Mod, section.SimpleSections, nil) })
	s.do("section.use", func() { c.secUse = section.AnalyzeProf(c.mod, core.Use, section.SimpleSections, nil) })
	s.do("alias.factor", func() {
		c.modSets = c.aliases.FactorArena(c.mod.DMOD, c.mod.Arena)
		c.useSets = c.aliases.FactorArena(c.use.DMOD, c.use.Arena)
	})
	if t := s.t; t != nil {
		var stats core.GMODStats
		words := 0
		for _, r := range []*core.Result{c.mod, c.use} {
			for _, g := range r.GMODStats {
				stats.Accumulate(g)
			}
			for _, sets := range [][]*bitset.Set{r.IMODPlus, r.GMOD, r.DMOD} {
				for _, x := range sets {
					words += x.Words()
				}
			}
		}
		t.add("core.gmod_steps", float64(stats.BitVectorSteps()))
		t.add("core.condensed_rows", float64(stats.CondensedRows))
		t.add("core.shared_row_hits", float64(stats.SharedRowHits))
		t.add("core.result_words", float64(words))
		t.add("core.alloc_mb", float64(after.TotalAlloc-before.TotalAlloc)/(1<<20))
		t.add("alias.pairs", float64(c.aliases.NumPairs()))
	}
	return c
}

func (c *composed) digest(prog *ir.Program) string {
	return answerDigest(prog, c.mod.GMOD, c.use.GMOD, c.modSets, c.useSets)
}

func (c *composed) release() {
	c.mod.Release()
	c.use.Release()
}

// stageFunctions times the exported per-stage solvers of the Mod
// problem on prog. They allocate with core.AllocHybrid, not the arena
// policy core.Analyze uses in production.
func stageFunctions(s scope, prog *ir.Program) {
	var (
		st   *core.Structure
		f    *core.Facts
		rmod *core.RMOD
		imp  []*bitset.Set
		gmod []*bitset.Set
	)
	st = core.BuildStructure(prog)
	s.do("core.facts", func() { f = core.ComputeFacts(prog, core.Mod) })
	s.do("core.rmod", func() { rmod = core.SolveRMOD(st.Beta, f) })
	s.do("core.imodplus", func() { imp = core.ComputeIMODPlus(f, rmod) })
	s.do("core.gmod", func() { gmod, _ = core.SolveGMODMultiLevel(st.CG, f, imp) })
	s.do("core.dmod", func() { core.ComputeDMOD(prog, rmod, gmod, f) })
}
