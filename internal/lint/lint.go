// Package lint is the interprocedural diagnostics engine: it consumes
// a completed side-effect analysis (the MOD/USE summaries, RMOD, alias
// pairs, and regular-section loop verdicts) and turns the facts into
// positioned, deterministic findings a programmer can act on.
//
// This is the workload the paper's introduction motivates: the
// programming environment computes summaries so that it can *answer
// questions* about the program — "can I pass this by value?", "may
// these calls be reordered?", "does this loop parallelize?". Each rule
// here is one such question, answered purely from the analysis facts
// (no rule re-inspects source text).
//
// The engine is configuration-driven (rules can be enabled, disabled,
// and re-leveled), and its output is rendered by three writers: human
// text, a stable JSON schema, and SARIF 2.1.0 for editor and CI
// integration. Diagnostics are totally ordered by (line, col, rule ID,
// subject, message), so repeated and concurrent runs are byte-identical.
package lint

import (
	"cmp"
	"fmt"
	"slices"
	"strings"

	"sideeffect/internal/alias"
	"sideeffect/internal/bitset"
	"sideeffect/internal/core"
	"sideeffect/internal/ir"
	"sideeffect/internal/lang/token"
)

// Severity grades a finding.
type Severity int

// Severities, in ascending order.
const (
	Info Severity = iota
	Warning
	Error
)

// String renders the severity.
func (s Severity) String() string {
	switch s {
	case Info:
		return "info"
	case Warning:
		return "warning"
	case Error:
		return "error"
	}
	return fmt.Sprintf("Severity(%d)", int(s))
}

// MarshalJSON renders the severity as its name.
func (s Severity) MarshalJSON() ([]byte, error) {
	return []byte(`"` + s.String() + `"`), nil
}

// ParseSeverity resolves a severity name.
func ParseSeverity(name string) (Severity, error) {
	switch name {
	case "info":
		return Info, nil
	case "warning":
		return Warning, nil
	case "error":
		return Error, nil
	}
	return 0, fmt.Errorf("lint: unknown severity %q (want info, warning, or error)", name)
}

// Diagnostic is one finding. Pos is a position in the analyzed source
// when the program came from the parser; programs built directly
// through ir.Builder carry zero positions, which the writers clamp.
type Diagnostic struct {
	// Rule is the stable rule ID ("SE001"); Name its readable slug.
	Rule string
	Name string
	// Severity after configuration overrides.
	Severity Severity
	// Proc names the enclosing procedure ("" for program-level
	// findings such as dead globals).
	Proc string
	// Subject is the entity the finding is about (a variable,
	// procedure, or loop-index name) — the token Pos points at.
	Subject string
	Pos     token.Pos
	Message string
}

// LoopInfo is one counted loop's pre-computed Section-6 verdict, fed
// to the loop rules by the caller (the verdict logic lives with the
// public LoopParallelizable API, not here).
type LoopInfo struct {
	// Proc is the procedure containing the loop; Index the loop
	// variable's source name.
	Proc  string
	Index string
	Pos   token.Pos
	// Parallel is the Section-6 verdict; Conflicts the serializing
	// dependences when false; Sections the per-array evidence.
	Parallel  bool
	Conflicts []string
	Sections  []string
}

// Input bundles the analysis facts the rules consume. All fields are
// read-only to the engine.
type Input struct {
	Prog *ir.Program
	// Mod and Use are the two core problem results (GMOD/GUSE, RMOD,
	// DMOD/DUSE).
	Mod, Use *core.Result
	// Aliases is the Section-5 alias-pair analysis.
	Aliases *alias.Analysis
	// ModSets and UseSets are the final alias-factored per-call-site
	// answers, indexed by call-site ID.
	ModSets, UseSets []*bitset.Set
	// Loops carries one verdict per recorded loop, in program order.
	Loops []LoopInfo
}

// Report is the outcome of one engine run over one program.
type Report struct {
	// Diags is sorted by (line, col, rule ID, subject, message).
	Diags []Diagnostic
	// Counts is the number of findings per rule ID, every selected
	// rule present (zero counts included, for metrics).
	Counts map[string]int
}

// Empty reports whether the run produced no findings.
func (r *Report) Empty() bool { return len(r.Diags) == 0 }

// Run executes the selected rules over the input. The error reports
// configuration mistakes (unknown rule or severity names); an input
// with no findings yields an empty, non-nil report.
func Run(in *Input, cfg Config) (*Report, error) {
	sel, err := cfg.selection()
	if err != nil {
		return nil, err
	}
	rep := &Report{Counts: make(map[string]int)}
	for _, rl := range registry {
		sev, on := sel.level(rl)
		if !on {
			continue
		}
		rep.Counts[rl.ID] = 0
		if sev < cfg.MinSeverity {
			continue // selected but filtered: count stays visible at 0
		}
		cfg.Prof.Do("lint."+rl.ID, func() {
			rl.run(in, func(d Diagnostic) {
				d.Rule, d.Name, d.Severity = rl.ID, rl.Name, sev
				rep.Diags = append(rep.Diags, d)
				rep.Counts[rl.ID]++
			})
		})
	}
	sortDiagnostics(rep.Diags)
	return rep, nil
}

// sortDiagnostics imposes the engine's total order: position first
// (line, then column), then rule ID, then subject and message as
// tie-breakers for co-located findings, then emission order. It sorts
// an index permutation, so no comparison moves a Diagnostic, and then
// applies the permutation in place, one cycle at a time.
func sortDiagnostics(ds []Diagnostic) {
	idx := make([]int, len(ds))
	for i := range idx {
		idx[i] = i
	}
	slices.SortFunc(idx, func(i, j int) int {
		a, b := &ds[i], &ds[j]
		if c := cmp.Compare(a.Pos.Line, b.Pos.Line); c != 0 {
			return c
		}
		if c := cmp.Compare(a.Pos.Col, b.Pos.Col); c != 0 {
			return c
		}
		if c := strings.Compare(a.Rule, b.Rule); c != 0 {
			return c
		}
		if c := strings.Compare(a.Subject, b.Subject); c != 0 {
			return c
		}
		if c := strings.Compare(a.Message, b.Message); c != 0 {
			return c
		}
		return cmp.Compare(i, j)
	})
	// Position k receives ds[idx[k]]; a visited slot is marked idx[k] = k.
	for k := range idx {
		if idx[k] == k {
			continue
		}
		tmp, j := ds[k], k
		for idx[j] != k {
			next := idx[j]
			ds[j], idx[j] = ds[next], j
			j = next
		}
		ds[j], idx[j] = tmp, j
	}
}
