package sideeffect

import (
	"sideeffect/internal/lint"
)

// Lint runs the interprocedural diagnostics engine over a completed
// analysis: every fact the pipeline computed — GMOD/GUSE summaries,
// RMOD, alias pairs, per-call-site MOD/USE, and the Section-6 loop
// verdicts — is turned into positioned findings (pass-by-value
// candidates, pure procedures, alias hazards, dead globals, ignorable
// calls, and loop parallelizability). The zero Config runs every rule
// at its default severity.
//
// The returned report is deterministic: repeated calls on the same
// analysis, and calls on an independently recomputed analysis of the
// same source, produce identical diagnostics in identical order. An
// error reports a configuration mistake (unknown rule name), never a
// property of the program.
//
// Rendering (text, JSON, SARIF 2.1.0) is the lint package's job; see
// cmd/modlint for the command-line driver and internal/server for the
// /lint endpoint.
//
// When the analysis was built with Options.Profile and cfg carries no
// profile of its own, per-rule timings join Analysis.Stages under
// "lint.<rule-id>" names.
func (a *Analysis) Lint(cfg lint.Config) (*lint.Report, error) {
	if cfg.Prof == nil {
		cfg.Prof = a.Stages
	}
	return lint.Run(a.lintInput(), cfg)
}

// lintInput bundles the analysis facts the diagnostics engine reads.
func (a *Analysis) lintInput() *lint.Input {
	in := &lint.Input{
		Prog:    a.Prog,
		Mod:     a.Mod,
		Use:     a.Use,
		Aliases: a.Aliases,
		ModSets: a.ModSets,
		UseSets: a.UseSets,
	}
	for _, l := range a.Prog.Loops {
		v := a.loopVerdict(l.Index, l.Sites)
		in.Loops = append(in.Loops, lint.LoopInfo{
			Proc:      l.Proc.Name,
			Index:     l.Index.Name,
			Pos:       l.Pos,
			Parallel:  v.Parallel,
			Conflicts: v.Conflicts,
			Sections:  v.Sections,
		})
	}
	return in
}
