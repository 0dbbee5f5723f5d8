package server

import (
	"context"
	"errors"
	"net/http"

	"sideeffect"
	"sideeffect/internal/batch"
	"sideeffect/internal/cache"
	"sideeffect/internal/lint"
)

// lintRequest is the /lint body. Source is required; the remaining
// fields mirror modlint's flags. Format selects an extra rendered form
// carried alongside the structured diagnostics: "text" or "sarif"
// (the JSON shape is always present).
type lintRequest struct {
	Source      string   `json:"source"`
	Rules       []string `json:"rules,omitempty"`
	Disable     []string `json:"disable,omitempty"`
	MinSeverity string   `json:"minSeverity,omitempty"`
	Format      string   `json:"format,omitempty"`
	// Lang selects the frontend ("" or "minipl" for MiniPL, "go" for
	// a single-file Go package), like /analyze.
	Lang string `json:"lang,omitempty"`
}

// lintDiagnostic is one finding on the wire — the same field set the
// modlint JSON writer emits.
type lintDiagnostic struct {
	Rule     string `json:"rule"`
	Name     string `json:"name"`
	Severity string `json:"severity"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Proc     string `json:"proc,omitempty"`
	Subject  string `json:"subject,omitempty"`
	Message  string `json:"message"`
}

// lintResponse is the /lint and /session/{id}/lint answer.
type lintResponse struct {
	Hash        string           `json:"hash,omitempty"`
	Cached      bool             `json:"cached,omitempty"`
	Findings    int              `json:"findings"`
	Counts      map[string]int   `json:"counts"`
	Diagnostics []lintDiagnostic `json:"diagnostics"`
	Rendered    string           `json:"rendered,omitempty"`
}

// lintConfig translates the request's selection fields.
func (req *lintRequest) lintConfig() (lint.Config, *apiError) {
	cfg := lint.Config{Enable: req.Rules, Disable: req.Disable}
	if req.MinSeverity != "" {
		sev, err := lint.ParseSeverity(req.MinSeverity)
		if err != nil {
			return cfg, errBadRequest("%v", err)
		}
		cfg.MinSeverity = sev
	}
	switch req.Format {
	case "", "text", "sarif":
	default:
		return cfg, errBadRequest("unknown format %q (want text or sarif)", req.Format)
	}
	return cfg, nil
}

// lintReport produces a configured lint report from either backing:
// live entries run the engine over the analysis; snapshot-backed
// entries filter the persisted full-rules run down to the requested
// configuration (byte-identical to a fresh run — see lint.Filter),
// so a warm /lint never recomputes anything.
func (e *cached) lintReport(ctx context.Context, cfg lint.Config) (*lint.Report, error) {
	if e.a != nil {
		return e.a.LintContext(ctx, cfg)
	}
	return e.snap.Lint.Filter(cfg)
}

// buildLintResponse runs the engine over a completed analysis and
// assembles the wire form, recording per-rule finding counts in the
// metrics. file names the artifact in rendered output. A panic in a
// lint rule comes back as a structured internal error, never across
// the HTTP boundary.
func (s *Server) buildLintResponse(ctx context.Context, a *sideeffect.Analysis, file string, cfg lint.Config, format string) (*lintResponse, *apiError) {
	rep, err := a.LintContext(ctx, cfg)
	if err != nil {
		var pe *batch.PanicError
		if errors.As(err, &pe) || ctx.Err() != nil {
			return nil, errFrom(err)
		}
		return nil, errBadRequest("%v", err)
	}
	return s.renderLintResponse(rep, file, format)
}

// renderLintResponse assembles the wire form from a completed report,
// recording per-rule finding counts in the metrics.
func (s *Server) renderLintResponse(rep *lint.Report, file string, format string) (*lintResponse, *apiError) {
	s.met.lintFindings(rep.Counts)
	resp := &lintResponse{
		Findings:    len(rep.Diags),
		Counts:      rep.Counts,
		Diagnostics: make([]lintDiagnostic, 0, len(rep.Diags)),
	}
	for _, d := range rep.Diags {
		resp.Diagnostics = append(resp.Diagnostics, lintDiagnostic{
			Rule: d.Rule, Name: d.Name, Severity: d.Severity.String(),
			Line: d.Pos.Line, Col: d.Pos.Col,
			Proc: d.Proc, Subject: d.Subject, Message: d.Message,
		})
	}
	files := []lint.FileReport{{File: file, Report: rep}}
	switch format {
	case "text":
		resp.Rendered = lint.Text(files)
	case "sarif":
		out, err := lint.SARIF(files)
		if err != nil {
			return nil, errAnalysis(err)
		}
		resp.Rendered = out
	}
	return resp, nil
}

// handleLint is POST /lint: one-shot diagnostics over a source text.
// The analysis is resolved through the content-addressed cache exactly
// like /analyze, so linting a program the server has already analyzed
// costs no recompute. The engine's own cost grows with the findings it
// emits, about 1–2µs each: negligible on typical programs, but on the
// N=4096 programs of the scale-lib benchmark (~200k findings) one lint
// pass takes about 0.6× the analysis.
func (s *Server) handleLint(w http.ResponseWriter, r *http.Request) (int, any, *apiError) {
	var req lintRequest
	if apiErr := s.decodeJSON(r, &req); apiErr != nil {
		return 0, nil, apiErr
	}
	if req.Source == "" {
		return 0, nil, errBadRequest("missing \"source\"")
	}
	cfg, apiErr := req.lintConfig()
	if apiErr != nil {
		return 0, nil, apiErr
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
	file := "source.mpl"
	if req.Lang == "go" {
		file = "source.go"
	}
	rep, err := entry.lintReport(r.Context(), cfg)
	if err != nil {
		var pe *batch.PanicError
		if errors.As(err, &pe) || r.Context().Err() != nil {
			return 0, nil, errFrom(err)
		}
		return 0, nil, errBadRequest("%v", err)
	}
	resp, apiErr := s.renderLintResponse(rep, file, req.Format)
	if apiErr != nil {
		return 0, nil, apiErr
	}
	resp.Hash = key
	resp.Cached = outcome == cache.Hit
	return http.StatusOK, resp, nil
}

// sessionLintRequest configures a lint run over a session's current
// program state (no source: the session already holds it).
type sessionLintRequest struct {
	Rules       []string `json:"rules,omitempty"`
	Disable     []string `json:"disable,omitempty"`
	MinSeverity string   `json:"minSeverity,omitempty"`
	Format      string   `json:"format,omitempty"`
}

// handleSessionLint is POST /session/{id}/lint: diagnostics over the
// session's current analysis — after an incremental edit this lints
// the incrementally-updated result without any recompute.
func (s *Server) handleSessionLint(w http.ResponseWriter, r *http.Request) (int, any, *apiError) {
	var req sessionLintRequest
	if apiErr := s.decodeJSON(r, &req); apiErr != nil {
		return 0, nil, apiErr
	}
	open, ok := s.sessions.get(r.PathValue("id"))
	if !ok {
		return 0, nil, errNotFound(r.PathValue("id"))
	}
	lr := lintRequest{Rules: req.Rules, Disable: req.Disable, MinSeverity: req.MinSeverity, Format: req.Format}
	cfg, apiErr := lr.lintConfig()
	if apiErr != nil {
		return 0, nil, apiErr
	}
	open.mu.Lock()
	defer open.mu.Unlock()
	if r.Context().Err() != nil {
		return 0, nil, errTimeout()
	}
	if open.sess.Broken() {
		return 0, nil, errSessionBroken()
	}
	resp, apiErr := s.buildLintResponse(r.Context(), open.sess.Analysis(), open.id+".mpl", cfg, req.Format)
	if apiErr != nil {
		return 0, nil, apiErr
	}
	return http.StatusOK, resp, nil
}
