// Package experiments regenerates every table and figure of the paper plus
// the empirical claims embedded in its case studies, as defined in the
// DESIGN.md experiment index (T1, F1–F3, E1–E8). Each experiment returns an
// Output with renderable tables/figures and a Metrics map of the headline
// numbers, so the CLI can print them and the benchmarks/tests can assert
// the paper's qualitative shapes.
package experiments

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sort"

	"hitl/internal/report"
	"hitl/internal/telemetry"
)

// Output is one experiment's regenerated exhibit.
type Output struct {
	// ID is the experiment identifier from DESIGN.md (e.g. "T1", "E3").
	ID string
	// Title describes the exhibit.
	Title string
	// PaperShape states the qualitative result the paper (or its cited
	// study) reports, which the measured output should match.
	PaperShape string
	// Tables and Figures are the renderable exhibits.
	Tables  []*report.Table
	Figures []*report.Figure
	// Metrics holds the headline numbers for programmatic assertions.
	Metrics map[string]float64
	// Notes carry caveats and interpretation.
	Notes []string
}

// WriteText renders the full output as plain text.
func (o *Output) WriteText(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "== %s: %s ==\n", o.ID, o.Title); err != nil {
		return err
	}
	if o.PaperShape != "" {
		if _, err := fmt.Fprintf(w, "paper shape: %s\n", o.PaperShape); err != nil {
			return err
		}
	}
	for _, t := range o.Tables {
		if _, err := fmt.Fprintln(w); err != nil {
			return err
		}
		if err := t.WriteText(w); err != nil {
			return err
		}
	}
	for _, f := range o.Figures {
		if _, err := fmt.Fprintln(w); err != nil {
			return err
		}
		if err := f.WriteText(w); err != nil {
			return err
		}
	}
	if len(o.Metrics) > 0 {
		if _, err := fmt.Fprintln(w, "\nmetrics:"); err != nil {
			return err
		}
		keys := make([]string, 0, len(o.Metrics))
		for k := range o.Metrics {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			if _, err := fmt.Fprintf(w, "  %-40s %s\n", k, report.FormatFloat(o.Metrics[k])); err != nil {
				return err
			}
		}
	}
	for _, n := range o.Notes {
		if _, err := fmt.Fprintf(w, "note: %s\n", n); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintln(w)
	return err
}

// Config sizes and seeds the experiment suite.
type Config struct {
	// Seed drives every stochastic experiment.
	Seed int64
	// N is the per-arm subject count; 0 uses each experiment's default.
	N int
	// MaxN, when positive, caps every per-arm subject count, N and each
	// experiment's own default alike, so a cap never raises a count.
	MaxN int
}

func (c Config) n(def int) int {
	n := def
	if c.N > 0 {
		n = c.N
	}
	if c.MaxN > 0 && n > c.MaxN {
		n = c.MaxN
	}
	return n
}

// ErrUnknown reports a request for an experiment ID that is not in the
// registry. Callers should test for it with errors.Is.
var ErrUnknown = errors.New("unknown experiment")

// Runner is one experiment entry in the registry.
type Runner struct {
	ID   string
	Name string
	Run  func(context.Context, Config) (*Output, error)
}

// Registry lists every experiment in DESIGN.md order.
func Registry() []Runner {
	return []Runner{
		{"T1", "Table 1: framework components", func(context.Context, Config) (*Output, error) { return Table1() }},
		{"F1", "Figure 1: framework structure", func(context.Context, Config) (*Output, error) { return Figure1() }},
		{"F2", "Figure 2: threat identification & mitigation process", Figure2},
		{"F3", "Figure 3: C-HIP vs framework attribution", Figure3},
		{"E1", "Warning effectiveness (Egelman/Wu shapes)", E1WarningEffectiveness},
		{"E2", "Phishing warning mitigation ablation", E2PhishingMitigations},
		{"E3", "Password policy compliance sweeps", E3PasswordCompliance},
		{"E4", "Password mitigation ablation", E4PasswordMitigations},
		{"E5", "Behavior predictability (Davis/Thorpe/Kuo shapes)", E5Predictability},
		{"E6", "Habituation and trust erosion", E6Habituation},
		{"E7", "Passive indicator attention (Whalen shape)", E7PassiveIndicator},
		{"E8", "Gulfs and GEMS error mix (Maxion-Reeder/Piazzalunga shapes)", E8GulfsAndGEMS},
		{"E9", "Design-pattern catalog ablation (§5 future work)", E9DesignPatterns},
		{"E10", "Memory dynamics: forgetting, spacing, interference, cadence", E10MemoryDynamics},
		{"E11", "Semantic attacks vs trusted paths (Ye et al. shape)", E11TrustedPath},
		{"E12", "Receiver-model ablations (design-choice index)", E12ModelAblations},
		{"E13", "Active-passive spectrum tradeoff (§2.1 contamination)", E13ActivenessTradeoff},
		{"E14", "Concrete password-string audit (strength + dictionary checks)", E14PasswordStrings},
		{"E15", "Anti-virus automation (§1 motivating story)", E15AntivirusAutomation},
	}
}

// Run executes one experiment by ID. Unknown IDs yield an error wrapping
// ErrUnknown; a canceled ctx yields an error wrapping ctx.Err(). When ctx
// carries a telemetry.Tracer, the experiment runs under an "experiment"
// span that parents every sweep-point and run span the engine opens below
// it.
func Run(ctx context.Context, id string, cfg Config) (*Output, error) {
	for _, r := range Registry() {
		if r.ID == id {
			spanCtx, span := telemetry.StartSpan(ctx, "experiment", telemetry.String("id", id))
			out, err := r.Run(spanCtx, cfg)
			if err != nil {
				span.SetAttr("error", err.Error())
			}
			span.End()
			return out, err
		}
	}
	return nil, fmt.Errorf("experiments: %w %q", ErrUnknown, id)
}

// RunAll executes the whole suite in order, stopping at the first error
// (including ctx cancellation). Each experiment gets its own span, as in
// Run.
func RunAll(ctx context.Context, cfg Config) ([]*Output, error) {
	var outs []*Output
	for _, r := range Registry() {
		o, err := Run(ctx, r.ID, cfg)
		if err != nil {
			return nil, fmt.Errorf("experiments: %s: %w", r.ID, err)
		}
		outs = append(outs, o)
	}
	return outs, nil
}
