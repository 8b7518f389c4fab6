package perf

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"
	"text/tabwriter"
)

// errWriter folds the write-error plumbing out of the renderers: the
// first failed write sticks and later prints become no-ops.
type errWriter struct {
	w   io.Writer
	err error
}

func (ew *errWriter) printf(format string, args ...any) {
	if ew.err != nil {
		return
	}
	_, ew.err = fmt.Fprintf(ew.w, format, args...)
}

// WriteText renders the comparison as an aligned terminal table.
func (c *Comparison) WriteText(w io.Writer) error {
	tw := tabwriter.NewWriter(w, 2, 8, 2, ' ', 0)
	ew := &errWriter{w: tw}
	ew.printf("benchmark\tclass\tmetric\told\tnew\tdelta\ttol\n")
	for _, r := range c.Results {
		if len(r.Metrics) == 0 {
			ew.printf("%s\t%s\t\t\t\t\t\n", displayName(r.Name), r.Class)
			continue
		}
		for i, m := range r.Metrics {
			name, class := "", ""
			if i == 0 {
				name, class = displayName(r.Name), r.Class.String()
			}
			ew.printf("%s\t%s\t%s\t%s\t%s\t%+.1f%%\t%.0f%%\n",
				name, class, m.Unit, fmtValue(m.Old), fmtValue(m.New), 100*m.Delta, 100*m.Tol)
		}
	}
	if ew.err != nil {
		return ew.err
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	ew = &errWriter{w: w}
	c.summaryLine(ew, "")
	return ew.err
}

// WriteMarkdown renders GitHub-flavoured markdown suitable for
// $GITHUB_STEP_SUMMARY: a verdict line and the per-benchmark table.
func (c *Comparison) WriteMarkdown(w io.Writer) error {
	ew := &errWriter{w: w}
	ew.printf("## benchdiff report\n\n")
	c.summaryLine(ew, "**")
	ew.printf("\n| benchmark | class | metric | old | new | delta | tol |\n")
	ew.printf("|---|---|---|---:|---:|---:|---:|\n")
	for _, r := range c.Results {
		if len(r.Metrics) == 0 {
			ew.printf("| `%s` | %s%s | | | | | |\n", displayName(r.Name), classBadge(r.Class), r.Class)
			continue
		}
		for i, m := range r.Metrics {
			name, class := "", ""
			if i == 0 {
				name = fmt.Sprintf("`%s`", displayName(r.Name))
				class = classBadge(r.Class) + r.Class.String()
			}
			ew.printf("| %s | %s | %s | %s | %s | %+.1f%% | %.0f%% |\n",
				name, class, m.Unit, fmtValue(m.Old), fmtValue(m.New), 100*m.Delta, 100*m.Tol)
		}
	}
	return ew.err
}

// WriteJSON renders the comparison as indented JSON.
func (c *Comparison) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(c)
}

// summaryLine prints the one-line verdict; mark wraps the verdict word
// (e.g. "**" for markdown bold). The verdict names the first class that
// fails a check, regressed then vanished, and is PASS only when neither
// is present.
func (c *Comparison) summaryLine(ew *errWriter, mark string) {
	verdict := "PASS"
	switch {
	case c.Counts[Regressed.String()] > 0:
		verdict = "REGRESSED"
	case c.Counts[Vanished.String()] > 0:
		verdict = "VANISHED"
	}
	parts := make([]string, 0, 5)
	for _, cl := range []Class{OK, Improved, Regressed, New, Vanished} {
		if n := c.Counts[cl.String()]; n > 0 {
			parts = append(parts, fmt.Sprintf("%d %s", n, cl))
		}
	}
	if len(parts) == 0 {
		parts = append(parts, "no benchmarks")
	}
	ew.printf("%s%s%s: %s\n", mark, verdict, mark, strings.Join(parts, ", "))
}

// displayName drops the module-path prefix go test puts in pkg: headers,
// keeping "internal/fft.BenchmarkForward1024" readable in narrow tables.
func displayName(name string) string {
	const modPrefix = "cardopc/"
	return strings.TrimPrefix(name, modPrefix)
}

// classBadge prefixes a markdown class cell with a glanceable marker.
func classBadge(c Class) string {
	switch c {
	case Regressed:
		return "❌ "
	case Improved:
		return "✅ "
	case Vanished:
		return "⚠️ "
	default:
		return ""
	}
}

// fmtValue renders a metric value compactly: whole numbers without
// decimals, fractional ones to three significant digits.
func fmtValue(v float64) string {
	//cardopc:allow floatcmp integrality test picking a display format, not a tolerance question
	if v == float64(int64(v)) && v >= -1e15 && v <= 1e15 {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%.3g", v)
}
