package perf

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// regressedComparison builds a comparison with one 2× regression, one ok
// and one vanished benchmark.
func regressedComparison() *Comparison {
	base := merge(
		samplesOf("cardopc/internal/fft.BenchmarkForward1024", 0, 1000),
		samplesOf("cardopc/internal/fft.BenchmarkForward2_256", 270, 3000),
		samplesOf("cardopc/internal/mrc.BenchmarkResolveSpacing", 12, 800),
	)
	run := merge(
		samplesOf("cardopc/internal/fft.BenchmarkForward1024", 0, 2000, 2010, 1990),
		samplesOf("cardopc/internal/fft.BenchmarkForward2_256", 270, 3010),
	)
	return Compare(run, base, DefaultTolerances())
}

func TestWriteTextReport(t *testing.T) {
	var buf bytes.Buffer
	if err := regressedComparison().WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"REGRESSED",
		"internal/fft.BenchmarkForward1024", // module prefix trimmed
		"regressed",
		"vanished",
		"+100.0%",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("text report missing %q:\n%s", want, out)
		}
	}
}

func TestWriteMarkdownReport(t *testing.T) {
	var buf bytes.Buffer
	if err := regressedComparison().WriteMarkdown(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"## benchdiff report",
		"**REGRESSED**",
		"| benchmark | class | metric | old | new | delta | tol |",
		"`internal/fft.BenchmarkForward1024`",
		"❌ regressed",
		"⚠️ vanished",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("markdown report missing %q:\n%s", want, out)
		}
	}
}

func TestWriteJSONRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	cmp := regressedComparison()
	if err := cmp.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var decoded map[string]any
	if err := json.Unmarshal(buf.Bytes(), &decoded); err != nil {
		t.Fatalf("report JSON does not parse: %v", err)
	}
	// Classes render as names, not ints, so downstream tooling does not
	// need this package's enum.
	if !strings.Contains(buf.String(), `"class": "regressed"`) {
		t.Errorf("JSON report lacks symbolic class names:\n%s", buf.String())
	}
	counts, _ := decoded["counts"].(map[string]any)
	if counts["regressed"] != 1.0 || counts["vanished"] != 1.0 {
		t.Errorf("JSON counts = %v, want 1 regressed and 1 vanished", decoded["counts"])
	}
}

func TestSummaryLinePassVerdict(t *testing.T) {
	base := samplesOf("pkg.BenchmarkA", 0, 1000)
	cmp := Compare(samplesOf("pkg.BenchmarkA", 0, 1001), base, DefaultTolerances())
	var buf bytes.Buffer
	if err := cmp.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "PASS: 1 ok") {
		t.Errorf("clean comparison verdict wrong:\n%s", buf.String())
	}
}

func TestFmtValue(t *testing.T) {
	cases := map[float64]string{
		0:           "0",
		270:         "270",
		1049184:     "1049184",
		53:          "53",
		0.125:       "0.125",
		12345.678:   "1.23e+04",
		12077306836: "12077306836",
	}
	for in, want := range cases {
		if got := fmtValue(in); got != want {
			t.Errorf("fmtValue(%v) = %q, want %q", in, got, want)
		}
	}
}
