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
	for _, tc := range []struct {
		run, base *ParseResult
		want      string
	}{
		{samplesOf("pkg.BenchmarkA", 0, 1001), samplesOf("pkg.BenchmarkA", 0, 1000), "PASS: 1 ok"},
		// A vanished benchmark fails benchdiff check, so it cannot read PASS.
		{
			samplesOf("pkg.BenchmarkA", 0, 1001),
			merge(samplesOf("pkg.BenchmarkA", 0, 1000), samplesOf("pkg.BenchmarkB", 0, 1000)),
			"VANISHED: 1 ok, 1 vanished",
		},
	} {
		cmp := Compare(tc.run, tc.base, DefaultTolerances())
		var text, md bytes.Buffer
		if err := cmp.WriteText(&text); err != nil {
			t.Fatal(err)
		}
		if err := cmp.WriteMarkdown(&md); err != nil {
			t.Fatal(err)
		}
		if !strings.HasSuffix(text.String(), "\n"+tc.want+"\n") {
			t.Errorf("text verdict wrong, want %q:\n%s", tc.want, text.String())
		}
		if want := "**" + strings.Replace(tc.want, ":", "**:", 1); !strings.Contains(md.String(), "\n"+want+"\n") {
			t.Errorf("markdown verdict wrong, want %q:\n%s", want, md.String())
		}
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
