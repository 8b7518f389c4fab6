package exp

import (
	"os"
	"slices"
	"testing"
	"time"

	"cardopc/internal/obs"
)

// smoke options: tiny but real end-to-end runs.
func smoke(clips int) Options {
	return Options{GridSize: 256, PitchNM: 8, Iterations: 16, ILTIterations: 40, Clips: clips}
}

func TestTable1Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end experiment")
	}
	tab := Table1(smoke(2))
	if len(tab.Rows) != 4 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	avg := tab.Summary()
	card := avg["CardOPC"]
	seg := avg["SegOPC"]
	// Headline result: curvilinear OPC beats segment OPC on EPE.
	if card.EPE >= seg.EPE {
		t.Errorf("CardOPC EPE %v not better than SegOPC %v", card.EPE, seg.EPE)
	}
	// PVB within 15% of the baseline (paper: slightly better).
	if card.PVB > 1.15*seg.PVB {
		t.Errorf("CardOPC PVB %v much worse than SegOPC %v", card.PVB, seg.PVB)
	}
	tab.Fprint(os.Stderr)
}

func TestTable2Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end experiment")
	}
	tab := Table2(smoke(2))
	avg := tab.Summary()
	if avg["CardOPC"].EPE >= avg["SegOPC"].EPE {
		t.Errorf("metal: CardOPC EPE %v not better than SegOPC %v",
			avg["CardOPC"].EPE, avg["SegOPC"].EPE)
	}
	tab.Fprint(os.Stderr)
}

func TestHybridResolvesMRC(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end experiment")
	}
	st := obs.NewState(obs.Config{Metrics: true})
	obs.Setup(st)
	defer obs.Setup(nil)
	tab := Fig7(Options{GridSize: 256, PitchNM: 8, Iterations: 10, ILTIterations: 30, Clips: 1})
	if len(tab.Rows) != 3 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	// The hybrid and the CircleOpt proxy share one ILT run per clip.
	if got := st.Metrics.Counter("ilt.iterations").Value(); got != 30 {
		t.Errorf("ilt.iterations = %d for one clip, want 30", got)
	}
	if !slices.Contains(tab.Notes, sharedILTNote) {
		t.Errorf("notes %q lack %q", tab.Notes, sharedILTNote)
	}
	// Every method produced a mask and finite metrics.
	for _, r := range tab.Rows {
		if r.PVB < 0 || r.L2 < 0 || r.Runtime <= 0 {
			t.Errorf("degenerate row %+v", r)
		}
		if r.Runtime > 10*time.Minute {
			t.Errorf("row took too long: %+v", r)
		}
	}
	tab.Fprint(os.Stderr)
}

func TestSummaryAverages(t *testing.T) {
	tab := &Table{Rows: []Row{
		{Method: "A", EPE: 2, PVB: 10},
		{Method: "A", EPE: 4, PVB: 30},
		{Method: "B", EPE: 10, PVB: 100},
	}}
	avg := tab.Summary()
	if avg["A"].EPE != 3 || avg["A"].PVB != 20 {
		t.Errorf("A average = %+v", avg["A"])
	}
	if avg["B"].EPE != 10 {
		t.Errorf("B average = %+v", avg["B"])
	}
}
