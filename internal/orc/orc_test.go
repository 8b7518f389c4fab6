package orc

import (
	"math"
	"testing"

	"cardopc/internal/geom"
	"cardopc/internal/raster"
)

// grid is the shared test raster.
func grid() raster.Grid { return raster.Grid{Size: 128, Pitch: 4} }

// aerialFromBlobs builds a synthetic aerial image: intensity 0.45 inside
// the blobs (sigmoid edges), ~0 elsewhere.
func aerialFromBlobs(g raster.Grid, blobs []geom.Polygon) *raster.Field {
	f := raster.NewField(g)
	for _, b := range blobs {
		f.FillPolygon(b, 4)
	}
	f.Clamp01()
	// Blur-free binary-ish aerial at 0.45 peak.
	for i, v := range f.Data {
		f.Data[i] = 0.45 * v
	}
	return f
}

func TestVerifyCleanPrint(t *testing.T) {
	g := grid()
	targets := []geom.Polygon{
		geom.Rect{Min: geom.P(60, 60), Max: geom.P(180, 180)}.Poly(),
		geom.Rect{Min: geom.P(300, 300), Max: geom.P(420, 420)}.Poly(),
	}
	// Print exactly the targets.
	aerial := aerialFromBlobs(g, targets)
	ds := verifyCorner("nominal", aerial, 0.225, targets, DefaultConfig())
	if len(ds) != 0 {
		t.Errorf("clean print reported %d defects: %v", len(ds), ds)
	}
}

func TestVerifyMissing(t *testing.T) {
	g := grid()
	targets := []geom.Polygon{
		geom.Rect{Min: geom.P(60, 60), Max: geom.P(180, 180)}.Poly(),
		geom.Rect{Min: geom.P(300, 300), Max: geom.P(420, 420)}.Poly(),
	}
	// Only the first target prints.
	aerial := aerialFromBlobs(g, targets[:1])
	ds := verifyCorner("nominal", aerial, 0.225, targets, DefaultConfig())
	counts := Count(ds)
	if counts[Missing] != 1 {
		t.Errorf("missing = %d, want 1 (%v)", counts[Missing], ds)
	}
	for _, d := range ds {
		if d.Kind == Missing && d.Target != 1 {
			t.Errorf("missing defect on target %d, want 1", d.Target)
		}
	}
}

func TestVerifyBridge(t *testing.T) {
	g := grid()
	targets := []geom.Polygon{
		geom.Rect{Min: geom.P(60, 200), Max: geom.P(200, 280)}.Poly(),
		geom.Rect{Min: geom.P(280, 200), Max: geom.P(420, 280)}.Poly(),
	}
	// One printed blob spanning both targets.
	blob := geom.Rect{Min: geom.P(60, 200), Max: geom.P(420, 280)}.Poly()
	aerial := aerialFromBlobs(g, []geom.Polygon{blob})
	ds := verifyCorner("nominal", aerial, 0.225, targets, DefaultConfig())
	if Count(ds)[Bridge] == 0 {
		t.Errorf("bridge not detected: %v", ds)
	}
}

func TestVerifyNeck(t *testing.T) {
	g := grid()
	// Target: 300x80 wire. Print: same wire but pinched to 24 nm in the
	// middle third.
	target := geom.Rect{Min: geom.P(100, 220), Max: geom.P(400, 300)}.Poly()
	printShape := geom.Polygon{
		geom.P(100, 220), geom.P(200, 220), geom.P(200, 248), geom.P(300, 248),
		geom.P(300, 220), geom.P(400, 220), geom.P(400, 300), geom.P(300, 300),
		geom.P(300, 272), geom.P(200, 272), geom.P(200, 300), geom.P(100, 300),
	}
	aerial := aerialFromBlobs(g, []geom.Polygon{printShape})
	ds := verifyCorner("nominal", aerial, 0.225, []geom.Polygon{target}, DefaultConfig())
	counts := Count(ds)
	if counts[Neck] == 0 {
		t.Errorf("neck not detected: %v", ds)
	}
	// The neck CD is ~24 nm.
	for _, d := range ds {
		if d.Kind == Neck && (d.Value < 10 || d.Value > 40) {
			t.Errorf("neck CD = %v, want ~24", d.Value)
		}
	}
}

func TestVerifyExtraPrint(t *testing.T) {
	g := grid()
	target := geom.Rect{Min: geom.P(60, 60), Max: geom.P(180, 180)}.Poly()
	stray := geom.Rect{Min: geom.P(340, 340), Max: geom.P(400, 400)}.Poly()
	aerial := aerialFromBlobs(g, []geom.Polygon{target, stray})
	ds := verifyCorner("nominal", aerial, 0.225, []geom.Polygon{target}, DefaultConfig())
	counts := Count(ds)
	if counts[Extra] != 1 {
		t.Fatalf("extra = %d, want 1 (%v)", counts[Extra], ds)
	}
	for _, d := range ds {
		if d.Kind == Extra {
			if d.Target != -1 {
				t.Errorf("extra defect target = %d", d.Target)
			}
			want := stray.Area()
			if math.Abs(d.Value-want)/want > 0.2 {
				t.Errorf("extra area = %v, want ~%v", d.Value, want)
			}
		}
	}
}

func TestVerifyIgnoresSpecks(t *testing.T) {
	g := grid()
	target := geom.Rect{Min: geom.P(60, 60), Max: geom.P(180, 180)}.Poly()
	speck := geom.Rect{Min: geom.P(400, 400), Max: geom.P(412, 412)}.Poly() // 144 nm² < 400
	aerial := aerialFromBlobs(g, []geom.Polygon{target, speck})
	ds := verifyCorner("nominal", aerial, 0.225, []geom.Polygon{target}, DefaultConfig())
	if Count(ds)[Extra] != 0 {
		t.Errorf("speck flagged: %v", ds)
	}
}

func TestKindString(t *testing.T) {
	want := map[Kind]string{Bridge: "bridge", Neck: "neck", Missing: "missing", Extra: "extra", Kind(9): "unknown"}
	for k, s := range want {
		if k.String() != s {
			t.Errorf("%d.String() = %q", k, k.String())
		}
	}
}

func TestLabelComponents(t *testing.T) {
	g := raster.Grid{Size: 16, Pitch: 1}
	b := raster.NewBinary(g)
	// Two separate blobs and one diagonal-only neighbour (4-connectivity
	// keeps it separate).
	b.Set(2, 2, 1)
	b.Set(2, 3, 1)
	b.Set(3, 3, 1) // diagonal from (2,2), connected via (2,3)
	b.Set(10, 10, 1)
	b.Set(12, 12, 1) // isolated
	labels, count := b.Label()
	if count != 3 {
		t.Fatalf("components = %d, want 3", count)
	}
	if labels[3*16+3] != labels[2*16+2] {
		t.Error("4-connected pixels got different labels")
	}
	if labels[10*16+10] == labels[12*12+12] && labels[10*16+10] != 0 {
		t.Error("separate blobs share a label")
	}
}
