package layout

import (
	"bytes"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"cardopc/internal/geom"
)

// TotalArea returns the summed target area in nm².
func (c Clip) TotalArea() float64 {
	a := 0.0
	for _, p := range c.Targets {
		a += p.Area()
	}
	return a
}

func TestViaClipCounts(t *testing.T) {
	want := []int{2, 2, 3, 3, 4, 4, 5, 5, 6, 6, 6, 6, 6} // Table I #Vias
	for i := 1; i <= NumViaClips; i++ {
		c := ViaClip(i)
		if len(c.Targets) != want[i-1] {
			t.Errorf("V%d: %d vias, want %d", i, len(c.Targets), want[i-1])
		}
		if c.SizeNM != 2000 {
			t.Errorf("V%d: size %v", i, c.SizeNM)
		}
	}
}

func TestViaClipGeometry(t *testing.T) {
	for i := 1; i <= NumViaClips; i++ {
		c := ViaClip(i)
		for vi, v := range c.Targets {
			if len(v) != 4 {
				t.Fatalf("V%d via %d: %d points", i, vi, len(v))
			}
			b := v.Bounds()
			if b.W() != ViaSizeNM || b.H() != ViaSizeNM {
				t.Errorf("V%d via %d: %vx%v, want %vx%v", i, vi, b.W(), b.H(), ViaSizeNM, ViaSizeNM)
			}
			if v.SignedArea() <= 0 {
				t.Errorf("V%d via %d not CCW", i, vi)
			}
			// Inside the clip with optical margin.
			if b.Min.X < 200 || b.Max.X > 1800 || b.Min.Y < 200 || b.Max.Y > 1800 {
				t.Errorf("V%d via %d too close to clip border: %v", i, vi, b)
			}
		}
		// Pairwise spacing >= 250 nm edge-to-edge.
		for a := 0; a < len(c.Targets); a++ {
			for b := a + 1; b < len(c.Targets); b++ {
				if d := geom.PolyDist(c.Targets[a], c.Targets[b]); d < 250 {
					t.Errorf("V%d: vias %d,%d only %v nm apart", i, a, b, d)
				}
			}
		}
	}
}

func TestViaClipDeterministic(t *testing.T) {
	a := ViaClip(5)
	b := ViaClip(5)
	if len(a.Targets) != len(b.Targets) {
		t.Fatal("nondeterministic via count")
	}
	for i := range a.Targets {
		for j := range a.Targets[i] {
			if a.Targets[i][j] != b.Targets[i][j] {
				t.Fatal("nondeterministic via geometry")
			}
		}
	}
}

func TestViaClipPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for out-of-range index")
		}
	}()
	ViaClip(14)
}

func TestMetalClipPointCounts(t *testing.T) {
	want := []int{64, 84, 88, 100, 106, 112, 116, 24, 72, 120} // Table II
	for i := 1; i <= NumMetalClips; i++ {
		c := MetalClip(i)
		if got := c.TotalPoints(); got != want[i-1] {
			t.Errorf("M%d: %d points, want %d", i, got, want[i-1])
		}
		if c.SizeNM != 1500 {
			t.Errorf("M%d: size %v", i, c.SizeNM)
		}
	}
}

func TestMetalClipGeometry(t *testing.T) {
	for i := 1; i <= NumMetalClips; i++ {
		c := MetalClip(i)
		for wi, w := range c.Targets {
			if w.SignedArea() <= 0 {
				t.Errorf("M%d wire %d not CCW (area %v)", i, wi, w.SignedArea())
			}
			if !w.IsRectilinear(1e-9) {
				t.Errorf("M%d wire %d not rectilinear", i, wi)
			}
			if len(w)%2 != 0 || len(w) < 4 {
				t.Errorf("M%d wire %d has %d points", i, wi, len(w))
			}
		}
		// Wires must not overlap each other.
		for a := 0; a < len(c.Targets); a++ {
			for b := a + 1; b < len(c.Targets); b++ {
				if d := geom.PolyDist(c.Targets[a], c.Targets[b]); d < 20 {
					t.Errorf("M%d: wires %d,%d only %v nm apart", i, a, b, d)
				}
			}
		}
	}
}

func TestMetalClipDeterministic(t *testing.T) {
	a := MetalClip(3)
	b := MetalClip(3)
	if a.TotalPoints() != b.TotalPoints() || len(a.Targets) != len(b.Targets) {
		t.Fatal("nondeterministic metal clip")
	}
}

func TestLargeDesigns(t *testing.T) {
	wantTiles := map[string]int{"gcd": 1, "aes": 144, "dynamicnode": 144} // Table III
	for _, name := range DesignNames() {
		d := LargeDesign(name)
		if d.TileCount != wantTiles[name] {
			t.Errorf("%s: TileCount = %d, want %d", name, d.TileCount, wantTiles[name])
		}
		wantDistinct := DistinctTiles
		if d.TileCount < wantDistinct {
			wantDistinct = d.TileCount
		}
		if len(d.Tiles) != wantDistinct {
			t.Errorf("%s: %d distinct tiles, want %d", name, len(d.Tiles), wantDistinct)
		}
		for _, tile := range d.Tiles {
			if len(tile.Targets) == 0 {
				t.Errorf("%s tile %s is empty", name, tile.Name)
			}
			for wi, w := range tile.Targets {
				if w.SignedArea() <= 0 {
					t.Errorf("%s %s wire %d not CCW", name, tile.Name, wi)
				}
			}
		}
	}
	// Density ordering: gcd tiles busier than dynamicnode tiles.
	gcd := LargeDesign("gcd")
	dyn := LargeDesign("dynamicnode")
	if gcd.Tiles[0].TotalArea() <= dyn.Tiles[0].TotalArea() {
		t.Errorf("expected gcd denser than dynamicnode: %v vs %v",
			gcd.Tiles[0].TotalArea(), dyn.Tiles[0].TotalArea())
	}
}

func TestLargeDesignPanicsOnUnknown(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	LargeDesign("nonesuch")
}

func TestClipIORoundTrip(t *testing.T) {
	// A poly line of 200,000 "1e5" tokens (800 KB) that WriteClip spells
	// as "100000": 1.4 MB on one line.
	long := "clip long 100\npoly" + strings.Repeat(" 1e5", 200000) + "\n"
	longClip, err := ReadClip(strings.NewReader(long))
	if err != nil {
		t.Fatal(err)
	}
	for _, orig := range []Clip{MetalClip(2), longClip} {
		var buf bytes.Buffer
		if err := WriteClip(&buf, orig); err != nil {
			t.Fatal(err)
		}
		got, err := ReadClip(&buf)
		if err != nil {
			t.Fatalf("%s: %v", orig.Name, err)
		}
		if !reflect.DeepEqual(got, orig) {
			t.Errorf("%s: round trip changed the clip", orig.Name)
		}
	}
}

func TestReadClipErrors(t *testing.T) {
	cases := []string{
		"",                             // no header
		"poly 0 0 1 0 1 1",             // poly before header
		"clip x",                       // short header
		"clip x abc",                   // bad size
		"clip x 100\npoly 0 0 1 0",     // too few pairs
		"clip x 100\npoly 0 0 1 0 1",   // odd coords
		"clip x 100\npoly 0 0 1 0 1 z", // bad number
		"clip x 100\nfrobnicate",       // unknown directive
		"clip x NaN",                   // non-finite size
		"clip x Inf",                   // non-finite size
		"clip x 0",                     // zero size
		"clip x -100",                  // negative size
		"clip x 100\npoly 100 100 NaN 100 300 300 100 300",  // non-finite x
		"clip x 100\npoly 100 100 300 -Inf 300 300 100 300", // non-finite y
	}
	for i, src := range cases {
		_, err := ReadClip(strings.NewReader(src))
		if err == nil {
			t.Errorf("case %d: expected error", i)
			continue
		}
		// Every case but the empty input fails on its last line.
		want := fmt.Sprintf("line %d:", strings.Count(src, "\n")+1)
		if src != "" && !strings.Contains(err.Error(), want) {
			t.Errorf("case %d: error %q does not name %s", i, err, want)
		}
	}
}

// FuzzReadClip feeds arbitrary text to the clip parser: it never panics,
// a clip it accepts has a finite positive size and finite coordinates,
// and WriteClip then ReadClip returns that clip unchanged.
func FuzzReadClip(f *testing.F) {
	f.Fuzz(func(t *testing.T, src string) {
		c, err := ReadClip(strings.NewReader(src))
		if err != nil {
			return
		}
		if !(c.SizeNM > 0) || math.IsInf(c.SizeNM, 1) {
			t.Fatalf("accepted size %v", c.SizeNM)
		}
		for _, p := range c.Targets {
			for _, v := range p {
				if math.IsNaN(v.X) || math.IsInf(v.X, 0) || math.IsNaN(v.Y) || math.IsInf(v.Y, 0) {
					t.Fatalf("accepted vertex %v", v)
				}
			}
		}
		var buf bytes.Buffer
		if err := WriteClip(&buf, c); err != nil {
			t.Fatal(err)
		}
		back, err := ReadClip(strings.NewReader(buf.String()))
		if err != nil {
			t.Fatalf("re-reading %q: %v", buf.String(), err)
		}
		if !reflect.DeepEqual(back, c) {
			t.Fatalf("round trip changed the clip:\n%+v\n%+v", c, back)
		}
	})
}

func TestReadClipSkipsCommentsAndBlanks(t *testing.T) {
	src := "# a comment\n\nclip test 100\n# another\npoly 0 0 10 0 10 10\n"
	c, err := ReadClip(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if c.Name != "test" || len(c.Targets) != 1 {
		t.Errorf("parsed %v", c)
	}
}

func TestTotalPointsAndArea(t *testing.T) {
	c := Clip{
		Targets: []geom.Polygon{
			geom.Rect{Min: geom.P(0, 0), Max: geom.P(10, 10)}.Poly(),
			geom.Rect{Min: geom.P(20, 20), Max: geom.P(30, 40)}.Poly(),
		},
	}
	if c.TotalPoints() != 8 {
		t.Errorf("TotalPoints = %d", c.TotalPoints())
	}
	if c.TotalArea() != 100+200 {
		t.Errorf("TotalArea = %v", c.TotalArea())
	}
}
