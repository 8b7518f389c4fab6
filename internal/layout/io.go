package layout

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"

	"cardopc/internal/geom"
)

// The clip text format is a minimal GDS stand-in used by the CLI tools:
//
//	clip <name> <size-nm>
//	poly <x1> <y1> <x2> <y2> ...
//	poly ...
//
// Blank lines and lines starting with '#' are ignored. Coordinates are
// finite nanometres; the size is finite and positive.

// WriteClip serialises c in the clip text format.
func WriteClip(w io.Writer, c Clip) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "clip %s %g\n", c.Name, c.SizeNM)
	for _, p := range c.Targets {
		bw.WriteString("poly")
		for _, pt := range p {
			fmt.Fprintf(bw, " %g %g", pt.X, pt.Y)
		}
		bw.WriteByte('\n')
	}
	return bw.Flush()
}

// ReadClip parses one clip from the clip text format.
func ReadClip(r io.Reader) (Clip, error) {
	var c Clip
	sc := bufio.NewScanner(r)
	// Lines may be any length. The clip is held in memory whole anyway, and
	// WriteClip's %g can spell a coordinate longer than its input did (1e5
	// as 100000), so any line cap would refuse some written clips.
	sc.Buffer(nil, math.MaxInt)
	sawHeader := false
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		fields := strings.Fields(text)
		switch fields[0] {
		case "clip":
			if len(fields) != 3 {
				return c, fmt.Errorf("layout: line %d: clip header wants 2 args", line)
			}
			c.Name = fields[1]
			size, err := strconv.ParseFloat(fields[2], 64)
			if err != nil {
				return c, fmt.Errorf("layout: line %d: bad size: %v", line, err)
			}
			if !(size > 0) || math.IsInf(size, 1) {
				return c, fmt.Errorf("layout: line %d: size %s is not finite and positive", line, fields[2])
			}
			c.SizeNM = size
			sawHeader = true
		case "poly":
			if !sawHeader {
				return c, fmt.Errorf("layout: line %d: poly before clip header", line)
			}
			coords := fields[1:]
			if len(coords) < 6 || len(coords)%2 != 0 {
				return c, fmt.Errorf("layout: line %d: poly wants >= 3 coordinate pairs", line)
			}
			poly := make(geom.Polygon, 0, len(coords)/2)
			for i := 0; i < len(coords); i += 2 {
				x, err := parseCoord(coords[i])
				if err != nil {
					return c, fmt.Errorf("layout: line %d: bad x: %v", line, err)
				}
				y, err := parseCoord(coords[i+1])
				if err != nil {
					return c, fmt.Errorf("layout: line %d: bad y: %v", line, err)
				}
				poly = append(poly, geom.P(x, y))
			}
			c.Targets = append(c.Targets, poly)
		default:
			return c, fmt.Errorf("layout: line %d: unknown directive %q", line, fields[0])
		}
	}
	if err := sc.Err(); err != nil {
		return c, err
	}
	if !sawHeader {
		return c, fmt.Errorf("layout: missing clip header")
	}
	return c, nil
}

// parseCoord parses one coordinate. strconv.ParseFloat accepts "NaN" and
// "Inf", but a non-finite vertex rasterises to an out-of-range pixel index.
func parseCoord(s string) (float64, error) {
	v, err := strconv.ParseFloat(s, 64)
	if err == nil && (math.IsNaN(v) || math.IsInf(v, 0)) {
		err = fmt.Errorf("%s is not finite", s)
	}
	return v, err
}
