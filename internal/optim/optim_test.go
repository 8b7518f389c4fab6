package optim

import (
	"math"
	"testing"
)

// quadratic is f(x) = Σ (x_i - c_i)², gradient 2(x - c).
func quadGrad(x, c []float64) []float64 {
	g := make([]float64, len(x))
	for i := range x {
		g[i] = 2 * (x[i] - c[i])
	}
	return g
}

func TestAdamConvergesOnQuadratic(t *testing.T) {
	x := []float64{10, -7, 100}
	c := []float64{3, 4, -2}
	opt := NewAdam(0.5)
	for i := 0; i < 2000; i++ {
		opt.Step(x, quadGrad(x, c))
	}
	for i := range x {
		if math.Abs(x[i]-c[i]) > 1e-3 {
			t.Errorf("x[%d] = %v, want %v", i, x[i], c[i])
		}
	}
}

func TestAdamConvergesOnIllConditioned(t *testing.T) {
	// f = 100 x0² + 0.01 x1²: Adam's per-coordinate scaling should still
	// pull both coordinates in.
	x := []float64{5, 5}
	opt := NewAdam(0.1)
	for i := 0; i < 5000; i++ {
		g := []float64{200 * x[0], 0.02 * x[1]}
		opt.Step(x, g)
	}
	if math.Abs(x[0]) > 1e-3 || math.Abs(x[1]) > 0.5 {
		t.Errorf("x = %v, want near origin", x)
	}
}

func TestAdamFirstStepIsLRSized(t *testing.T) {
	// With bias correction, the first Adam step is ≈ lr·sign(g).
	x := []float64{0}
	opt := NewAdam(0.25)
	opt.Step(x, []float64{3.7})
	if math.Abs(x[0]+0.25) > 1e-6 {
		t.Errorf("first step = %v, want -0.25", x[0])
	}
}

func TestAdamReset(t *testing.T) {
	// A step on a parameter vector of a new length starts from fresh
	// moments: it equals the first step of a new optimiser.
	x := []float64{0}
	NewAdam(0.25).Step(x, []float64{1})
	opt := NewAdam(0.25)
	opt.Step([]float64{0, 0}, []float64{5, -3})
	x2 := []float64{0}
	opt.Step(x2, []float64{1})
	if x[0] != x2[0] {
		t.Errorf("after a size change, first step differs: %v vs %v", x[0], x2[0])
	}
}

func TestAdamHandlesParamSizeChange(t *testing.T) {
	opt := NewAdam(0.1)
	opt.Step([]float64{1, 2}, []float64{1, 1})
	// Different size must not panic; state is re-initialised.
	opt.Step([]float64{1, 2, 3}, []float64{1, 1, 1})
}
