// Package optim provides the hand-written Adam optimiser (Kingma & Ba
// 2014, the paper's ref [44]) the framework uses in place of PyTorch.
package optim

import "math"

// Adam implements the Adam optimiser with bias-corrected first and second
// moments.
type Adam struct {
	LR      float64
	Beta1   float64
	Beta2   float64
	Epsilon float64

	m, v []float64
	t    int
}

// NewAdam returns an Adam optimiser with the canonical β₁=0.9, β₂=0.999,
// ε=1e-8 defaults.
func NewAdam(lr float64) *Adam {
	return &Adam{LR: lr, Beta1: 0.9, Beta2: 0.999, Epsilon: 1e-8}
}

// Step applies one update, params ← params − LR·m̂/(√v̂+ε), in place. A
// params length different from the previous call's starts from fresh
// moments.
func (a *Adam) Step(params, grad []float64) {
	if len(a.m) != len(params) {
		a.m = make([]float64, len(params))
		a.v = make([]float64, len(params))
		a.t = 0
	}
	a.t++
	b1t := 1 - math.Pow(a.Beta1, float64(a.t))
	b2t := 1 - math.Pow(a.Beta2, float64(a.t))
	for i := range params {
		g := grad[i]
		a.m[i] = a.Beta1*a.m[i] + (1-a.Beta1)*g
		a.v[i] = a.Beta2*a.v[i] + (1-a.Beta2)*g*g
		mHat := a.m[i] / b1t
		vHat := a.v[i] / b2t
		params[i] -= a.LR * mHat / (math.Sqrt(vHat) + a.Epsilon)
	}
}
