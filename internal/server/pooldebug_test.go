//go:build cardopc_pooldebug

package server

import (
	"net/http"
	"testing"
	"time"

	"cardopc/internal/fft"
	"cardopc/internal/litho"
)

// TestCancelReleasesPooledGrids: cancelling a job mid-run must not leak
// fft pool items — cancellation is only observed at step, tile and
// descent-iteration boundaries, where every pooled grid and workspace
// has been returned or is released on the way out.
// Runs under -tags cardopc_pooldebug, where the fft pool tracks every
// outstanding checkout.
func TestCancelReleasesPooledGrids(t *testing.T) {
	s, ts := testServer(t, Config{})

	// Warm the kernel sets first: kernel grids are plain allocations,
	// but the warm-up run's pool traffic would otherwise blur the
	// accounting window below.
	warm, _ := postJob(t, ts, tinySpec())
	if w := waitTerminal(t, ts, warm.ID, 30*time.Second); w.Status != StatusDone {
		t.Fatalf("warm-up job ended %s (%s)", w.Status, w.Error)
	}
	lcfg := litho.DefaultConfig()
	lcfg.GridSize, lcfg.PitchNM = 128, 8
	s.Warm(lcfg)

	fft.PoolDebugReset()

	for _, tc := range []struct {
		name string
		spec JobSpec
	}{
		{"clip", slowSpec()},
		{"bigopc", bigSlowSpec()},
		{"ilt", iltSlowSpec()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			v, _ := postJob(t, ts, tc.spec)
			waitRunning(t, ts, v.ID)
			// Let the run get into the hot loop before pulling the plug.
			time.Sleep(50 * time.Millisecond)
			req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+v.ID, nil)
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			done := waitTerminal(t, ts, v.ID, 60*time.Second)
			if done.Status != StatusCancelled {
				t.Fatalf("job ended %s (%s), want cancelled", done.Status, done.Error)
			}
			if n := fft.PoolDebugOutstanding(); n != 0 {
				t.Fatalf("%d pooled values still outstanding after cancellation", n)
			}
		})
	}
}

// bigSlowSpec is a multi-tile bigopc job with enough iterations per
// tile to be cancelled mid-flight.
func bigSlowSpec() JobSpec {
	var targets [][][2]float64
	for _, at := range [][2]float64{{1000, 1000}, {1000, 4600}, {4600, 1000}, {4600, 4600}} {
		targets = append(targets, [][2]float64{
			{at[0], at[1]}, {at[0] + 80, at[1]}, {at[0] + 80, at[1] + 80}, {at[0], at[1] + 80},
		})
	}
	return JobSpec{
		Kind:    "bigopc",
		Targets: targets,
		SizeNM:  6000,
		Iters:   2000,
		TileNM:  3000,
		HaloNM:  400,
	}
}

// iltSlowSpec is slowSpec as a pixel-ILT job: when it is cancelled the
// descent loop holds a ForwardCache of pooled per-kernel grids, and
// every iteration draws the adjoint's pooled scratch.
func iltSlowSpec() JobSpec {
	s := slowSpec()
	s.Kind = "ilt"
	return s
}
