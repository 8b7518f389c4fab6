package main

import (
	"bufio"
	_ "embed"
	"encoding/json"
	"fmt"

	"cardopc/internal/litho"
)

// referenceJSON holds each offline clip's quality at full scale, as
// measured when the benchmark was written (regenerate with
// "cardopc-bench reference"). A run fails its check when a clip comes
// out worse than its reference beyond qualityTol; better is fine.
//
//go:embed reference.json
var referenceJSON []byte

// qualityTol is the relative slack on EPE, PVB and L2. Counts (EPE and
// MRC violations) get none.
const qualityTol = 0.01

// reference is one clip's expected quality.
type reference struct {
	EPESumNM      float64 `json:"epe_sum_nm"`
	EPEViolations int     `json:"epe_violations"`
	PVBNM2        float64 `json:"pvb_nm2"`
	L2Px          float64 `json:"l2_px"`
	MRCLeft       int     `json:"mrc_left"`
}

func referenceOf(c clipOutcome) reference {
	return reference{EPESumNM: c.Eval.EPESum, EPEViolations: c.Eval.EPEViol, PVBNM2: c.Eval.PVB, L2Px: c.Eval.L2, MRCLeft: c.MRCLeft}
}

// references maps "<workload>/<clip>" to the clip's reference.
func references() (map[string]reference, error) {
	refs := map[string]reference{}
	if err := json.Unmarshal(referenceJSON, &refs); err != nil {
		return nil, fmt.Errorf("reference.json: %w", err)
	}
	return refs, nil
}

// checkReference fails res when clip c of workload came out worse than
// its entry in refs.
func checkReference(res *result, refs map[string]reference, workload string, c clipOutcome) {
	key := workload + "/" + c.Name
	want, ok := refs[key]
	if !ok {
		res.fail("%s: no reference quality", key)
		return
	}
	got := referenceOf(c)
	worse := func(name string, g, w float64) {
		if g > w*(1+qualityTol) {
			res.fail("%s: %s %.6g is worse than the reference %.6g", key, name, g, w)
		}
	}
	worse("epe_sum_nm", got.EPESumNM, want.EPESumNM)
	worse("pvb_nm2", got.PVBNM2, want.PVBNM2)
	worse("l2_px", got.L2Px, want.L2Px)
	if got.EPEViolations > want.EPEViolations {
		res.fail("%s: %d EPE violations, reference %d", key, got.EPEViolations, want.EPEViolations)
	}
	if got.MRCLeft > want.MRCLeft {
		res.fail("%s: %d MRC violations left, reference %d", key, got.MRCLeft, want.MRCLeft)
	}
}

// runReference runs every clip of every offline workload once at full
// scale and prints reference.json.
func runReference(stdout, stderr *bufio.Writer) int {
	refs := map[string]reference{}
	for _, w := range []*offline{viaWorkload(false), metalWorkload(false), hybridWorkload(false)} {
		proc := litho.NewProcess(w.lithoConfig(), litho.DefaultCorners())
		for i, clip := range w.clips {
			c := w.runClip(nil, proc, i, clip)
			refs[w.name+"/"+clip.Name] = referenceOf(c)
			fmt.Fprintf(stderr, "%s/%s: %+v\n", w.name, clip.Name, referenceOf(c))
		}
	}
	b, err := json.MarshalIndent(refs, "", "  ")
	if err != nil {
		fmt.Fprintln(stderr, "cardopc-bench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(b))
	return 0
}
