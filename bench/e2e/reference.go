package main

import (
	"embed"
	"encoding/json"
	"fmt"

	"unigpu"
	"unigpu/bench/e2e/harness"
	"unigpu/internal/graph"
	"unigpu/internal/models"
	"unigpu/internal/runtime"
	"unigpu/internal/tensor"
)

// goldenSeed is the seed whose reference outputs are pinned in
// testdata/golden.json, so that a change to the reference path itself
// (model builders, BN folding, the unfused kernels) shows.
const goldenSeed = 1

//go:embed testdata/golden.json
var goldenFS embed.FS

// makeInputs builds the workload's n distinct request tensors; the seed
// changes nothing else in a run.
func (w *workload) makeInputs(seed int64, n int) []*unigpu.Tensor {
	ins := make([]*unigpu.Tensor, n)
	for i := range ins {
		ins[i] = unigpu.NewTensor(1, 3, w.size, w.size)
		ins[i].FillRandom(seed + int64(i))
	}
	return ins
}

// referenceOutputs computes the expected output of every input outside the
// code under test: the unfused fp32 graph — the zoo builder plus only the
// two numerics-changing passes, no fusion, no quantisation, no kernel
// selection, no placement — on one serial session. That is what the legacy
// runtime.Execute does per call; planning once keeps eight plans' worth of
// packed weights out of the process-wide plan registry. fp32 workloads must
// match the reference bit for bit; fp16/int8 workloads within budget.
func (w *workload) referenceOutputs(inputs []*unigpu.Tensor) (*harness.Checker, error) {
	m := models.Build(w.model, w.size, false)
	graph.FoldBatchNorm(m.Graph)
	graph.PrecomputeConstants(m.Graph)
	m.Graph.EliminateDead()
	plan, err := runtime.NewPlan(m.Graph)
	if err != nil {
		return nil, fmt.Errorf("reference %s: %w", w.model, err)
	}
	sess := plan.NewSession()

	c := &harness.Checker{Exact: w.budget == 0, Budget: w.budget}
	for _, in := range inputs {
		outs, err := sess.Run(map[string]*tensor.Tensor{"data": in})
		if err != nil {
			return nil, fmt.Errorf("reference %s: %w", w.model, err)
		}
		c.Shape = outs[0].Shape()
		c.Want = append(c.Want, append([]float32(nil), outs[0].Data()...))
	}
	return c, nil
}

// checker builds a run's inputs and their reference outputs; for the golden
// seed the references must also match their pinned digests.
func (w *workload) checker(cfg config) ([]*unigpu.Tensor, *harness.Checker, error) {
	inputs := w.makeInputs(cfg.seed, cfg.inputs)
	chk, err := w.referenceOutputs(inputs)
	if err == nil && cfg.seed == goldenSeed {
		err = w.checkGolden(chk.Want)
	}
	return inputs, chk, err
}

func (w *workload) goldenKey() string { return fmt.Sprintf("%s@%d", w.model, w.size) }

// checkGolden compares the reference outputs' digests with the pinned ones.
func (w *workload) checkGolden(want [][]float32) error {
	data, err := goldenFS.ReadFile("testdata/golden.json")
	if err != nil {
		return err
	}
	var golden map[string][]string
	if err := json.Unmarshal(data, &golden); err != nil {
		return fmt.Errorf("testdata/golden.json: %w", err)
	}
	pinned := golden[w.goldenKey()]
	if len(pinned) == 0 {
		return fmt.Errorf("testdata/golden.json pins nothing for %s", w.goldenKey())
	}
	for i := range want {
		if i >= len(pinned) {
			break
		}
		if got := harness.Digest(want[i]); got != pinned[i] {
			return fmt.Errorf("reference output %d of %s changed: sha256 %s, pinned %s (the reference path moved, not the code under test)",
				i, w.goldenKey(), got, pinned[i])
		}
	}
	return nil
}
