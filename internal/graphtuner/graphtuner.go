// Package graphtuner implements the graph-level layout tuning of §3.2.3
// (the GraphTuner box of Figure 1, after [26]): each convolution prefers a
// data layout NCHW[x]c matching its best schedule's channel blocking, but
// neighbouring convolutions that disagree on x pay a layout-transform
// kernel between them. The tuner runs dynamic programming over the conv
// sequence to minimise total (kernel + transform) time — trading a
// per-kernel optimum against transformation overhead, exactly the
// trade-off the paper describes.
package graphtuner

import (
	"math"
	"math/rand"
	"sync"
	"sync/atomic"

	"unigpu/internal/autotvm"
	"unigpu/internal/obs"
	"unigpu/internal/ops"
	"unigpu/internal/sim"
	"unigpu/internal/templates"
)

// LayoutBlocks are the channel blockings considered per node.
var LayoutBlocks = []int{1, 2, 4, 8, 16, 32}

// CandidatesFor tunes the workload once per candidate layout: the search is
// restricted to schedules whose output-channel blocking equals the layout
// block, so the candidate's kernel time reflects operating natively in
// that layout.
func CandidatesFor(w ops.ConvWorkload, d *sim.Device, budget int, seed int64) []autotvm.Candidate {
	return CandidatesForUnder(nil, w, d, budget, seed)
}

// CandidatesForUnder is CandidatesFor with an explicit parent span, for
// callers running several searches concurrently (the implicit span stack
// assumes sequential calls). The per-layout searches themselves run
// concurrently — each layout has an independent restricted space and its
// own deterministic RNG (seed + block), so the result is identical to the
// sequential search.
func CandidatesForUnder(parent *obs.Span, w ops.ConvWorkload, d *sim.Device, budget int, seed int64) []autotvm.Candidate {
	var sp *obs.Span
	if parent != nil {
		sp = parent.Child("graphtuner.candidates",
			obs.KV("workload", w.Key()), obs.KV("device", d.Name))
	} else {
		sp = obs.Start("graphtuner.candidates",
			obs.KV("workload", w.Key()), obs.KV("device", d.Name))
	}
	defer sp.End()
	space := templates.ConfigSpace(w, d)
	results := make([]*autotvm.Candidate, len(LayoutBlocks))
	var measured atomic.Int64
	var wg sync.WaitGroup
	for bi, b := range LayoutBlocks {
		if b > w.COut {
			continue
		}
		wg.Add(1)
		go func(bi, b int) {
			defer wg.Done()
			lsp := sp.Child("graphtuner.layout", obs.KVInt("block", b))
			defer lsp.End()
			// A schedule is compatible with layout NCHW[b]c when its output-
			// channel tile is a multiple of the block, so the kernel writes
			// whole blocks.
			var restricted []templates.Config
			for _, c := range space {
				if c.TileCo%b == 0 {
					restricted = append(restricted, c)
				}
			}
			if len(restricted) == 0 {
				return
			}
			rng := rand.New(rand.NewSource(seed + int64(b)))
			best := autotvm.Candidate{Block: b, KernelMs: math.Inf(1)}
			trials := budget
			if trials >= len(restricted) {
				trials = len(restricted) // grid when affordable
				for _, c := range restricted {
					if ms := templates.CostMs(w, c, d); ms < best.KernelMs {
						best.KernelMs = ms
						best.Config = c
					}
				}
			} else {
				for i := 0; i < trials; i++ {
					c := restricted[rng.Intn(len(restricted))]
					if ms := templates.CostMs(w, c, d); ms < best.KernelMs {
						best.KernelMs = ms
						best.Config = c
					}
				}
			}
			measured.Add(int64(trials))
			lsp.SetAttrs(obs.KVInt("trials", trials), obs.KVFloat("best_ms", best.KernelMs))
			results[bi] = &best
		}(bi, b)
	}
	wg.Wait()
	out := make([]autotvm.Candidate, 0, len(results))
	for _, r := range results {
		if r != nil {
			out = append(out, *r)
		}
	}
	obs.Count("tune.trials", measured.Load())
	sp.SetAttrs(obs.KVInt("trials", int(measured.Load())), obs.KVInt("layouts", len(out)))
	return out
}

// TransformMs prices converting one activation of the workload's input
// shape between channel blockings on the device: a bandwidth-bound
// re-layout kernel plus launch overhead; free when the blocks agree.
func TransformMs(w ops.ConvWorkload, fromBlock, toBlock int, d *sim.Device) float64 {
	if fromBlock == toBlock {
		return 0
	}
	elems := float64(w.N * w.CIn * w.H * w.W)
	return sim.CostFlopsBytes(d, 0, 2*elems /* read + write */, 4, 1) * 1e3
}

// Plan is the tuner's decision for a conv sequence.
type Plan struct {
	Choices      []autotvm.Candidate // one per workload
	KernelMs     float64
	TransformMs  float64
	TotalMs      float64
	TransformCnt int
}

// Optimize runs the DP over a topological conv sequence: state j at node i
// is "node i runs in layout block j"; the transition charges the layout
// transform between consecutive blocks. The first conv additionally pays
// the NCHW -> blocked packing of the network input when it picks a blocked
// layout.
func Optimize(workloads []ops.ConvWorkload, cands [][]autotvm.Candidate, d *sim.Device) Plan {
	n := len(workloads)
	if n == 0 {
		return Plan{}
	}
	sp := obs.Start("graphtuner.dp", obs.KVInt("convs", n))
	defer sp.End()
	const inf = math.MaxFloat64
	dp := make([][]float64, n)
	arg := make([][]int, n)

	dp[0] = make([]float64, len(cands[0]))
	arg[0] = make([]int, len(cands[0]))
	for j, c := range cands[0] {
		dp[0][j] = c.KernelMs + TransformMs(workloads[0], 1, c.Block, d)
	}
	for i := 1; i < n; i++ {
		dp[i] = make([]float64, len(cands[i]))
		arg[i] = make([]int, len(cands[i]))
		for j, c := range cands[i] {
			best, bestK := inf, 0
			for k, prev := range cands[i-1] {
				t := dp[i-1][k] + TransformMs(workloads[i], prev.Block, c.Block, d)
				if t < best {
					best, bestK = t, k
				}
			}
			dp[i][j] = best + c.KernelMs
			arg[i][j] = bestK
		}
	}

	// Backtrack from the cheapest final state.
	bestJ, best := 0, inf
	for j, v := range dp[n-1] {
		if v < best {
			best, bestJ = v, j
		}
	}
	plan := Plan{Choices: make([]autotvm.Candidate, n), TotalMs: best}
	j := bestJ
	for i := n - 1; i >= 0; i-- {
		plan.Choices[i] = cands[i][j]
		plan.KernelMs += cands[i][j].KernelMs
		j = arg[i][j]
	}
	prev := 1
	for i, c := range plan.Choices {
		t := TransformMs(workloads[i], prev, c.Block, d)
		if t > 0 {
			plan.TransformCnt++
		}
		plan.TransformMs += t
		prev = c.Block
	}
	sp.SetAttrs(obs.KVFloat("total_ms", plan.TotalMs), obs.KVInt("transforms", plan.TransformCnt))
	return plan
}

// Greedy is the ablation baseline: every node takes its individually
// fastest kernel and pays whatever transforms result.
func Greedy(workloads []ops.ConvWorkload, cands [][]autotvm.Candidate, d *sim.Device) Plan {
	n := len(workloads)
	plan := Plan{Choices: make([]autotvm.Candidate, n)}
	for i := range workloads {
		best := autotvm.Candidate{KernelMs: math.Inf(1)}
		for _, c := range cands[i] {
			if c.KernelMs < best.KernelMs {
				best = c
			}
		}
		plan.Choices[i] = best
		plan.KernelMs += best.KernelMs
	}
	prev := 1
	for i, c := range plan.Choices {
		t := TransformMs(workloads[i], prev, c.Block, d)
		if t > 0 {
			plan.TransformCnt++
		}
		plan.TransformMs += t
		prev = c.Block
	}
	plan.TotalMs = plan.KernelMs + plan.TransformMs
	return plan
}
