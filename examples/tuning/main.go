// Tuning: walk through the machine-learning-based schedule search of
// §3.2.3 on one convolution workload — the config space, three search
// strategies at the same budget, the tuning-records database, and the
// graph tuner's layout trade-off.
package main

import (
	"fmt"
	"log"
	"os"
	"path/filepath"

	"unigpu/internal/autotvm"
	"unigpu/internal/graphtuner"
	"unigpu/internal/ops"
	"unigpu/internal/sim"
	"unigpu/internal/templates"
)

func main() {
	log.SetFlags(0)
	w := ops.ConvWorkload{N: 1, CIn: 128, H: 28, W: 28, COut: 128,
		KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}
	d := sim.MaliT860
	task := autotvm.Task{Workload: w, Device: d}

	space := templates.ConfigSpace(w, d)
	def := templates.CostMs(w, templates.DeviceDefaultConfig(w, d), d)
	fmt.Printf("workload %s on %s\n", w.Key(), d.Name)
	fmt.Printf("config space: %d schedules; default (untuned): %.3f ms\n\n", len(space), def)

	budget := 96
	for _, s := range []struct {
		name string
		fn   func(autotvm.Task, autotvm.Options) autotvm.Result
	}{
		{"random search     ", autotvm.RandomSearch},
		{"simulated annealing", autotvm.SimulatedAnnealing},
		{"GBT model-guided  ", autotvm.ModelGuidedSearch},
	} {
		res := s.fn(task, autotvm.Options{Budget: budget, Seed: 3})
		fmt.Printf("%s: %.3f ms (%.2fx over default, %d trials)  %v\n",
			s.name, res.Ms, def/res.Ms, res.Trials, res.Config)
	}

	// The records database: tune once, reuse forever (§3.2.3: searching a
	// model on a device took tens of hours on real edge hardware).
	dbPath := filepath.Join(os.TempDir(), "unigpu_example_records.json")
	db, err := autotvm.OpenDB(dbPath)
	if err != nil {
		log.Fatal(err)
	}
	first := autotvm.Tune(task, autotvm.Options{Budget: budget, Seed: 3}, db)
	cached := autotvm.Tune(task, autotvm.Options{Budget: budget, Seed: 3}, db)
	if err := db.Save(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\ndatabase: first Tune ran %d trials; second hit the cache (%.3f ms) -> %s\n",
		first.Trials, cached.Ms, dbPath)

	// Graph-level tuning: a conv chain where per-kernel optima disagree on
	// layout; the DP weighs kernel gains against transform overheads.
	chain := []ops.ConvWorkload{
		{N: 1, CIn: 3, H: 224, W: 224, COut: 32, KH: 3, KW: 3, StrideH: 2, StrideW: 2, PadH: 1, PadW: 1},
		{N: 1, CIn: 32, H: 112, W: 112, COut: 64, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1},
		{N: 1, CIn: 64, H: 112, W: 112, COut: 64, KH: 1, KW: 1, StrideH: 1, StrideW: 1},
		{N: 1, CIn: 64, H: 112, W: 112, COut: 128, KH: 3, KW: 3, StrideH: 2, StrideW: 2, PadH: 1, PadW: 1},
	}
	cands := make([][]autotvm.Candidate, len(chain))
	for i, cw := range chain {
		cands[i] = graphtuner.CandidatesFor(cw, d, 24, 1)
	}
	dp := graphtuner.Optimize(chain, cands, d)
	greedy := graphtuner.Greedy(chain, cands, d)
	fmt.Printf("\ngraph tuner on a %d-conv chain:\n", len(chain))
	fmt.Printf("  greedy (best kernel each): %.3f ms total (%d transforms, %.3f ms in transforms)\n",
		greedy.TotalMs, greedy.TransformCnt, greedy.TransformMs)
	fmt.Printf("  DP (layout-aware):         %.3f ms total (%d transforms, %.3f ms in transforms)\n",
		dp.TotalMs, dp.TransformCnt, dp.TransformMs)
	for i, c := range dp.Choices {
		fmt.Printf("    conv %d -> layout NCHW%dc, schedule %v (%.3f ms)\n", i, c.Block, c.Config, c.KernelMs)
	}
}
