package main

import (
	"fmt"
	"sort"

	"unigpu/internal/bench"
	"unigpu/internal/price"
	"unigpu/internal/sim"
)

// compose breaks a model's predicted latency into components and prints
// the most expensive tuned kernels.
func compose(e *bench.Estimator, name string, p *sim.Platform) {
	m := e.Model(name, p)
	plan := e.TunedConvMs(m, p.GPU)
	other := e.OtherOpsMs(m, p.GPU)
	vis := price.OptimizedVisionMs(m.Vision, p.GPU)
	fmt.Printf("%s on %s: conv %.1f (kernel %.1f + transform %.1f) other %.1f vision %.1f\n",
		name, p.Name, plan.TotalMs, plan.KernelMs, plan.TransformMs, other, vis)
	type kv struct {
		k  string
		ms float64
	}
	agg := map[string]float64{}
	for i, c := range plan.Choices {
		agg[m.Convs[i].Key()+" "+c.Config.String()] += c.KernelMs
	}
	var list []kv
	for k, v := range agg {
		list = append(list, kv{k, v})
	}
	sort.Slice(list, func(i, j int) bool { return list[i].ms > list[j].ms })
	for i := 0; i < 8 && i < len(list); i++ {
		fmt.Printf("   %7.1f ms  %s\n", list[i].ms, list[i].k)
	}
}
