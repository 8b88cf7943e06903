// Package runtime executes optimized computational graphs — the
// heterogeneous graph executor of the stack. Execution is split into a
// one-time compilation step (NewPlan: validation, topological scheduling,
// liveness-based arena-slot assignment) and a reusable steady-state run
// loop (Plan.NewSession / Session.Run) that runs the nodes in order on the
// calling goroutine and performs zero heap allocations for intermediate
// tensors. Parallelism lives inside operators, in the host worker pool
// (internal/par), not between them.
//
// There is one way to run a node: NewPlan turns every operator into a
// graph.PreparedOp (whatever it packs from its constant operands, the
// scratch it declares, its profiler label) and only allocates slots; the
// run loop makes one PreparedOp.Run call per node and knows nothing about
// what is inside. And one way to run a request: SessionPool.Run accounts
// for it (ID, sampled trace, SLO outcome) and either serves it — acquire a
// session, run, copy the outputs out, release — or queues it for the
// Batcher, whose single-request and degraded paths call the same serve.
// Fleet.Run places requests on pools.
//
// Nodes tagged OnCPU and OnGPU both run on the host here (the GPU is
// simulated; see internal/sim for latency), but the executor honours the
// placement structurally: device_copy nodes materialise buffer handoffs,
// GPU-placed nodes pass through the simulated device's fault gate, and
// profiler rows and request traces record which device each operator was
// assigned to.
package runtime

import (
	"unigpu/internal/graph"
	"unigpu/internal/tensor"
)

// NodeProfile records one planned node: its name, kind, device and the
// bytes of its output.
type NodeProfile struct {
	Name     string
	Kind     string
	Device   graph.DeviceClass
	OutBytes int
}

// Result is the outcome of one inference.
type Result struct {
	Outputs  []*tensor.Tensor
	Profile  []NodeProfile
	PeakLive int // peak bytes of simultaneously live intermediate tensors
}

// Execute is the one-shot reference executor for tests: it runs the graph
// on the given feeds (by input-node name) through a throwaway plan and
// session, profiles every node of the plan in schedule order and reports
// PeakLive from the reference-counted liveness analysis. Nothing in the
// product calls it — unigpu.CompiledModel.Run goes through the model's
// cached plan — because every call plans again and packs every conv's
// weights again.
func Execute(g *graph.Graph, feeds map[string]*tensor.Tensor) (*Result, error) {
	plan, err := NewPlan(g)
	if err != nil {
		return nil, err
	}
	outs, err := plan.NewSession().Run(feeds)
	if err != nil {
		return nil, err
	}
	prof := make([]NodeProfile, len(plan.nodes))
	for i := range plan.nodes {
		pn := &plan.nodes[i]
		prof[i] = NodeProfile{Name: pn.name, Kind: pn.kind, Device: pn.device, OutBytes: pn.dtype.Size() * pn.elems}
	}
	return &Result{Outputs: outs, Profile: prof, PeakLive: plan.PeakLiveBytes()}, nil
}
