package unigpu

// End-to-end observability test: compile and run a seed model with tracing
// enabled, export the Chrome trace, and verify the span hierarchy and the
// required metric names survive the full pipeline (the ISSUE-1 acceptance
// criterion).

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"unigpu/internal/obs"
)

type traceEvent struct {
	Name string            `json:"name"`
	Ph   string            `json:"ph"`
	Ts   float64           `json:"ts"`
	Dur  float64           `json:"dur"`
	Args map[string]string `json:"args"`
}

func TestPipelineTraceExport(t *testing.T) {
	obs.Reset()
	obs.Enable()
	defer func() {
		obs.Disable()
		obs.Reset()
	}()

	eng := NewEngine()
	cm, err := eng.Compile("SqueezeNet1.0", DeepLens, CompileOptions{InputSize: 64})
	if err != nil {
		t.Fatal(err)
	}
	in := NewTensor(cm.InputShape()...)
	in.FillRandom(7)
	if _, err := cm.Run(in); err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := obs.DefaultTracer.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var trace struct {
		TraceEvents []traceEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &trace); err != nil {
		t.Fatalf("exported trace is not valid JSON: %v", err)
	}
	if len(trace.TraceEvents) == 0 {
		t.Fatal("trace is empty")
	}

	byName := map[string][]traceEvent{}
	laneThreads := 0
	for _, ev := range trace.TraceEvents {
		if ev.Ph == "M" {
			// thread_name metadata announcing the per-lane tracks that
			// node spans carrying the lane attribute land on.
			if ev.Name != "thread_name" {
				t.Fatalf("metadata event %q, want thread_name", ev.Name)
			}
			laneThreads++
			continue
		}
		if ev.Ph != "X" {
			t.Fatalf("event %q has phase %q, want X", ev.Name, ev.Ph)
		}
		byName[ev.Name] = append(byName[ev.Name], ev)
	}
	if laneThreads == 0 {
		t.Error("no per-lane thread metadata despite lane-attributed node spans")
	}

	// The pipeline stages all show up.
	for _, want := range []string{
		"compile", "graph.optimize", "graph.pass.fold_batch_norm",
		"graph.pass.fuse_activations", "graph.pass.precompute_constants",
		"graph.place_devices", "tune.conv_plan", "graphtuner.candidates",
		"graphtuner.layout", "graphtuner.dp", "runtime.execute",
	} {
		if len(byName[want]) == 0 {
			t.Errorf("trace has no %q span", want)
		}
	}

	// Span nesting: graph passes under graph.optimize under compile;
	// tuning under the pricing stage; per-node spans under runtime.execute.
	id := func(ev traceEvent) string { return ev.Args["span_id"] }
	parent := func(ev traceEvent) string { return ev.Args["parent_id"] }
	compile := byName["compile"][0]
	if parent(compile) != "0" {
		t.Errorf("compile should be a root span, parent=%s", parent(compile))
	}
	gopt := byName["graph.optimize"][0]
	if parent(gopt) != id(compile) {
		t.Errorf("graph.optimize parent=%s, want compile=%s", parent(gopt), id(compile))
	}
	if pass := byName["graph.pass.fold_batch_norm"][0]; parent(pass) != id(gopt) {
		t.Errorf("fold_batch_norm parent=%s, want graph.optimize=%s", parent(pass), id(gopt))
	}
	plan := byName["tune.conv_plan"][0]
	if cand := byName["graphtuner.candidates"][0]; parent(cand) != id(plan) {
		t.Errorf("candidates parent=%s, want tune.conv_plan=%s", parent(cand), id(plan))
	}
	// Workloads tune concurrently and finish in any order, so no particular
	// layout span belongs to the first-recorded candidates span: each must
	// hang under one of them.
	candIDs := map[string]bool{}
	for _, cand := range byName["graphtuner.candidates"] {
		candIDs[id(cand)] = true
	}
	for _, layout := range byName["graphtuner.layout"] {
		if !candIDs[parent(layout)] {
			t.Errorf("layout span %s has parent=%s, not a graphtuner.candidates span", id(layout), parent(layout))
		}
	}
	exec := byName["runtime.execute"][0]
	nodes := 0
	for _, ev := range trace.TraceEvents {
		if strings.HasPrefix(ev.Name, "node:") {
			nodes++
			if parent(ev) != id(exec) {
				t.Fatalf("node span %q parent=%s, want runtime.execute=%s", ev.Name, parent(ev), id(exec))
			}
		}
	}
	if nodes == 0 {
		t.Error("no per-node execution spans in trace")
	}

	// Required metrics were recorded and appear in the dump.
	if v := obs.DefaultRegistry.Counter("tune.trials").Value(); v == 0 {
		t.Error("tune.trials counter is zero")
	}
	if n := obs.DefaultRegistry.Histogram("exec.node_wall_ns").Count(); n == 0 {
		t.Error("exec.node_wall_ns histogram has no samples")
	}
	dump := obs.DumpMetrics()
	for _, want := range []string{"tune.trials", "exec.node_wall_ns", "graph.pass_mutations"} {
		if !strings.Contains(dump, want) {
			t.Errorf("metrics dump missing %q:\n%s", want, dump)
		}
	}
}

// TestTraceDisabledByDefault pins the zero-overhead contract: without
// Enable, running the pipeline records nothing.
func TestTraceDisabledByDefault(t *testing.T) {
	obs.Reset()
	eng := NewEngine()
	cm, err := eng.Compile("MobileNet1.0", JetsonNano, CompileOptions{InputSize: 32, SkipTuning: true})
	if err != nil {
		t.Fatal(err)
	}
	in := NewTensor(cm.InputShape()...)
	if _, err := cm.Run(in); err != nil {
		t.Fatal(err)
	}
	if recs := obs.Records(); len(recs) != 0 {
		t.Fatalf("disabled tracer collected %d spans", len(recs))
	}
	if n := obs.DefaultRegistry.Histogram("exec.node_wall_ns").Count(); n != 0 {
		t.Fatalf("hot-path histogram recorded %d samples while disabled", n)
	}
}
