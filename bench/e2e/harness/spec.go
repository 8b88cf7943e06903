package harness

// Spec mirrors the repo-root BENCHMARK.json: the command that runs the
// benchmark, the directories that hold it, its workloads and its metrics.
type Spec struct {
	Command    []string        `json:"command"`
	Paths      []string        `json:"paths"`
	RunSeconds int             `json:"run_seconds"`
	Workloads  []WorkloadSpec  `json:"workloads"`
	EndToEnd   []BoundedMetric `json:"end_to_end"`
	PerLayer   []Metric        `json:"per_layer"`
}

// WorkloadSpec names a workload and records why it exists.
type WorkloadSpec struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

// Metric is a named measurement with its unit and which direction is good.
type Metric struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"` // "lower" or "higher"
}

// BoundedMetric is an end-to-end metric: Bound is the share of the parent's
// median by which it may get worse before a change counts as a regression.
type BoundedMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// Value is one reported measurement.
type Value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Result is the last line a benchmark run prints.
type Result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]Value `json:"metrics"`
}
