package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	goruntime "runtime"
	"strings"

	"unigpu/bench/e2e/harness"
)

// environment records where a run was taken; numbers from two different
// environments are not comparable.
type environment struct {
	NumCPU     int    `json:"num_cpu"` // runtime.NumCPU: the cores this process may use (nproc)
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPUModel   string `json:"cpu_model"`
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
}

func readEnvironment() environment {
	env := environment{
		NumCPU: goruntime.NumCPU(), GOMAXPROCS: goruntime.GOMAXPROCS(0),
		GoVersion: goruntime.Version(), GOOS: goruntime.GOOS, GOARCH: goruntime.GOARCH,
		CPUModel: "unknown",
	}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				env.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	return env
}

// counts are the raw numbers behind every ratio a run reports.
type counts struct {
	Attempted int `json:"attempted"`
	Succeeded int `json:"succeeded"`
	Failed    int `json:"failed"`
	Samples   int `json:"samples"` // latency samples: one per correct response
}

// measurement is one metric of a report. Value is null where the layer is
// bypassed by the workload (printed n/a, and 0 on the driver's result line,
// which only carries numbers).
type measurement struct {
	Value *float64 `json:"value"`
	Unit  string   `json:"unit"`
}

// report is everything one run of one workload measured; -json writes it.
type report struct {
	Workload    string                 `json:"workload"`
	Seed        int64                  `json:"seed"`
	Trace       int                    `json:"trace"`
	Seconds     float64                `json:"seconds"`
	Clients     int                    `json:"clients"`
	Environment environment            `json:"environment"`
	Counts      counts                 `json:"counts"`
	MaxRelErr   float64                `json:"max_rel_err"`
	FirstError  string                 `json:"first_error,omitempty"`
	Host        hostReport             `json:"host"`
	Tracing     string                 `json:"tracing"`
	TraceFile   string                 `json:"trace_file,omitempty"`
	Metrics     map[string]measurement `json:"metrics"`
	// Samples are the window's correct responses as [arrival s, latency ms
	// as timed, segment]; Host.Segments[segment].Slowdown is what to divide
	// the latency by for reference-host time.
	Samples [][3]float64 `json:"samples"`
}

// hostReport is what the host probe saw during a run and the host-clock
// values as timed, before the slowdown was divided out, so that either can
// be recomputed without touching the benchmark.
type hostReport struct {
	ProbeRefMs       float64   `json:"probe_ref_ms"`
	Slowdown         float64   `json:"slowdown"` // over the whole window: trimmed-mean probe rep / ProbeRefMs
	RawLatencyP50Ms  float64   `json:"raw_latency_p50_ms"`
	RawThroughputRps float64   `json:"raw_throughput_rps"`
	SetupRawS        []float64 `json:"setup_raw_s,omitempty"` // each timed set-up
	SetupSlowdown    float64   `json:"setup_slowdown,omitempty"`
	Segments         []segment `json:"segments"`
	ProbeRepsMs      []float64 `json:"probe_reps_ms"` // the window's, in order: segmentReps before each segment and after the last
}

func newReport(w *workload, cfg config, trace int, win window) *report {
	r := &report{
		Workload: w.name, Seed: cfg.seed, Trace: trace, Seconds: cfg.seconds, Clients: w.clients,
		Environment: readEnvironment(),
		Counts:      counts{Attempted: win.attempted, Succeeded: win.succeeded(), Failed: win.failed, Samples: len(win.latMs)},
		MaxRelErr:   win.maxRelErr,
		Metrics:     map[string]measurement{},
		Host: hostReport{
			ProbeRefMs: probeRefMs, Slowdown: slowdown(win.allProbeMs()),
			RawLatencyP50Ms: harness.Median(win.latMs), RawThroughputRps: float64(win.succeeded()) / win.elapsedS(),
			Segments: win.segments, ProbeRepsMs: win.allProbeMs(),
		},
	}
	for i, ms := range win.latMs {
		r.Samples = append(r.Samples, [3]float64{win.doneS[i], ms, float64(win.seg[i])})
	}
	if win.firstErr != nil {
		r.FirstError = win.firstErr.Error()
	}
	return r
}

// passMetrics lists the metrics a pass reports, in BENCHMARK.json order:
// the end-to-end ones for -trace 0, the per-layer ones for -trace 1.
func passMetrics(trace int) []harness.Metric {
	if trace == 1 {
		return spec.PerLayer
	}
	ms := make([]harness.Metric, len(spec.EndToEnd))
	for i, m := range spec.EndToEnd {
		ms[i] = harness.Metric{Name: m.Name, Unit: m.Unit, Better: m.Better}
	}
	return ms
}

func (r *report) unit(name string) string {
	for _, m := range passMetrics(r.Trace) {
		if m.Name == name {
			return m.Unit
		}
	}
	panic("benchmark reports " + name + ", which BENCHMARK.json does not list")
}

func (r *report) set(name string, v float64) {
	r.Metrics[name] = measurement{Value: &v, Unit: r.unit(name)}
}

// na marks metrics of a layer this workload bypasses.
func (r *report) na(names ...string) {
	for _, name := range names {
		r.Metrics[name] = measurement{Unit: r.unit(name)}
	}
}

// result is the line the driver reads: exactly the metrics of this pass.
func (r *report) result() (harness.Result, error) {
	res := harness.Result{
		Correct: r.Counts.Failed == 0 && r.Counts.Attempted > 0, Attempted: r.Counts.Attempted, Failed: r.Counts.Failed,
		Metrics: map[string]harness.Value{},
	}
	for _, pm := range passMetrics(r.Trace) {
		name := pm.Name
		m, ok := r.Metrics[name]
		if !ok {
			return res, fmt.Errorf("metric %s was not measured", name)
		}
		v := harness.Value{Unit: m.Unit}
		if m.Value != nil {
			v.Value = *m.Value
		}
		res.Metrics[name] = v
	}
	return res, nil
}

// print writes the human-readable table, then the result line last.
func (r *report) print(out io.Writer) error {
	res, err := r.result()
	if err != nil {
		return err
	}
	pass := "end-to-end (tracing off)"
	if r.Trace == 1 {
		pass = "per-layer (traced pass)"
	}
	env := r.Environment
	fmt.Fprintf(out, "== %s  %s  seed %d  window %.1fs  clients %d\n", r.Workload, pass, r.Seed, r.Seconds, r.Clients)
	fmt.Fprintf(out, "   %s, %d cores, GOMAXPROCS %d, %s %s/%s\n", env.CPUModel, env.NumCPU, env.GOMAXPROCS, env.GoVersion, env.GOOS, env.GOARCH)
	fmt.Fprintf(out, "   %s\n", r.Tracing)
	fmt.Fprintf(out, "   attempted %d  succeeded %d  failed %d  samples %d  max_rel_err %.3e\n",
		r.Counts.Attempted, r.Counts.Succeeded, r.Counts.Failed, r.Counts.Samples, r.MaxRelErr)
	h := r.Host
	fmt.Fprintf(out, "   host ran %.3f times slower than the reference (%d probe reps, reference %.2f ms); as timed: p50 %.3f ms, %.3f req/s",
		h.Slowdown, len(h.ProbeRepsMs), h.ProbeRefMs, h.RawLatencyP50Ms, h.RawThroughputRps)
	if len(h.SetupRawS) > 0 {
		fmt.Fprintf(out, ", set-ups %.3f s at %.3f times slower", h.SetupRawS, h.SetupSlowdown)
	}
	fmt.Fprintln(out)
	if r.FirstError != "" {
		fmt.Fprintf(out, "   first failure: %s\n", r.FirstError)
	}
	if r.TraceFile != "" {
		fmt.Fprintf(out, "   spans written to %s\n", r.TraceFile)
	}
	for _, pm := range passMetrics(r.Trace) {
		m := r.Metrics[pm.Name]
		if m.Value == nil {
			fmt.Fprintf(out, "%-34s %14s %s\n", pm.Name, "n/a", m.Unit)
		} else {
			fmt.Fprintf(out, "%-34s %14.6g %s\n", pm.Name, *m.Value, m.Unit)
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(out, "%s\n", line)
	return err
}
