package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"reflect"
	"regexp"
	"strings"
	"testing"

	"unigpu/bench/e2e/harness"
)

var update = flag.Bool("update", false, "recompute testdata/golden.json from the reference path")

// TestSpecMatchesBenchmarkJSON keeps the repo-root BENCHMARK.json equal to
// the table the benchmark prints from (regenerate with `go run ./bench/e2e
// -spec > BENCHMARK.json`) and inside the limits the driver enforces.
func TestSpecMatchesBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var onDisk harness.Spec
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&onDisk); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(onDisk, spec) {
		t.Fatalf("BENCHMARK.json differs from bench/e2e/spec.go:\nfile %+v\ncode %+v", onDisk, spec)
	}

	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(n, u, better string) {
		t.Helper()
		if !name.MatchString(n) || seen[n] {
			t.Errorf("metric name %q is malformed or used twice", n)
		}
		seen[n] = true
		if !unit.MatchString(u) {
			t.Errorf("%s: unit %q is malformed", n, u)
		}
		if better != "lower" && better != "higher" {
			t.Errorf("%s: better is %q", n, better)
		}
	}
	setup := false
	for _, m := range spec.EndToEnd {
		check(m.Name, m.Unit, m.Better)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		setup = setup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !setup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	for _, m := range spec.PerLayer {
		check(m.Name, m.Unit, m.Better)
	}
	if n := len(spec.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", n)
	}
	for _, w := range spec.Workloads {
		if !name.MatchString(w.Name) || seen[w.Name] {
			t.Errorf("workload name %q is malformed or used twice", w.Name)
		}
		seen[w.Name] = true
		if len(w.Why) == 0 || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("%s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	// 4 + 22 runs per workload must fit the driver's 3420 s with set-up.
	if runs := 4 + 22*len(spec.Workloads); float64(runs)*(runSeconds+12) > 3420 {
		t.Errorf("%d runs of %d s leave under 12 s each for set-up, references and warm-up", runs, runSeconds)
	}
}

// TestGoldenPinsEveryWorkload checks that every workload's reference
// outputs are pinned for the golden seed; the digests themselves are
// compared whenever the benchmark runs with that seed (TestSmoke does).
// -update recomputes them: only for a deliberate change of the reference path.
func TestGoldenPinsEveryWorkload(t *testing.T) {
	const inputs = 8
	if *update {
		golden := map[string][]string{}
		for _, w := range workloads {
			if golden[w.goldenKey()] != nil {
				continue
			}
			chk, err := w.referenceOutputs(w.makeInputs(goldenSeed, inputs))
			if err != nil {
				t.Fatal(err)
			}
			for _, out := range chk.Want {
				golden[w.goldenKey()] = append(golden[w.goldenKey()], harness.Digest(out))
			}
		}
		if err := harness.WriteJSON("testdata/golden.json", golden); err != nil {
			t.Fatal(err)
		}
		t.Log("testdata/golden.json rewritten; rebuild so the embedded copy follows")
		return
	}
	data, err := os.ReadFile("testdata/golden.json")
	if err != nil {
		t.Fatal(err)
	}
	var golden map[string][]string
	if err := json.Unmarshal(data, &golden); err != nil {
		t.Fatal(err)
	}
	sha := regexp.MustCompile(`^[0-9a-f]{64}$`)
	for _, w := range workloads {
		pinned := golden[w.goldenKey()]
		if len(pinned) != inputs {
			t.Errorf("%s: %d digests pinned for %s, want %d", w.name, len(pinned), w.goldenKey(), inputs)
		}
		for _, d := range pinned {
			if !sha.MatchString(d) {
				t.Errorf("%s: %q is not a SHA-256", w.goldenKey(), d)
			}
		}
	}
}

// TestSmoke runs both passes of every workload with a 0.3 s window and
// asserts that what is printed is exactly what BENCHMARK.json promises:
// every metric of the pass by name, each with its unit, the driver's result
// line last, every response correct, and that the host probe's record is
// whole. It asserts nothing about timing. Under
// -short or the race detector it keeps the two cheapest workloads.
func TestSmoke(t *testing.T) {
	run := workloads
	if testing.Short() || raceEnabled {
		run = []*workload{workloadByName("mobilenet_fp16_pool"), workloadByName("squeezenet_batched")}
	}
	for _, w := range run {
		t.Run(w.name, func(t *testing.T) {
			cfg := config{seed: goldenSeed, seconds: 0.3, warmup: 0.1, setups: 1, inputs: 2, outDir: t.TempDir()}
			passes := []func(*workload, config) (*report, error){runMeasured, runTraced}
			for trace, pass := range passes {
				r, err := pass(w, cfg)
				if err != nil {
					t.Fatalf("trace %d: %v", trace, err)
				}
				var out bytes.Buffer
				if err := r.print(&out); err != nil {
					t.Fatalf("trace %d: %v", trace, err)
				}
				lines := strings.Split(strings.TrimSpace(out.String()), "\n")
				var res harness.Result
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatalf("trace %d: last line is not the result object: %v\n%s", trace, err, out.String())
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Errorf("trace %d: correct=%v attempted=%d failed=%d (%s)", trace, res.Correct, res.Attempted, res.Failed, r.FirstError)
				}
				want := passMetrics(trace)
				if len(res.Metrics) != len(want) {
					t.Errorf("trace %d: %d metrics on the result line, BENCHMARK.json lists %d", trace, len(res.Metrics), len(want))
				}
				for _, w := range want {
					m, ok := res.Metrics[w.Name]
					if !ok {
						t.Errorf("trace %d: %s missing from the result line", trace, w.Name)
					} else if m.Unit == "" || m.Unit != w.Unit {
						t.Errorf("trace %d: %s has unit %q, want %q", trace, w.Name, m.Unit, w.Unit)
					}
					if !regexp.MustCompile(`(?m)^` + regexp.QuoteMeta(w.Name) + `\s+\S+ ` + regexp.QuoteMeta(w.Unit) + `$`).MatchString(out.String()) {
						t.Errorf("trace %d: %s is not printed with its unit", trace, w.Name)
					}
				}
				if !strings.Contains(out.String(), "== "+w.name+" ") {
					t.Errorf("trace %d: workload name not printed", trace)
				}
				// The host probe ran around every segment, and every sample
				// knows the segment whose slowdown it is divided by.
				h := r.Host
				if len(h.Segments) == 0 || len(h.ProbeRepsMs) != segmentReps*(len(h.Segments)+1) || !(h.Slowdown > 0) {
					t.Errorf("trace %d: %d segments, %d probe reps, slowdown %v", trace, len(h.Segments), len(h.ProbeRepsMs), h.Slowdown)
				}
				for _, g := range h.Segments {
					if !(g.Slowdown > 0) || g.ElapsedS <= 0 {
						t.Errorf("trace %d: segment %+v", trace, g)
					}
				}
				for _, smp := range r.Samples {
					if g := int(smp[2]); g < 0 || g >= len(h.Segments) {
						t.Errorf("trace %d: sample in segment %d of %d", trace, g, len(h.Segments))
					}
				}
				if trace == 1 {
					checkTraceFile(t, r.TraceFile)
				}
			}
		})
	}
}

// checkTraceFile asserts the span file is a forest: every span's parent
// exists, contains it in the same request, and every request has nodes
// beneath its client span unless it rode a batched execution.
func checkTraceFile(t *testing.T, path string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var file struct {
		Requests int            `json:"requests"`
		Spans    []harness.Span `json:"spans"`
	}
	if err := json.Unmarshal(data, &file); err != nil {
		t.Fatal(err)
	}
	byID := map[int]harness.Span{}
	layers := map[string]int{}
	for _, s := range file.Spans {
		byID[s.ID] = s
		layers[s.Layer]++
	}
	if layers["client"] == 0 || layers["client"] != file.Requests {
		t.Errorf("%d client spans for %d requests", layers["client"], file.Requests)
	}
	for _, s := range file.Spans {
		if s.Parent == 0 {
			continue
		}
		p, ok := byID[s.Parent]
		if !ok || p.Req != s.Req {
			t.Fatalf("span %d (%s): parent %d missing or of another request", s.ID, s.Layer, s.Parent)
		}
	}
	for id, self := range harness.SelfTimes(file.Spans) {
		if self < 0 {
			t.Errorf("span %d has negative self time %d", id, self)
		}
	}
}
