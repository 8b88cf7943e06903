package main

import (
	"context"
	"fmt"
	"math"
	goruntime "runtime"
	"sync"
	"time"

	"unigpu"
	"unigpu/bench/e2e/harness"
	"unigpu/internal/obs"
	"unigpu/internal/runtime"
)

// config is what one run of one workload is given.
type config struct {
	seed    int64
	seconds float64 // measured window
	warmup  float64 // discarded warm-up before every window, seconds
	setups  int     // timed set-ups per run; setup_s is their median
	inputs  int     // distinct request tensors
	outDir  string  // where the traced pass writes its spans
}

// segmentSeconds is how long clients serve between two runs of the host
// probe: long against one request, so that the probe costs a fiftieth of the
// window and the clients seldom stop, and short enough that a 16 s window
// still holds over a hundred probe reps.
const segmentSeconds = 0.5

// segment is one stretch of serving between two runs of the host probe.
type segment struct {
	StartS    float64 `json:"start_s"`   // since the window began
	ElapsedS  float64 `json:"elapsed_s"` // to the last completion; the probe is outside it
	Completed int     `json:"completed"` // correct responses
	Slowdown  float64 `json:"slowdown"`  // of the host, from the probe runs nearest in time
}

// window is what a set of closed-loop clients observed.
type window struct {
	latMs    []float64 // one sample per correct response
	doneS    []float64 // when each of those responses arrived, seconds into the window
	seg      []int     // the segment each of them was served in
	segments []segment
	// probeMs[k] is the run of the host probe before segment k; the last
	// one follows the last segment.
	probeMs   [][]float64
	calls     []harness.Span
	attempted int
	failed    int // errors, sheds, deadline misses and wrong outputs
	firstErr  error
	maxRelErr float64
	// Spent while serving, the probe left out: heap objects and bytes
	// allocated, and process CPU seconds.
	mallocs, allocBytes uint64
	cpuS                float64
}

func (w *window) succeeded() int { return w.attempted - w.failed }

func (w *window) fail(err error) {
	w.failed++
	if w.firstErr == nil {
		w.firstErr = err
	}
}

// elapsedS is the serving time of the window, the probe left out.
func (w *window) elapsedS() float64 {
	var s float64
	for _, g := range w.segments {
		s += g.ElapsedS
	}
	return s
}

// p50Ms and rps are the window's two host-clock results in reference-host
// time: the median of the latencies, each divided by its segment's
// slowdown, and correct responses over the segments' serving seconds, each
// divided by its slowdown.
func (w *window) p50Ms() float64 {
	_, slow := w.perSegment()
	return harness.Median(harness.Normalised(w.latMs, w.seg, slow))
}

func (w *window) rps() float64 {
	secs, slow := w.perSegment()
	return harness.NormalisedRate(w.succeeded(), secs, slow)
}

func (w *window) perSegment() (elapsedS, slowdown []float64) {
	for _, g := range w.segments {
		elapsedS, slowdown = append(elapsedS, g.ElapsedS), append(slowdown, g.Slowdown)
	}
	return elapsedS, slowdown
}

// allProbeMs is every rep of the window's probe runs, in order.
func (w *window) allProbeMs() []float64 {
	var reps []float64
	for _, run := range w.probeMs {
		reps = append(reps, run...)
	}
	return reps
}

// drive runs the closed loop for dur, in segments with a few reps of the host
// probe between them while no request is in flight. Each client is one
// goroutine per segment that sends its next request when the previous one
// returns, cycling through the inputs from its own offset and carrying on
// where it stopped in the segment before; requests in flight when a segment
// ends complete and count in it. Every response is checked after its latency
// is taken. With epoch set, each call is also recorded as a client span (the
// traced pass).
func drive(s *served, clients int, inputs []*unigpu.Tensor, chk *harness.Checker, dur time.Duration, epoch *time.Time, probe *hostProbe) window {
	per := make([]window, clients)
	next := make([]int, clients)
	for c := range next {
		next[c] = c * len(inputs) / clients
	}
	ctx := context.Background()
	var segments []segment
	done := 0 // correct responses of the segments so far
	spent := window{}
	var mem0, mem1 goruntime.MemStats
	spent.probeMs = [][]float64{probe.reps(nil, segmentReps)}
	start := time.Now()
	deadline := start.Add(dur)
	for time.Now().Before(deadline) {
		goruntime.ReadMemStats(&mem0)
		cpu0, _ := cpuSeconds()
		segStart := time.Now()
		segEnd := segStart.Add(seconds(segmentSeconds))
		if segEnd.After(deadline) {
			segEnd = deadline
		}
		var wg sync.WaitGroup
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				o := &per[c]
				for ; time.Now().Before(segEnd); next[c]++ {
					i := next[c] % len(inputs)
					t0 := time.Now()
					out, err := s.run(ctx, inputs[i])
					t1 := time.Now()
					o.attempted++
					if err != nil {
						o.fail(err)
						continue
					}
					relErr, err := chk.Check(i, out.Data())
					o.maxRelErr = math.Max(o.maxRelErr, relErr)
					if err != nil {
						o.fail(err)
						continue
					}
					o.latMs = append(o.latMs, float64(t1.Sub(t0))/1e6)
					o.doneS = append(o.doneS, t1.Sub(start).Seconds())
					o.seg = append(o.seg, len(segments))
					if epoch != nil {
						o.calls = append(o.calls, harness.Span{
							Layer: "client", Source: "call",
							Start: int64(t0.Sub(*epoch)), End: int64(t1.Sub(*epoch)),
						})
					}
				}
			}(c)
		}
		wg.Wait()
		elapsed := time.Since(segStart)
		cpu1, _ := cpuSeconds()
		goruntime.ReadMemStats(&mem1)
		spent.mallocs += mem1.Mallocs - mem0.Mallocs
		spent.allocBytes += mem1.TotalAlloc - mem0.TotalAlloc
		spent.cpuS += cpu1 - cpu0
		spent.probeMs = append(spent.probeMs, probe.reps(nil, segmentReps))
		g := segment{StartS: segStart.Sub(start).Seconds(), ElapsedS: elapsed.Seconds()}
		for c := range per {
			g.Completed += len(per[c].latMs)
		}
		g.Completed -= done
		done += g.Completed
		segments = append(segments, g)
	}
	all := spent
	all.segments = segments
	// The host's speed moves within a window, so each segment takes its own
	// slowdown, from the two probe runs before it and the two after it: one
	// run either side is too few reps to tell the host's speed from the
	// scatter of the probe itself.
	for i := range all.segments {
		var reps []float64
		for _, run := range all.probeMs[max(0, i-1):min(len(all.probeMs), i+3)] {
			reps = append(reps, run...)
		}
		all.segments[i].Slowdown = slowdown(reps)
	}
	for _, o := range per {
		all.latMs = append(all.latMs, o.latMs...)
		all.doneS = append(all.doneS, o.doneS...)
		all.seg = append(all.seg, o.seg...)
		all.calls = append(all.calls, o.calls...)
		all.attempted += o.attempted
		all.failed += o.failed
		all.maxRelErr = math.Max(all.maxRelErr, o.maxRelErr)
		if all.firstErr == nil {
			all.firstErr = o.firstErr
		}
	}
	return all
}

func seconds(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

// mean is the plain average of per-model values (three for the fleet).
func mean[T any](xs []T, f func(T) float64) float64 {
	var s float64
	for _, x := range xs {
		s += f(x)
	}
	return s / float64(len(xs))
}

// runMeasured produces the end-to-end metrics of one workload: timed
// set-ups, a discarded warm-up, then the measured window with benchmark
// spans, per-node profiling and the every-request sampler all off, so that
// the serving layers run exactly the telemetry a user gets by default. The
// three host-clock metrics are stated in reference-host time (hostProbe);
// the report carries the raw values beside them.
func runMeasured(w *workload, cfg config) (*report, error) {
	inputs, chk, err := w.checker(cfg)
	if err != nil {
		return nil, err
	}
	if obs.Enabled() {
		return nil, fmt.Errorf("span tracing is on; the measured window must run with it off")
	}
	probe := newHostProbe()

	var s *served
	setupS := make([]float64, cfg.setups)
	setupProbeMs := probe.reps(nil, setupReps)
	for i := range setupS {
		if s != nil {
			s.close()
		}
		goruntime.GC() // every timed set-up starts from a collected heap
		t0 := time.Now()
		if s, err = w.setUp(inputs[0], false); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setupS[i] = time.Since(t0).Seconds()
		setupProbeMs = probe.reps(setupProbeMs, setupReps)
	}
	defer s.close()

	drive(s, w.clients, inputs, chk, seconds(cfg.warmup), nil, probe)
	win := drive(s, w.clients, inputs, chk, seconds(cfg.seconds), nil, probe)

	r := newReport(w, cfg, 0, win)
	r.Tracing = "measured window: benchmark spans off, per-node Profile off, request sampler at the library default (1 in 16 for pools, none for a bare session)"
	if len(win.latMs) == 0 {
		return r, fmt.Errorf("no correct response in the window: %v", win.firstErr)
	}
	r.Host.SetupRawS, r.Host.SetupSlowdown = setupS, slowdown(setupProbeMs)
	r.set("setup_s", harness.Median(setupS)/r.Host.SetupSlowdown)
	r.set("latency_p50_ms", win.p50Ms())
	r.set("throughput_rps", win.rps())
	r.set("success_share", float64(win.succeeded())/float64(win.attempted))
	r.set("sim_latency_ms", mean(s.models, func(cm *unigpu.CompiledModel) float64 { return cm.PredictedLatencyMs }))
	r.set("allocs_per_req", float64(win.mallocs)/float64(win.attempted))
	r.set("arena_kib", mean(s.plans, func(p *runtime.Plan) float64 { return float64(p.ArenaBytes()) / 1024 }))
	return r, nil
}
