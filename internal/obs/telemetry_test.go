package obs

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestQuantileExactOnBoundary: a population sitting exactly on a bucket
// boundary (every sample equal) must report the true value, not the
// bucket's upper bound — the historic failure mode of pure
// upper-bound estimation was up to 2x high at powers of two.
func TestQuantileExactOnBoundary(t *testing.T) {
	for _, v := range []float64{1, 2, 100, 1024, 5e6} {
		var h Histogram
		for i := 0; i < 1000; i++ {
			h.Observe(v)
		}
		for _, q := range []float64{0, 0.5, 0.99, 1} {
			if got := h.Quantile(q); got != v {
				t.Errorf("all-equal %g: Quantile(%g) = %g, want exact", v, q, got)
			}
		}
	}
}

// TestQuantileMonotoneAndClamped: quantiles are monotone in q and stay
// inside the observed [min, max] even across sparse buckets.
func TestQuantileMonotoneAndClamped(t *testing.T) {
	var h Histogram
	for _, v := range []float64{3, 3, 3, 900, 900, 1e6} {
		h.Observe(v)
	}
	prev := h.Quantile(0)
	if prev != 3 {
		t.Fatalf("p0 = %g, want min 3", prev)
	}
	for q := 0.05; q <= 1.0001; q += 0.05 {
		v := h.Quantile(q)
		if v < prev-1e-9 {
			t.Fatalf("Quantile not monotone: q=%.2f gives %g after %g", q, v, prev)
		}
		if v < 3 || v > 1e6 {
			t.Fatalf("Quantile(%.2f) = %g outside observed [3, 1e6]", q, v)
		}
		prev = v
	}
	if got := h.Quantile(1); got != 1e6 {
		t.Fatalf("p100 = %g, want max 1e6", got)
	}
}

// TestPrometheusGolden: the exposition output is byte-stable — sorted by
// name, sanitized charset, counters/gauges as single samples, histograms
// as summaries with exact quantiles for a deterministic population.
func TestPrometheusGolden(t *testing.T) {
	r := NewRegistry()
	r.Counter("fault.retries").Add(7)
	r.Gauge("pool.in_flight.resnet-50").Set(2)
	h := r.Histogram("pool.queue_wait_ns")
	for i := 0; i < 10; i++ {
		h.Observe(512)
	}

	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	want := `# TYPE fault_retries counter
fault_retries 7
# TYPE pool_in_flight_resnet_50 gauge
pool_in_flight_resnet_50 2
# TYPE pool_queue_wait_ns summary
pool_queue_wait_ns{quantile="0.5"} 512
pool_queue_wait_ns{quantile="0.9"} 512
pool_queue_wait_ns{quantile="0.99"} 512
pool_queue_wait_ns_sum 5120
pool_queue_wait_ns_count 10
`
	if got := buf.String(); got != want {
		t.Errorf("exposition mismatch:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

func TestPromNameSanitize(t *testing.T) {
	cases := map[string]string{
		"slo.p99_ms.ResNet50_v1": "slo_p99_ms_ResNet50_v1",
		"9lives":                 "_9lives",
		"a:b-c d":                "a:b_c_d",
	}
	for in, want := range cases {
		if got := promName(in); got != want {
			t.Errorf("promName(%q) = %q, want %q", in, got, want)
		}
	}
}

// TestRegistryReadUnderConcurrentWrite hammers one registry from writer
// goroutines (counters, gauges, histograms, resets) while readers render
// both text formats; run under -race this is the data-race gate for the
// scrape path the live /metrics endpoint uses.
func TestRegistryReadUnderConcurrentWrite(t *testing.T) {
	r := NewRegistry()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			name := fmt.Sprintf("m.%d", w)
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				r.Counter("c." + name).Inc()
				r.Gauge("g." + name).Set(float64(i))
				r.Histogram("h." + name).Observe(float64(i%1000 + 1))
				if i%256 == 0 {
					r.Reset()
				}
			}
		}(w)
	}
	for rd := 0; rd < 2; rd++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf bytes.Buffer
			for {
				select {
				case <-stop:
					return
				default:
				}
				buf.Reset()
				if err := r.WriteText(&buf); err != nil {
					t.Errorf("WriteText: %v", err)
					return
				}
				buf.Reset()
				if err := r.WritePrometheus(&buf); err != nil {
					t.Errorf("WritePrometheus: %v", err)
					return
				}
			}
		}()
	}
	time.Sleep(100 * time.Millisecond)
	close(stop)
	wg.Wait()
}

// TestProfilerSamplingAndSnapshot: 1-in-N run sampling, aggregation into
// the rolling table hottest-first, top-K truncation, and the
// per-(model, kind) histogram reaching the registry.
func TestProfilerSamplingAndSnapshot(t *testing.T) {
	reg := NewRegistry()
	p := NewProfiler(ProfilerOptions{SampleEvery: 4, TopK: 2, Registry: reg})
	sampled := 0
	for i := 0; i < 16; i++ {
		if p.SampleRun() {
			sampled++
		}
	}
	if sampled != 4 {
		t.Fatalf("sampled %d of 16 runs, want 4 (1 in 4)", sampled)
	}

	hot := p.Handle(ProfKey{Model: "m", Node: "conv1", Kind: "conv2d/gemm", Device: "gpu"})
	warm := p.Handle(ProfKey{Model: "m", Node: "relu1", Kind: "relu", Device: "gpu"})
	cold := p.Handle(ProfKey{Model: "m", Node: "flatten", Kind: "flatten", Device: "cpu"})
	for i := 0; i < 10; i++ {
		hot.Record(1e6)
	}
	warm.Record(5e5)
	cold.Record(100)

	snap := p.Snapshot()
	if len(snap.Top) != 2 {
		t.Fatalf("top-K = %d rows, want 2", len(snap.Top))
	}
	if snap.Top[0].Node != "conv1" || snap.Top[1].Node != "relu1" {
		t.Fatalf("rows not hottest-first: %s then %s", snap.Top[0].Node, snap.Top[1].Node)
	}
	r0 := snap.Top[0]
	if r0.Count != 10 || r0.TotalMs != 10 || r0.MeanUs != 1000 {
		t.Fatalf("hot row = %+v", r0)
	}
	if r0.Kind != "conv2d/gemm" || r0.Device != "gpu" {
		t.Fatalf("key fields lost: %+v", r0)
	}
	if c := reg.Histogram("profile.node_ns.m.conv2d/gemm").Count(); c != 10 {
		t.Fatalf("registry histogram count = %d, want 10", c)
	}
}

// TestProfilerNilAndDisabled: nil profilers and negative SampleEvery are
// inert, so sessions without telemetry never branch on it.
func TestProfilerNilAndDisabled(t *testing.T) {
	var p *Profiler
	if p.SampleRun() {
		t.Fatal("nil profiler must not sample")
	}
	p.Handle(ProfKey{}).Record(1) // must not panic
	if snap := p.Snapshot(); len(snap.Top) != 0 {
		t.Fatal("nil profiler snapshot must be empty")
	}
	off := NewProfiler(ProfilerOptions{SampleEvery: -1, Registry: NewRegistry()})
	for i := 0; i < 100; i++ {
		if off.SampleRun() {
			t.Fatal("disabled profiler must never sample")
		}
	}
}

// TestRequestTrackerSegments: every request gets an ID, sampled ones a
// recorder whose segments tile the wall clock — Overhead is defined as
// the remainder, and never negative.
func TestRequestTrackerSegments(t *testing.T) {
	tr := NewRequestTracker(RequestTrackerOptions{SampleEvery: 1, Keep: 8})
	req := tr.Start("m")
	if req == nil {
		t.Fatal("SampleEvery 1 must sample every request")
	}
	if req.tr.ID != 1 {
		t.Fatalf("first request ID = %d, want 1", req.tr.ID)
	}
	req.MarkAdmitted()
	req.MarkAcquired()
	// Segments come from real elapsed time so they fit inside the wall
	// clock and Overhead absorbs exactly the unaccounted remainder.
	start := time.Now()
	time.Sleep(2 * time.Millisecond)
	exec := time.Since(start)
	req.AddNode("conv1", "conv2d/gemm", "gpu/0", start, exec, false)
	t0 := time.Now()
	time.Sleep(time.Millisecond)
	retry := time.Since(t0)
	req.AddRetry(retry)
	t0 = time.Now()
	time.Sleep(time.Millisecond)
	reexec := time.Since(t0)
	req.AddNode("conv1", "conv2d/gemm", "cpu/0", t0, reexec, true)
	req.Finish(errors.New("boom"))

	traces := tr.Snapshot()
	if len(traces) != 1 {
		t.Fatalf("traces = %d, want 1", len(traces))
	}
	got := traces[0]
	if got.Exec != exec || got.Retry != retry || got.Reexec != reexec {
		t.Fatalf("segments = exec %v retry %v reexec %v, want %v %v %v",
			got.Exec, got.Retry, got.Reexec, exec, retry, reexec)
	}
	if got.Err != "boom" {
		t.Fatalf("err = %q", got.Err)
	}
	if sum := got.Admission + got.Queue + got.Exec + got.Retry + got.Reexec + got.Overhead; sum != got.Wall {
		t.Fatalf("segments sum to %v, wall is %v", sum, got.Wall)
	}
	if got.Overhead < 0 {
		t.Fatalf("overhead went negative: %v", got.Overhead)
	}
	if len(got.Nodes) != 2 || !got.Nodes[1].Reexec || got.Nodes[0].Lane != "gpu/0" {
		t.Fatalf("node events = %+v", got.Nodes)
	}
}

// TestRequestTrackerSamplingAndRing: IDs are assigned to every request
// even when unsampled, and the finished-trace ring keeps the most recent
// Keep traces in order.
func TestRequestTrackerSamplingAndRing(t *testing.T) {
	tr := NewRequestTracker(RequestTrackerOptions{SampleEvery: 2, Keep: 3})
	for i := 0; i < 10; i++ {
		req := tr.Start("m")
		req.Finish(nil) // nil-safe for the unsampled half
	}
	if n := tr.seq.Load(); n != 10 {
		t.Fatalf("requests = %d, want 10 (IDs for everything)", n)
	}
	traces := tr.Snapshot()
	if len(traces) != 3 {
		t.Fatalf("ring kept %d, want 3", len(traces))
	}
	for i := 1; i < len(traces); i++ {
		if traces[i].ID <= traces[i-1].ID {
			t.Fatalf("ring out of order: %d then %d", traces[i-1].ID, traces[i].ID)
		}
	}
	var nilTracker *RequestTracker
	if nilTracker.Start("m") != nil {
		t.Fatal("nil tracker must be inert")
	}
}

// TestRequestChromeExportLanes: the request-trace Chrome export puts each
// dispatch lane on its own tid with thread_name metadata, segments on
// tid 1.
func TestRequestChromeExportLanes(t *testing.T) {
	tr := NewRequestTracker(RequestTrackerOptions{SampleEvery: 1, Keep: 4})
	req := tr.Start("m")
	req.MarkAdmitted()
	req.MarkAcquired()
	now := time.Now()
	req.AddNode("a", "conv2d", "gpu/0", now, time.Millisecond, false)
	req.AddNode("b", "conv2d", "gpu/1", now, time.Millisecond, false)
	req.AddNode("c", "relu", "cpu/0", now, time.Millisecond, false)
	req.Finish(nil)

	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var parsed struct {
		TraceEvents []struct {
			Name string            `json:"name"`
			Ph   string            `json:"ph"`
			Pid  int               `json:"pid"`
			Tid  int               `json:"tid"`
			Args map[string]string `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &parsed); err != nil {
		t.Fatalf("chrome export is not valid JSON: %v", err)
	}
	laneTid := map[string]int{}
	nodeTid := map[string]int{}
	for _, ev := range parsed.TraceEvents {
		if ev.Ph == "M" && ev.Name == "thread_name" && ev.Tid >= 2 {
			laneTid[ev.Args["name"]] = ev.Tid
		}
		if ev.Ph == "X" && strings.HasPrefix(ev.Name, "node:") {
			nodeTid[strings.TrimPrefix(ev.Name, "node:")] = ev.Tid
		}
	}
	if len(laneTid) != 3 {
		t.Fatalf("lane threads = %v, want cpu/0 gpu/0 gpu/1", laneTid)
	}
	// Sorted lane names get ascending tids starting at 2.
	if laneTid["cpu/0"] != 2 || laneTid["gpu/0"] != 3 || laneTid["gpu/1"] != 4 {
		t.Fatalf("lane tid assignment = %v", laneTid)
	}
	if nodeTid["a"] != laneTid["gpu/0"] || nodeTid["b"] != laneTid["gpu/1"] || nodeTid["c"] != laneTid["cpu/0"] {
		t.Fatalf("nodes on wrong lanes: nodes %v lanes %v", nodeTid, laneTid)
	}
	for _, ev := range parsed.TraceEvents {
		if ev.Ph == "X" && !strings.HasPrefix(ev.Name, "node:") && ev.Tid != 1 {
			t.Fatalf("segment %q on tid %d, want the request thread 1", ev.Name, ev.Tid)
		}
	}
}

// TestTracerChromeLanes: spans carrying the reserved lane attribute land
// on per-lane tids; a lane-less trace keeps tid 1 with no metadata
// events, byte-compatible with pre-lane consumers.
func TestTracerChromeLanes(t *testing.T) {
	tr := NewTracer()
	tr.Enable()
	root := tr.Start("run")
	a := root.Child("node:a", KV(LaneAttr, "gpu/0"))
	a.End()
	b := root.Child("node:b", KV(LaneAttr, "cpu/0"))
	b.End()
	root.End()

	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var parsed struct {
		TraceEvents []struct {
			Name string            `json:"name"`
			Ph   string            `json:"ph"`
			Tid  int               `json:"tid"`
			Args map[string]string `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &parsed); err != nil {
		t.Fatal(err)
	}
	tids := map[string]int{}
	meta := 0
	for _, ev := range parsed.TraceEvents {
		if ev.Ph == "M" {
			meta++
			continue
		}
		tids[ev.Name] = ev.Tid
	}
	if meta != 3 { // main + two lanes
		t.Fatalf("metadata events = %d, want 3", meta)
	}
	if tids["run"] != 1 {
		t.Fatalf("unlaned root on tid %d, want 1", tids["run"])
	}
	// Sorted: cpu/0 -> 2, gpu/0 -> 3.
	if tids["node:b"] != 2 || tids["node:a"] != 3 {
		t.Fatalf("lane tids = %v", tids)
	}

	// Lane-less traces stay single-track with no metadata.
	tr2 := NewTracer()
	tr2.Enable()
	sp := tr2.Start("plain")
	sp.End()
	buf.Reset()
	if err := tr2.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf.String(), "thread_name") {
		t.Fatal("lane-less trace must not emit thread metadata")
	}
}

// TestSLOMonitorWindowAndBurn: outcomes fold into rolling per-model
// stats; errors and sheds burn the budget, the alarm trips past the
// configured burn rate, and Publish mirrors everything into gauges.
func TestSLOMonitorWindowAndBurn(t *testing.T) {
	reg := NewRegistry()
	m := NewSLOMonitor(SLOOptions{Window: time.Minute, ErrorBudget: 0.1, BurnAlarm: 2, Registry: reg})
	for i := 0; i < 95; i++ {
		m.Record("m", 2*time.Millisecond, OutcomeOK)
	}
	for i := 0; i < 3; i++ {
		m.Record("m", 0, OutcomeError)
	}
	m.Record("m", 0, OutcomeShed)
	m.Record("m", 0, OutcomeShed)

	st := m.Stats("m")
	if st.Requests != 100 || st.Errors != 3 || st.Shed != 2 {
		t.Fatalf("counts = %+v", st)
	}
	if st.BadRate != 0.05 {
		t.Fatalf("bad rate = %g, want 0.05", st.BadRate)
	}
	if st.BurnRate != 0.5 || st.Alarm {
		t.Fatalf("burn = %g alarm %v, want 0.5 and no alarm", st.BurnRate, st.Alarm)
	}
	if st.P50 != 2*time.Millisecond {
		t.Fatalf("p50 = %v, want 2ms (all-equal population)", st.P50)
	}

	// Push the bad rate past 2x the budget: the alarm trips.
	for i := 0; i < 40; i++ {
		m.Record("m", 0, OutcomeError)
	}
	stats := m.Publish()
	if len(stats) != 1 || !stats[0].Alarm {
		t.Fatalf("alarm did not trip: %+v", stats)
	}
	if v, ok := reg.Gauge("slo.alarm.m").Value(); !ok || v != 1 {
		t.Fatalf("slo.alarm.m gauge = %v %v, want 1", v, ok)
	}
	if v, ok := reg.Gauge("slo.p50_ms.m").Value(); !ok || v != 2 {
		t.Fatalf("slo.p50_ms.m gauge = %v %v, want 2", v, ok)
	}
}

// TestServeEndpoints drives the telemetry handler over httptest: the
// Prometheus scrape, health flipping 200/503 with the registered
// sources, the debug-source fallback, and the request-trace export.
func TestServeEndpoints(t *testing.T) {
	srv := httptest.NewServer(Handler())
	defer srv.Close()

	DefaultRegistry.Counter("serve.test_counter").Add(5)
	t.Cleanup(DefaultRegistry.Reset)

	get := func(path string) (*http.Response, string) {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		var buf bytes.Buffer
		buf.ReadFrom(resp.Body)
		resp.Body.Close()
		return resp, buf.String()
	}

	resp, body := get("/metrics")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/plain; version=0.0.4" {
		t.Fatalf("/metrics content-type %q", ct)
	}
	if !strings.Contains(body, "serve_test_counter 5") {
		t.Fatalf("/metrics missing counter:\n%s", body)
	}

	t.Cleanup(RegisterHealth("test.ok", func() HealthStatus { return HealthStatus{OK: true, Detail: "fine"} }))
	resp, body = get("/healthz")
	if resp.StatusCode != http.StatusOK || !strings.Contains(body, `"ok": true`) {
		t.Fatalf("/healthz healthy: status %d body %s", resp.StatusCode, body)
	}
	unregister := RegisterHealth("test.bad", func() HealthStatus { return HealthStatus{OK: false, Detail: "breaker open"} })
	resp, body = get("/healthz")
	unregister()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("/healthz with failing source: status %d, want 503", resp.StatusCode)
	}
	if !strings.Contains(body, "breaker open") {
		t.Fatalf("/healthz body missing detail: %s", body)
	}

	RegisterDebug("teststate", func() any { return map[string]int{"answer": 42} })
	resp, body = get("/debug/teststate")
	if resp.StatusCode != http.StatusOK || !strings.Contains(body, `"answer": 42`) {
		t.Fatalf("/debug/teststate: status %d body %s", resp.StatusCode, body)
	}
	resp, body = get("/debug/nosuch")
	if resp.StatusCode != http.StatusNotFound || !strings.Contains(body, "teststate") {
		t.Fatalf("unknown debug source must 404 and list sources: status %d body %s", resp.StatusCode, body)
	}

	for _, path := range []string{"/debug/profile", "/debug/slo", "/debug/requests", "/debug/requests?format=chrome", "/debug/trace"} {
		resp, body = get(path)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s status %d", path, resp.StatusCode)
		}
		if !json.Valid([]byte(body)) {
			t.Fatalf("%s is not valid JSON: %s", path, body)
		}
	}
}

// TestServeListener: the opt-in listener binds, answers, reports its
// bound address, and shuts down on Close.
func TestServeListener(t *testing.T) {
	srv, err := Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get("http://" + srv.Addr() + "/healthz")
	if err != nil {
		t.Fatalf("GET via listener: %v", err)
	}
	resp.Body.Close()
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := http.Get("http://" + srv.Addr() + "/healthz"); err == nil {
		t.Fatal("listener still answering after Close")
	}
}
