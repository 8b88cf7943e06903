package obs

import (
	"context"
	"encoding/json"
	"io"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// Request-scoped tracing: every serving request gets a request ID, and
// sampled requests additionally carry an ActiveRequest recorder through
// their context. The runtime attributes wall time to segments — admission
// wait, queue wait, per-node execution, the fault-dispatch gate
// (retries/backoff), and CPU re-execution — and records a per-node event
// stream with the lane each node ran on. Finished traces land in a bounded
// ring, exportable as compact records or as a Chrome trace with one
// process per request and one thread row per lane.

// RequestTrackerOptions configures a RequestTracker; the zero value
// selects the defaults noted per field.
type RequestTrackerOptions struct {
	// SampleEvery traces 1 in N requests (default 1: every request;
	// negative disables tracing while still assigning request IDs).
	SampleEvery int
	// Keep bounds the ring of finished traces (default 128).
	Keep int
	// MaxNodes caps the per-trace node-event stream (default 4096);
	// segment totals keep accumulating past the cap.
	MaxNodes int
}

// RequestTracker assigns request IDs and collects sampled request traces.
// All methods are safe for concurrent use and nil-safe.
type RequestTracker struct {
	opts RequestTrackerOptions
	seq  atomic.Uint64 // request IDs, every request
	n    atomic.Uint64 // sampling counter

	mu   sync.Mutex
	ring []RequestTrace
	next int
}

// NewRequestTracker creates a tracker; zero options select the defaults.
func NewRequestTracker(opts RequestTrackerOptions) *RequestTracker {
	if opts.SampleEvery == 0 {
		opts.SampleEvery = 1
	}
	if opts.Keep <= 0 {
		opts.Keep = 128
	}
	if opts.MaxNodes <= 0 {
		opts.MaxNodes = 4096
	}
	return &RequestTracker{opts: opts}
}

// NodeEvent is one node execution inside a request trace.
type NodeEvent struct {
	Name   string        `json:"name"`
	Kind   string        `json:"kind"`
	Lane   string        `json:"lane"` // gpu/0, or cpu/0 for CPU-placed and re-executed nodes
	Start  time.Time     `json:"start"`
	Dur    time.Duration `json:"dur_ns"`
	Reexec bool          `json:"reexec,omitempty"` // CPU re-execution of a failed GPU node
}

// RequestTrace is the compact per-request record: the wall clock split
// into non-overlapping segments plus the node event stream. A session runs
// its nodes one after another, so the segments plus Overhead equal Wall by
// construction (Overhead absorbs scheduling gaps).
type RequestTrace struct {
	ID        uint64        `json:"id"`
	Model     string        `json:"model"`
	Start     time.Time     `json:"start"`
	Wall      time.Duration `json:"wall_ns"`
	Admission time.Duration `json:"admission_ns"`         // admission decision
	Queue     time.Duration `json:"queue_ns"`             // waiting for a pooled session
	Exec      time.Duration `json:"exec_ns"`              // node execution (first attempt)
	Retry     time.Duration `json:"retry_ns"`             // failed dispatches, retries, backoff
	Reexec    time.Duration `json:"reexec_ns"`            // CPU re-execution of GPU nodes
	Gather    time.Duration `json:"gather_ns,omitempty"`  // copying feeds into a batched input
	Scatter   time.Duration `json:"scatter_ns,omitempty"` // copying a batched output row back out
	Overhead  time.Duration `json:"overhead_ns"`          // wall minus the accounted segments
	BatchSize int           `json:"batch,omitempty"`      // coalesced batch the request rode in
	Shed      bool          `json:"shed,omitempty"`
	Err       string        `json:"err,omitempty"`
	Nodes     []NodeEvent   `json:"nodes,omitempty"`
}

// ActiveRequest is the in-flight recorder for one sampled request. All
// methods are nil-safe, so instrumented code calls them unconditionally;
// they are mutex-guarded because a batched request is recorded by the
// batch dispatcher as well as by its own goroutine.
type ActiveRequest struct {
	t *RequestTracker

	mu sync.Mutex
	tr RequestTrace
}

// Start assigns the next request ID and, when the request is sampled,
// returns its recorder (nil otherwise, and for a nil tracker).
func (t *RequestTracker) Start(model string) *ActiveRequest {
	if t == nil {
		return nil
	}
	id := t.seq.Add(1)
	if t.opts.SampleEvery < 0 || t.n.Add(1)%uint64(t.opts.SampleEvery) != 0 {
		return nil
	}
	return &ActiveRequest{t: t, tr: RequestTrace{ID: id, Model: model, Start: time.Now()}}
}

// MarkAdmitted closes the admission segment: the time deciding whether to
// accept the request.
func (r *ActiveRequest) MarkAdmitted() {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.tr.Admission = time.Since(r.tr.Start)
	r.mu.Unlock()
}

// MarkAcquired closes the queue segment: the time from admission until a
// session was available.
func (r *ActiveRequest) MarkAcquired() {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.tr.Queue = time.Since(r.tr.Start) - r.tr.Admission
	if r.tr.Queue < 0 {
		r.tr.Queue = 0
	}
	r.mu.Unlock()
}

// AddNode records one node execution on a dispatch lane, accumulating it
// into the Exec (or, for a CPU re-execution, Reexec) segment.
func (r *ActiveRequest) AddNode(name, kind, lane string, start time.Time, dur time.Duration, reexec bool) {
	if r == nil {
		return
	}
	r.mu.Lock()
	if reexec {
		r.tr.Reexec += dur
	} else {
		r.tr.Exec += dur
	}
	if len(r.tr.Nodes) < r.t.opts.MaxNodes {
		r.tr.Nodes = append(r.tr.Nodes, NodeEvent{
			Name: name, Kind: kind, Lane: lane, Start: start, Dur: dur, Reexec: reexec,
		})
	}
	r.mu.Unlock()
}

// AddRetry accumulates time spent in the fault-dispatch gate: failed
// dispatches (including injected hangs) and retry backoff.
func (r *ActiveRequest) AddRetry(d time.Duration) {
	if r == nil || d <= 0 {
		return
	}
	r.mu.Lock()
	r.tr.Retry += d
	r.mu.Unlock()
}

// AddGather accumulates time spent copying this request's feeds into the
// batched input tensors.
func (r *ActiveRequest) AddGather(d time.Duration) {
	if r == nil || d <= 0 {
		return
	}
	r.mu.Lock()
	r.tr.Gather += d
	r.mu.Unlock()
}

// AddScatter accumulates time spent copying this request's rows out of the
// batched output tensors.
func (r *ActiveRequest) AddScatter(d time.Duration) {
	if r == nil || d <= 0 {
		return
	}
	r.mu.Lock()
	r.tr.Scatter += d
	r.mu.Unlock()
}

// SetBatchSize records the size of the coalesced batch the request was
// executed in (1 for the per-request path).
func (r *ActiveRequest) SetBatchSize(n int) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.tr.BatchSize = n
	r.mu.Unlock()
}

// MarkShed flags the request as shed by admission control.
func (r *ActiveRequest) MarkShed() {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.tr.Shed = true
	r.mu.Unlock()
}

// Finish seals the trace — Wall is measured, Overhead absorbs whatever
// the segments did not account for — and files it with the tracker.
func (r *ActiveRequest) Finish(err error) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.tr.Wall = time.Since(r.tr.Start)
	accounted := r.tr.Admission + r.tr.Queue + r.tr.Exec + r.tr.Retry + r.tr.Reexec + r.tr.Gather + r.tr.Scatter
	if r.tr.Overhead = r.tr.Wall - accounted; r.tr.Overhead < 0 {
		r.tr.Overhead = 0 // a guard: the segments never overlap
	}
	if err != nil {
		r.tr.Err = err.Error()
	}
	tr := r.tr
	r.mu.Unlock()

	t := r.t
	t.mu.Lock()
	if len(t.ring) < t.opts.Keep {
		t.ring = append(t.ring, tr)
	} else {
		t.ring[t.next] = tr
	}
	t.next = (t.next + 1) % t.opts.Keep
	t.mu.Unlock()
}

// Snapshot returns the retained traces, most recent last.
func (t *RequestTracker) Snapshot() []RequestTrace {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]RequestTrace, 0, len(t.ring))
	if len(t.ring) < t.opts.Keep {
		out = append(out, t.ring...)
	} else {
		out = append(out, t.ring[t.next:]...)
		out = append(out, t.ring[:t.next]...)
	}
	return out
}

// WriteChromeTrace exports the retained request traces in the Chrome
// trace-event format: one process per request (named by ID and model),
// a "request" thread carrying the segment spans, and one thread per lane
// so GPU-placed and CPU-placed nodes render as separate tracks.
func (t *RequestTracker) WriteChromeTrace(w io.Writer) error {
	traces := t.Snapshot()
	var epoch time.Time
	for _, tr := range traces {
		if epoch.IsZero() || tr.Start.Before(epoch) {
			epoch = tr.Start
		}
	}
	us := func(at time.Time) float64 { return float64(at.Sub(epoch).Nanoseconds()) / 1e3 }
	out := chromeTrace{DisplayTimeUnit: "ms"}
	for pi, tr := range traces {
		pid := pi + 1
		out.TraceEvents = append(out.TraceEvents, chromeEvent{
			Name: "process_name", Ph: "M", Pid: pid, Tid: 0,
			Args: map[string]string{"name": "request " + strconv.FormatUint(tr.ID, 10) + " (" + tr.Model + ")"},
		}, chromeEvent{
			Name: "thread_name", Ph: "M", Pid: pid, Tid: 1,
			Args: map[string]string{"name": "request"},
		})
		// Segment spans on the request thread, laid end to end in their
		// real order: admission, queue, then the run (exec+retry+reexec
		// interleave inside it, so the run span covers the remainder).
		at := tr.Start
		seg := func(name string, d time.Duration) {
			if d <= 0 {
				return
			}
			out.TraceEvents = append(out.TraceEvents, chromeEvent{
				Name: name, Ph: "X", Pid: pid, Tid: 1,
				Ts: us(at), Dur: float64(d.Nanoseconds()) / 1e3,
				Args: map[string]string{"request_id": strconv.FormatUint(tr.ID, 10)},
			})
			at = at.Add(d)
		}
		seg("admission", tr.Admission)
		seg("queue", tr.Queue)
		seg("run", tr.Wall-tr.Admission-tr.Queue)

		lanes := map[string]int{}
		for _, n := range tr.Nodes {
			if _, ok := lanes[n.Lane]; !ok {
				lanes[n.Lane] = 0
			}
		}
		names := make([]string, 0, len(lanes))
		for l := range lanes {
			names = append(names, l)
		}
		sort.Strings(names)
		for i, l := range names {
			lanes[l] = i + 2 // tid 1 is the request thread
			out.TraceEvents = append(out.TraceEvents, chromeEvent{
				Name: "thread_name", Ph: "M", Pid: pid, Tid: i + 2,
				Args: map[string]string{"name": l},
			})
		}
		for _, n := range tr.Nodes {
			args := map[string]string{"kind": n.Kind}
			if n.Reexec {
				args["reexec"] = "true"
			}
			out.TraceEvents = append(out.TraceEvents, chromeEvent{
				Name: "node:" + n.Name, Ph: "X", Pid: pid, Tid: lanes[n.Lane],
				Ts: us(n.Start), Dur: float64(n.Dur.Nanoseconds()) / 1e3, Args: args,
			})
		}
	}
	return json.NewEncoder(w).Encode(out)
}

// Context plumbing --------------------------------------------------------

type reqCtxKey struct{}

// ContextWithRequest attaches a request recorder to the context; the
// runtime picks it up in Session.RunContext.
func ContextWithRequest(ctx context.Context, r *ActiveRequest) context.Context {
	if r == nil {
		return ctx
	}
	return context.WithValue(ctx, reqCtxKey{}, r)
}

// RequestFromContext returns the attached recorder, or nil.
func RequestFromContext(ctx context.Context) *ActiveRequest {
	r, _ := ctx.Value(reqCtxKey{}).(*ActiveRequest)
	return r
}

// DefaultRequests is the tracker serving pools feed by default: request
// IDs for everything, a 1-in-16 sampled trace ring for the live
// /debug/requests endpoint.
var DefaultRequests = NewRequestTracker(RequestTrackerOptions{SampleEvery: 16, Keep: 64})
