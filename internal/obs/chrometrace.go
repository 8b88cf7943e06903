package obs

import (
	"encoding/json"
	"io"
	"os"
	"sort"
	"strconv"
)

// chromeEvent is one entry of the Chrome trace-event format's traceEvents
// array (complete-duration events, ph="X"); timestamps and durations are
// microseconds. The file loads in chrome://tracing and Perfetto.
type chromeEvent struct {
	Name string            `json:"name"`
	Ph   string            `json:"ph"`
	Ts   float64           `json:"ts"`
	Dur  float64           `json:"dur"`
	Pid  int               `json:"pid"`
	Tid  int               `json:"tid"`
	Args map[string]string `json:"args,omitempty"`
}

type chromeTrace struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

// LaneAttr is the reserved span attribute naming the lane a span ran on
// ("gpu/0" or "cpu/0"). The Chrome exporter maps each distinct lane to its
// own tid so GPU-placed and CPU-placed nodes render as separate tracks
// instead of stacking on one row.
const LaneAttr = "lane"

// WriteChromeTrace exports the tracer's finished spans as Chrome
// trace-event JSON. Span identity and parentage are preserved in each
// event's args ("span_id", "parent_id") so tools and tests can recover the
// exact hierarchy; viewers additionally nest events by time containment.
// Spans carrying the LaneAttr attribute land on per-lane tids, announced
// with "thread_name" metadata events; traces without lanes keep the single
// tid 1 and emit no metadata.
func (t *Tracer) WriteChromeTrace(w io.Writer) error {
	t.mu.Lock()
	epoch := t.epoch
	recs := make([]SpanRecord, len(t.spans))
	copy(recs, t.spans)
	t.mu.Unlock()

	// Stable visual order: by start time, ties broken by id (parents were
	// started before their children).
	sort.Slice(recs, func(i, j int) bool {
		if !recs[i].Start.Equal(recs[j].Start) {
			return recs[i].Start.Before(recs[j].Start)
		}
		return recs[i].ID < recs[j].ID
	})

	// Assign tids: 1 is the unlaned main track; each distinct lane gets the
	// next tid in sorted-name order so the mapping is deterministic.
	laneOf := func(r SpanRecord) string {
		for _, a := range r.Attrs {
			if a.Key == LaneAttr {
				return a.Value
			}
		}
		return ""
	}
	laneSet := map[string]bool{}
	for _, r := range recs {
		if lane := laneOf(r); lane != "" {
			laneSet[lane] = true
		}
	}
	lanes := make([]string, 0, len(laneSet))
	for lane := range laneSet {
		lanes = append(lanes, lane)
	}
	sort.Strings(lanes)
	laneTid := make(map[string]int, len(lanes))
	for i, lane := range lanes {
		laneTid[lane] = i + 2
	}

	out := chromeTrace{DisplayTimeUnit: "ms", TraceEvents: make([]chromeEvent, 0, len(recs)+len(lanes))}
	if len(lanes) > 0 {
		out.TraceEvents = append(out.TraceEvents, chromeEvent{
			Name: "thread_name", Ph: "M", Pid: 1, Tid: 1,
			Args: map[string]string{"name": "main"},
		})
		for _, lane := range lanes {
			out.TraceEvents = append(out.TraceEvents, chromeEvent{
				Name: "thread_name", Ph: "M", Pid: 1, Tid: laneTid[lane],
				Args: map[string]string{"name": lane},
			})
		}
	}
	for _, r := range recs {
		tid := 1
		if lane := laneOf(r); lane != "" {
			tid = laneTid[lane]
		}
		ev := chromeEvent{
			Name: r.Name,
			Ph:   "X",
			Ts:   float64(r.Start.Sub(epoch).Nanoseconds()) / 1e3,
			Dur:  float64(r.Duration.Nanoseconds()) / 1e3,
			Pid:  1,
			Tid:  tid,
			Args: map[string]string{
				"span_id":   strconv.FormatInt(r.ID, 10),
				"parent_id": strconv.FormatInt(r.ParentID, 10),
			},
		}
		for _, a := range r.Attrs {
			ev.Args[a.Key] = a.Value
		}
		out.TraceEvents = append(out.TraceEvents, ev)
	}
	enc := json.NewEncoder(w)
	return enc.Encode(out)
}

// WriteChromeTraceFile writes the default tracer's trace to a file; the
// CLIs' -trace flag lands here.
func WriteChromeTraceFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := DefaultTracer.WriteChromeTrace(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
