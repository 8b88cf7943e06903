package harness

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
)

// Span is one timed interval at a layer boundary. Times are nanoseconds
// from the run's epoch. Spans of one request share Req; Parent is the ID of
// the span that caused this one (0 for a request's root).
type Span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Req    int    `json:"req"`
	Layer  string `json:"layer"`
	Name   string `json:"name,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	// Source says how the interval was obtained: "call" is the benchmark
	// timing one call into the layer's public function, "telemetry" is an
	// interval the program itself recorded, "derived" is computed from
	// telemetry of the layer's children (first child start to last child end).
	Source string `json:"source"`
}

// Dur is the span's length.
func (s Span) Dur() int64 { return s.End - s.Start }

// SelfTimes returns, per span ID, the span's duration minus the part of its
// interval that its child spans cover. Children are clipped to the parent
// and overlapping children are counted once, so self time is never negative
// and a parent's self time plus its children's covered time equals its
// duration exactly.
func SelfTimes(spans []Span) map[int]int64 {
	children := map[int][]Span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int]int64, len(spans))
	for _, p := range spans {
		kids := children[p.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered, edge := int64(0), p.Start
		for _, k := range kids {
			lo, hi := max(k.Start, edge), min(k.End, p.End)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[p.ID] = p.Dur() - covered
	}
	return self
}

// LayerStat aggregates the spans of one layer.
type LayerStat struct {
	Count  int
	DurNs  int64 // summed durations
	SelfNs int64 // summed self times
}

// ByLayer folds spans and their self times per layer name.
func ByLayer(spans []Span) map[string]LayerStat {
	self := SelfTimes(spans)
	out := map[string]LayerStat{}
	for _, s := range spans {
		st := out[s.Layer]
		st.Count++
		st.DurNs += s.Dur()
		st.SelfNs += self[s.ID]
		out[s.Layer] = st
	}
	return out
}

// Enclosing picks the parent of an interval the program recorded on its own
// clock reads: among candidates that contain [start, end], the one that
// started last (concurrent clients' spans overlap, and a callee starts
// right after its own caller). It returns nil when none contains it.
func Enclosing(candidates []Span, start, end int64) *Span {
	var best *Span
	for i := range candidates {
		c := &candidates[i]
		if c.Start <= start && end <= c.End && (best == nil || c.Start > best.Start) {
			best = c
		}
	}
	return best
}

// WriteJSON writes v indented to path, creating the directory.
func WriteJSON(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
