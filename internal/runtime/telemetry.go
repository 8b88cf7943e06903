package runtime

import (
	"maps"
	"strings"
	"sync"
	"sync/atomic"

	"unigpu/internal/obs"
)

// Compiled-plan registry behind the /debug/plans endpoint: every NewPlan
// files a record here (bounded; oldest dropped) so a live serving process
// can be asked what it has compiled. The registry keeps the record, never
// the plan: a plan owns its packed conv weights (tens to hundreds of MB for
// a zoo model), and must be collectable once its owner drops it.

const maxRegisteredPlans = 64

// planRecord is what outlives a plan in the registry: its metadata, fixed
// at NewPlan, and its label, which the owner may still set afterwards.
type planRecord struct {
	info  PlanInfo // Label is read from label at dump time
	label atomic.Pointer[string]
}

var (
	plansMu  sync.Mutex
	plansReg []*planRecord
)

func init() {
	obs.RegisterDebug("plans", func() any { return PlanInfos() })
}

func registerPlan(p *Plan) {
	p.rec = &planRecord{info: p.summarize()}
	plansMu.Lock()
	plansReg = append(plansReg, p.rec)
	if len(plansReg) > maxRegisteredPlans {
		plansReg = plansReg[len(plansReg)-maxRegisteredPlans:]
	}
	plansMu.Unlock()
}

// SetLabel names the plan in telemetry (the /debug/plans dump); unigpu
// sets it to the compiled model's name.
func (p *Plan) SetLabel(label string) {
	p.rec.label.Store(&label)
}

// Label returns the telemetry label ("" until SetLabel).
func (p *Plan) Label() string {
	if l := p.rec.label.Load(); l != nil {
		return *l
	}
	return ""
}

// labelled returns the record's metadata under its current label. Kernels
// is copied: callers own what they get.
func (r *planRecord) labelled() PlanInfo {
	info := r.info
	if l := r.label.Load(); l != nil {
		info.Label = *l
	}
	info.Kernels = maps.Clone(r.info.Kernels)
	return info
}

// PlanInfo is the compiled-plan metadata dumped at /debug/plans.
type PlanInfo struct {
	Label             string         `json:"label,omitempty"`
	Nodes             int            `json:"nodes"`
	GPUNodes          int            `json:"gpu_nodes"`
	CPUNodes          int            `json:"cpu_nodes"`
	Inputs            int            `json:"inputs"`
	Outputs           int            `json:"outputs"`
	ArenaBytes        int            `json:"arena_bytes"`
	PeakLiveBytes     int            `json:"peak_live_bytes"`
	IntermediateBytes int            `json:"intermediate_bytes"`
	Kernels           map[string]int `json:"kernels,omitempty"` // selected conv kernels by name
}

// Info summarizes the plan for telemetry.
func (p *Plan) Info() PlanInfo { return p.rec.labelled() }

// summarize computes the plan's metadata, once, for its registry record.
func (p *Plan) summarize() PlanInfo {
	info := PlanInfo{
		Nodes:             len(p.nodes),
		Inputs:            len(p.inputs),
		Outputs:           len(p.outputs),
		ArenaBytes:        p.ArenaBytes(),
		PeakLiveBytes:     p.peakLive,
		IntermediateBytes: p.interBytes,
	}
	for i := range p.nodes {
		pn := &p.nodes[i]
		if pn.gpu {
			info.GPUNodes++
		} else {
			info.CPUNodes++
		}
		// A label of the form kind/routine[@dtype] names a selected routine.
		if _, routine, ok := strings.Cut(pn.profKind, "/"); ok {
			if info.Kernels == nil {
				info.Kernels = map[string]int{}
			}
			routine, _, _ = strings.Cut(routine, "@")
			info.Kernels[routine]++
		}
	}
	return info
}

// PlanInfos snapshots the registered plans, oldest first.
func PlanInfos() []PlanInfo {
	plansMu.Lock()
	recs := append([]*planRecord(nil), plansReg...)
	plansMu.Unlock()
	out := make([]PlanInfo, len(recs))
	for i, r := range recs {
		out[i] = r.labelled()
	}
	return out
}
