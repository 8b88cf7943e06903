package sim

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"unigpu/internal/obs"
)

// FaultKind enumerates the device failures the simulator can inject. They
// model the runtime hazards a production serving stack must survive on
// real silicon: flaky kernels, stalled command queues, lost devices, and
// allocation failures under memory pressure.
type FaultKind int

const (
	// FaultTransientKernel is a one-off kernel-execution failure: the
	// dispatch fails, an immediate retry may succeed.
	FaultTransientKernel FaultKind = iota
	// FaultQueueHang stalls the command queue for the configured latency
	// before failing the dispatch (the queue is reset). The stall honours
	// context cancellation.
	FaultQueueHang
	// FaultDeviceLost removes the device: the faulting dispatch and every
	// subsequent one fail permanently until Heal is called.
	FaultDeviceLost
	// FaultMemPressure is a transient device-arena allocation failure.
	FaultMemPressure

	numFaultKinds = 4
)

func (k FaultKind) String() string {
	switch k {
	case FaultTransientKernel:
		return "transient_kernel"
	case FaultQueueHang:
		return "queue_hang"
	case FaultDeviceLost:
		return "device_lost"
	case FaultMemPressure:
		return "mem_pressure"
	}
	return fmt.Sprintf("fault(%d)", int(k))
}

// AllFaultKinds lists every injectable fault kind.
var AllFaultKinds = []FaultKind{FaultTransientKernel, FaultQueueHang, FaultDeviceLost, FaultMemPressure}

// Fault is the error returned by a faulted dispatch.
type Fault struct {
	Kind FaultKind
	Node string // the dispatch that faulted
}

func (f *Fault) Error() string {
	return fmt.Sprintf("sim: injected %s fault dispatching %q", f.Kind, f.Node)
}

// Transient reports whether a retry of the same dispatch may succeed.
// Device loss is permanent until the device heals.
func (f *Fault) Transient() bool { return f.Kind != FaultDeviceLost }

// FaultConfig parameterizes random fault injection. The zero value injects
// nothing (scripted faults still fire).
type FaultConfig struct {
	// Seed makes the fault sequence deterministic: the same seed and the
	// same dispatch order produce the same faults.
	Seed int64
	// Rate is the per-dispatch probability of injecting a fault.
	Rate float64
	// Kinds restricts which kinds are drawn; empty means AllFaultKinds.
	Kinds []FaultKind
	// HangLatency is the stall injected by FaultQueueHang (default 2ms).
	HangLatency time.Duration
	// MaxFaults bounds the total number of randomly injected faults
	// (0 = unlimited). Scripted faults are not counted against it.
	MaxFaults int
	// Device labels this injector's metrics with the replica it models
	// (fault.injected.<kind>.<device>), so a fleet scrape distinguishes
	// which device faulted. Empty keeps the single-device metric names
	// (fault.injected.<kind>) unchanged.
	Device string
}

// FaultInjector deterministically injects device failures into simulated
// GPU dispatches. One injector models one device's health; attach it to a
// Device (Device.Faults) or hand it to a runtime session directly. All
// methods are safe for concurrent use. A nil injector is healthy: Dispatch
// returns nil.
type FaultInjector struct {
	mu     sync.Mutex
	cfg    FaultConfig
	rng    *rand.Rand
	script []FaultKind
	lost   bool
	total  int64
	byKind [numFaultKinds]int64
}

// NewFaultInjector creates an injector drawing random faults per cfg.
func NewFaultInjector(cfg FaultConfig) *FaultInjector {
	return &FaultInjector{cfg: cfg, rng: rand.New(rand.NewSource(cfg.Seed))}
}

// Script appends faults that fire deterministically, one per dispatch, in
// order, before any random draws. A scripted FaultDeviceLost leaves the
// device lost afterwards, like a random one.
func (f *FaultInjector) Script(kinds ...FaultKind) *FaultInjector {
	f.mu.Lock()
	f.script = append(f.script, kinds...)
	f.mu.Unlock()
	return f
}

// Dispatch simulates submitting one kernel (named for the graph node) to
// the device's command queue. It returns nil for a healthy dispatch, a
// *Fault when a failure is injected, or ctx.Err() when the context is
// cancelled during an injected queue hang.
func (f *FaultInjector) Dispatch(ctx context.Context, node string) error {
	if f == nil {
		return nil
	}
	f.mu.Lock()
	if f.lost {
		f.mu.Unlock()
		return &Fault{Kind: FaultDeviceLost, Node: node}
	}
	kind := FaultKind(-1)
	switch {
	case len(f.script) > 0:
		kind = f.script[0]
		f.script = f.script[1:]
	case f.cfg.Rate > 0 &&
		(f.cfg.MaxFaults == 0 || f.total < int64(f.cfg.MaxFaults)) &&
		f.rng.Float64() < f.cfg.Rate:
		kinds := f.cfg.Kinds
		if len(kinds) == 0 {
			kinds = AllFaultKinds
		}
		kind = kinds[f.rng.Intn(len(kinds))]
	}
	if kind < 0 {
		f.mu.Unlock()
		return nil
	}
	f.total++
	f.byKind[kind]++
	if kind == FaultDeviceLost {
		f.lost = true
	}
	hang := f.cfg.HangLatency
	f.mu.Unlock()

	f.countInjected(kind)
	if kind == FaultQueueHang {
		if hang <= 0 {
			hang = 2 * time.Millisecond
		}
		t := time.NewTimer(hang)
		select {
		case <-ctx.Done():
			t.Stop()
			return ctx.Err()
		case <-t.C:
		}
	}
	return &Fault{Kind: kind, Node: node}
}

// countInjected bumps the injected-fault counter, labelled per device when
// the injector carries a Device name (fleet replicas) and under the
// original single-device name otherwise.
func (f *FaultInjector) countInjected(kind FaultKind) {
	name := "fault.injected." + kind.String()
	if f.cfg.Device != "" {
		name += "." + f.cfg.Device
	}
	obs.Count(name, 1)
}

// Kill deterministically removes the device — the scripted counterpart of
// a random FaultDeviceLost: every subsequent dispatch fails permanently
// until Heal. Fleet soaks use it to lose a device at an exact point in the
// request schedule. Killing an already-lost device is a no-op.
func (f *FaultInjector) Kill() {
	if f == nil {
		return
	}
	f.mu.Lock()
	if f.lost {
		f.mu.Unlock()
		return
	}
	f.lost = true
	f.total++
	f.byKind[FaultDeviceLost]++
	f.mu.Unlock()
	f.countInjected(FaultDeviceLost)
}

// DeviceLost reports whether a FaultDeviceLost has fired and the device
// has not healed.
func (f *FaultInjector) DeviceLost() bool {
	if f == nil {
		return false
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.lost
}

// Heal restores a lost device (a driver reset), so subsequent dispatches
// go back to the configured random behaviour.
func (f *FaultInjector) Heal() {
	if f == nil {
		return
	}
	f.mu.Lock()
	f.lost = false
	f.mu.Unlock()
}

// Counts snapshots the injected-fault totals by kind name, omitting kinds
// that never fired — the shape serving reports embed.
func (f *FaultInjector) Counts() map[string]int64 {
	if f == nil {
		return nil
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make(map[string]int64, numFaultKinds)
	for _, k := range AllFaultKinds {
		if f.byKind[k] > 0 {
			out[k.String()] = f.byKind[k]
		}
	}
	return out
}
