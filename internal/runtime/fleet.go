package runtime

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"unigpu/internal/obs"
	"unigpu/internal/sim"
	"unigpu/internal/tensor"
)

// Fleet serving: N device replicas — typically the paper's three platforms
// (DeepLens/Intel HD 505, aiSage/Mali T-860, Jetson Nano/Maxwell) — each
// with its own compiled Plan, SessionPool, fault injector and circuit
// breaker. The Router places each request by predicted latency, load and
// health weight; the Fleet adds the robustness lifecycle on top: a replica
// whose breaker opens (or whose device is lost) is quarantined and its
// traffic drained to the survivors, a heal schedule later resets the
// device (FaultInjector.Heal), probes it through the breaker's half-open
// path, and ramps it back to full traffic share stepwise instead of
// slamming it. Every replica computes bit-identical outputs — the devices
// differ only in simulated timing, and a quarantined replica still serves
// correctly via CPU re-execution — so failover never changes results.

// ErrNoReplicas is returned by Fleet.Run on a fleet with zero replicas.
var ErrNoReplicas = errors.New("runtime: fleet has no replicas")

// ReplicaState is one replica's position in the drain/heal lifecycle.
type ReplicaState int32

const (
	// ReplicaActive: healthy, full traffic share.
	ReplicaActive ReplicaState = iota
	// ReplicaQuarantined: breaker open or device lost; weight zero, used
	// only as a last resort (its pool still serves via CPU re-exec).
	ReplicaQuarantined
	// ReplicaProbing: the heal schedule has reset the device and one probe
	// inference is deciding whether it recovered.
	ReplicaProbing
	// ReplicaRamping: probe succeeded; traffic share climbs stepwise back
	// to full as successes accumulate.
	ReplicaRamping
)

func (s ReplicaState) String() string {
	switch s {
	case ReplicaActive:
		return "active"
	case ReplicaQuarantined:
		return "quarantined"
	case ReplicaProbing:
		return "probing"
	case ReplicaRamping:
		return "ramping"
	}
	return fmt.Sprintf("state(%d)", int32(s))
}

// ReplicaConfig describes one fleet replica.
type ReplicaConfig struct {
	// Name labels the replica everywhere: metrics (fleet.served.<name>,
	// breaker.state.<name>, ...), /healthz (fleet.<name>), stats tables.
	Name string
	// Plan is the replica's compiled plan (per-device tuning baked in).
	Plan *Plan
	// PredictMs seeds the router's latency estimate — the cost oracle's
	// predicted per-request latency on this replica's device, in
	// milliseconds (unigpu uses CompiledModel.PredictedLatencyMs).
	PredictMs float64
	// Pool configures the replica's SessionPool. Pool.Device is
	// overwritten with Name; Pool.Session.Faults should carry the
	// replica's injector so the lifecycle has something to quarantine on.
	Pool PoolOptions
}

// HealPolicy schedules how a quarantined replica returns to service.
type HealPolicy struct {
	// ProbeAfter is how long a replica stays quarantined before the first
	// heal probe (default 100ms). Negative disables automatic healing —
	// Fleet.HealNow still probes on demand.
	ProbeAfter time.Duration
	// ProbeEvery is the retry interval after a failed probe (default:
	// ProbeAfter).
	ProbeEvery time.Duration
	// ProbeTimeout bounds the probe inference (default 2s).
	ProbeTimeout time.Duration
	// RampSteps is how many partial-weight steps a healed replica climbs
	// before full traffic share (default 3: weight 1/4 → 2/4 → 3/4 → 1).
	RampSteps int
	// RampSuccesses is how many successful requests advance one ramp step
	// (default 4).
	RampSuccesses int
}

func (h HealPolicy) withDefaults() HealPolicy {
	if h.ProbeAfter == 0 {
		h.ProbeAfter = 100 * time.Millisecond
	}
	if h.ProbeEvery <= 0 {
		h.ProbeEvery = h.ProbeAfter
	}
	if h.ProbeTimeout <= 0 {
		h.ProbeTimeout = 2 * time.Second
	}
	if h.RampSteps <= 0 {
		h.RampSteps = 3
	}
	if h.RampSuccesses <= 0 {
		h.RampSuccesses = 4
	}
	return h
}

// FleetOptions configures NewFleet.
type FleetOptions struct {
	// Replicas are the fleet members (at least one).
	Replicas []ReplicaConfig
	// Router configures placement scoring (EWMA correction of the cost
	// oracle by observed latency).
	Router RouterOptions
	// Heal schedules quarantined-replica recovery.
	Heal HealPolicy
}

// checkInterval is the supervisor's health-scan period. The supervisor
// only drives timed heal probes; quarantine detection also happens inline
// on every Run, so detection latency does not depend on it.
const checkInterval = 10 * time.Millisecond

// fleetReplica is one replica plus its lifecycle state.
type fleetReplica struct {
	name    string
	pool    *SessionPool
	inj     *sim.FaultInjector
	breaker *Breaker

	state  atomic.Int32 // ReplicaState
	served atomic.Int64

	// Lifecycle bookkeeping, guarded by Fleet.mu.
	quarantinedAt time.Time
	lastProbe     time.Time
	rampStep      int
	rampOK        int

	// probeFeeds are zero-valued input tensors synthesized from the plan,
	// reused by every heal probe (probes are serialized by the supervisor).
	probeFeeds map[string]*tensor.Tensor

	// Latency ring for per-replica p50/p99 (milliseconds).
	latMu  sync.Mutex
	lat    [512]float64
	latN   int
	latIdx int

	gState *obs.Gauge   // fleet.replica.state.<name>
	cServe *obs.Counter // fleet.served.<name>

	unregister func() // takes the replica off /healthz
}

func (r *fleetReplica) observeLatency(ms float64) {
	r.latMu.Lock()
	r.lat[r.latIdx] = ms
	r.latIdx = (r.latIdx + 1) % len(r.lat)
	if r.latN < len(r.lat) {
		r.latN++
	}
	r.latMu.Unlock()
}

// percentiles returns the replica's observed p50 and p99 latency (ms) over
// the ring window, zero when nothing has been served yet.
func (r *fleetReplica) percentiles() (p50, p99 float64) {
	r.latMu.Lock()
	n := r.latN
	buf := make([]float64, n)
	copy(buf, r.lat[:n])
	r.latMu.Unlock()
	if n == 0 {
		return 0, 0
	}
	sort.Float64s(buf)
	return buf[int(0.50*float64(n-1))], buf[int(0.99*float64(n-1))]
}

func (r *fleetReplica) setState(s ReplicaState) {
	r.state.Store(int32(s))
	r.gState.Set(float64(s))
}

// ReplicaStats is one replica's row in Fleet.Stats.
type ReplicaStats struct {
	Name       string
	State      ReplicaState
	Weight     float64
	EstimateMs float64 // router's EWMA-corrected latency estimate
	Served     int64
	InFlight   int
	P50Ms      float64
	P99Ms      float64
	DeviceLost bool
	Breaker    BreakerState
	Faults     map[string]int64
}

// Fleet owns the replicas, the router and the heal lifecycle. All methods
// are safe for concurrent use.
type Fleet struct {
	replicas []*fleetReplica
	router   *Router
	heal     HealPolicy

	mu sync.Mutex // lifecycle transitions + heal bookkeeping

	stopOnce sync.Once
	stop     chan struct{}
	done     chan struct{}

	unregister  func() // takes the fleet off /debug/fleet
	cFailover   *obs.Counter
	cQuarantine *obs.Counter
	cHeal       *obs.Counter
	cProbe      *obs.Counter
}

// NewFleet builds the fleet, its per-replica pools, and starts the heal
// supervisor.
func NewFleet(opts FleetOptions) (*Fleet, error) {
	if len(opts.Replicas) == 0 {
		return nil, ErrNoReplicas
	}
	predict := make([]float64, len(opts.Replicas))
	f := &Fleet{
		heal:        opts.Heal.withDefaults(),
		stop:        make(chan struct{}),
		done:        make(chan struct{}),
		cFailover:   obs.DefaultRegistry.Counter("fleet.failover"),
		cQuarantine: obs.DefaultRegistry.Counter("fleet.quarantines"),
		cHeal:       obs.DefaultRegistry.Counter("fleet.heals"),
		cProbe:      obs.DefaultRegistry.Counter("fleet.probes"),
	}
	seen := make(map[string]bool, len(opts.Replicas))
	for i, rc := range opts.Replicas {
		if rc.Plan == nil {
			return nil, fmt.Errorf("runtime: fleet replica %d has no plan", i)
		}
		name := rc.Name
		if name == "" {
			name = fmt.Sprintf("replica-%d", i)
		}
		if seen[name] {
			return nil, fmt.Errorf("runtime: duplicate fleet replica name %q", name)
		}
		seen[name] = true
		po := rc.Pool
		po.Device = name
		pool := NewSessionPool(rc.Plan, po)
		r := &fleetReplica{
			name:       name,
			pool:       pool,
			inj:        po.Session.Faults,
			breaker:    pool.Breaker(),
			probeFeeds: make(map[string]*tensor.Tensor, len(rc.Plan.inputs)),
			gState:     obs.DefaultRegistry.Gauge("fleet.replica.state." + name),
			cServe:     obs.DefaultRegistry.Counter("fleet.served." + name),
		}
		for _, in := range rc.Plan.inputs {
			r.probeFeeds[in.name] = tensor.New(in.shape...)
		}
		r.gState.Set(float64(ReplicaActive))
		predict[i] = rc.PredictMs
		f.replicas = append(f.replicas, r)
	}
	f.router = NewRouter(predict, opts.Router)
	f.registerTelemetry()
	go f.supervise()
	return f, nil
}

// registerTelemetry wires the fleet into /healthz (one source per replica)
// and /debug/fleet (the Stats snapshot). A later fleet with the same
// replica names replaces the entries, and closing this one then leaves
// them in place.
func (f *Fleet) registerTelemetry() {
	for i, r := range f.replicas {
		i, r := i, r
		r.unregister = obs.RegisterHealth("fleet."+r.name, func() obs.HealthStatus {
			st := ReplicaState(r.state.Load())
			return obs.HealthStatus{
				OK: st == ReplicaActive || st == ReplicaRamping,
				Detail: fmt.Sprintf("%s, weight %.2f, breaker %s, served %d, %d in flight",
					st, f.router.Weight(i), r.breaker.State(), r.served.Load(), f.router.InFlight(i)),
			}
		})
	}
	f.unregister = obs.RegisterDebug("fleet", func() any { return f.Stats() })
}

// Len returns the number of replicas.
func (f *Fleet) Len() int { return len(f.replicas) }

// Name returns replica i's name.
func (f *Fleet) Name(i int) string { return f.replicas[i].name }

// State returns replica i's lifecycle state.
func (f *Fleet) State(i int) ReplicaState {
	return ReplicaState(f.replicas[i].state.Load())
}

// Kill deterministically loses replica i's device (FaultInjector.Kill), as
// a soak's kill script does. The next request or supervisor tick
// quarantines the replica. No-op when the replica runs without an injector.
func (f *Fleet) Kill(i int) {
	f.replicas[i].inj.Kill()
	f.checkHealth(i)
}

// checkHealth quarantines replica i when its breaker is open or its device
// is lost. It runs inline on every Run (detection is request-ordered and
// deterministic, not dependent on supervisor timing) and from the
// supervisor tick. Probing replicas are left alone: the probe owns the
// breaker's half-open excursion.
func (f *Fleet) checkHealth(i int) {
	r := f.replicas[i]
	st := ReplicaState(r.state.Load())
	if st != ReplicaActive && st != ReplicaRamping {
		return
	}
	if r.breaker.State() != BreakerOpen && !r.inj.DeviceLost() {
		return
	}
	f.mu.Lock()
	st = ReplicaState(r.state.Load())
	if st == ReplicaActive || st == ReplicaRamping {
		r.setState(ReplicaQuarantined)
		r.quarantinedAt = time.Now()
		r.lastProbe = time.Time{}
		f.router.SetWeight(i, 0)
		f.cQuarantine.Inc()
	}
	f.mu.Unlock()
}

// supervise is the heal scheduler: scan replica health, probe quarantined
// replicas once their wait elapses.
func (f *Fleet) supervise() {
	defer close(f.done)
	t := time.NewTicker(checkInterval)
	defer t.Stop()
	for {
		select {
		case <-f.stop:
			return
		case <-t.C:
		}
		for i := range f.replicas {
			f.checkHealth(i)
			if f.probeDue(i) {
				f.probe(i)
			}
		}
	}
}

// probeDue reports whether quarantined replica i's heal probe should fire.
func (f *Fleet) probeDue(i int) bool {
	if f.heal.ProbeAfter < 0 {
		return false // automatic healing disabled
	}
	r := f.replicas[i]
	if ReplicaState(r.state.Load()) != ReplicaQuarantined {
		return false
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if ReplicaState(r.state.Load()) != ReplicaQuarantined {
		return false
	}
	if r.lastProbe.IsZero() {
		return time.Since(r.quarantinedAt) >= f.heal.ProbeAfter
	}
	return time.Since(r.lastProbe) >= f.heal.ProbeEvery
}

// probe heals replica i's device and sends one real inference through it:
// FaultInjector.Heal resets the device (the driver reset), Breaker.Expire
// ends probation so the probe request becomes the breaker's half-open
// dispatch, and the probe only counts as recovery when the inference
// succeeded, the device stayed up, and the breaker closed — a quarantined
// pool answers correctly via CPU re-exec, so success alone proves nothing
// about the device. On recovery the replica enters the ramp.
func (f *Fleet) probe(i int) bool {
	r := f.replicas[i]
	f.mu.Lock()
	if ReplicaState(r.state.Load()) != ReplicaQuarantined {
		f.mu.Unlock()
		return false
	}
	r.setState(ReplicaProbing)
	r.lastProbe = time.Now()
	f.mu.Unlock()
	f.cProbe.Inc()

	r.inj.Heal()
	r.breaker.Expire()
	ctx, cancel := context.WithTimeout(context.Background(), f.heal.ProbeTimeout)
	_, err := r.pool.Run(ctx, r.probeFeeds)
	cancel()
	healthy := err == nil && !r.inj.DeviceLost() && r.breaker.State() == BreakerClosed

	f.mu.Lock()
	defer f.mu.Unlock()
	if ReplicaState(r.state.Load()) != ReplicaProbing {
		return false
	}
	if !healthy {
		r.setState(ReplicaQuarantined)
		return false
	}
	r.rampStep = 1
	r.rampOK = 0
	r.setState(ReplicaRamping)
	f.router.SetWeight(i, float64(r.rampStep)/float64(f.heal.RampSteps+1))
	f.cHeal.Inc()
	return true
}

// HealNow probes replica i immediately, bypassing the ProbeAfter wait —
// the soak's scripted "heal" event. It reports whether the probe recovered
// the replica.
func (f *Fleet) HealNow(i int) bool { return f.probe(i) }

// onSuccess advances a ramping replica's traffic share.
func (f *Fleet) onSuccess(i int) {
	r := f.replicas[i]
	if ReplicaState(r.state.Load()) != ReplicaRamping {
		return
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if ReplicaState(r.state.Load()) != ReplicaRamping {
		return
	}
	r.rampOK++
	if r.rampOK < f.heal.RampSuccesses {
		return
	}
	r.rampOK = 0
	r.rampStep++
	if r.rampStep > f.heal.RampSteps {
		r.setState(ReplicaActive)
		f.router.SetWeight(i, 1)
		return
	}
	f.router.SetWeight(i, float64(r.rampStep)/float64(f.heal.RampSteps+1))
}

// Run places the request on the best replica and fails over down the
// router's ranking when a replica errors (overload shed, poisoned batch,
// lost device mid-run): queued work drains to survivors instead of
// failing. A request whose own context is done is not failed over — that
// is the caller's deadline, the one failure mode a fleet cannot absorb.
// Outputs are bit-identical regardless of which replica served.
func (f *Fleet) Run(ctx context.Context, feeds map[string]*tensor.Tensor) ([]*tensor.Tensor, error) {
	outs, _, err := f.RunRouted(ctx, feeds)
	return outs, err
}

// RunRouted is Run, also reporting which replica served the request
// (-1 when no attempt succeeded). The placement-determinism tests assert
// on it directly.
func (f *Fleet) RunRouted(ctx context.Context, feeds map[string]*tensor.Tensor) ([]*tensor.Tensor, int, error) {
	if len(f.replicas) == 0 {
		return nil, -1, ErrNoReplicas
	}
	// Inline health scan before ranking: a device lost since the last
	// request is quarantined now, in request order, so placement after a
	// kill is deterministic rather than racing the supervisor tick.
	for i := range f.replicas {
		f.checkHealth(i)
	}
	order := f.router.Rank()
	var lastErr error
	for _, i := range order {
		if err := ctx.Err(); err != nil {
			return nil, -1, err
		}
		r := f.replicas[i]
		f.router.Begin(i)
		t0 := time.Now()
		outs, err := r.pool.Run(ctx, feeds)
		elapsed := time.Since(t0)
		f.router.End(i)
		if err != nil {
			lastErr = err
			if ctx.Err() != nil {
				return nil, -1, err // caller's deadline, not failover-able
			}
			f.checkHealth(i) // the failure may have tripped the breaker
			f.cFailover.Inc()
			continue
		}
		f.router.Observe(i, float64(elapsed.Nanoseconds())/1e6)
		r.served.Add(1)
		r.observeLatency(float64(elapsed.Nanoseconds()) / 1e6)
		r.cServe.Inc()
		f.onSuccess(i)
		return outs, i, nil
	}
	return nil, -1, lastErr
}

// Served returns how many requests replica i has served.
func (f *Fleet) Served(i int) int64 { return f.replicas[i].served.Load() }

// Stats snapshots every replica's serving state, in replica order.
func (f *Fleet) Stats() []ReplicaStats {
	out := make([]ReplicaStats, len(f.replicas))
	for i, r := range f.replicas {
		p50, p99 := r.percentiles()
		out[i] = ReplicaStats{
			Name:       r.name,
			State:      ReplicaState(r.state.Load()),
			Weight:     f.router.Weight(i),
			EstimateMs: f.router.Estimate(i),
			Served:     r.served.Load(),
			InFlight:   f.router.InFlight(i),
			P50Ms:      p50,
			P99Ms:      p99,
			DeviceLost: r.inj.DeviceLost(),
			Breaker:    r.breaker.State(),
			Faults:     r.inj.Counts(),
		}
	}
	return out
}

// Close stops the heal supervisor, closes every replica pool (draining
// their batchers), and retires the fleet's health and debug registrations.
func (f *Fleet) Close() {
	f.stopOnce.Do(func() { close(f.stop) })
	<-f.done
	for _, r := range f.replicas {
		r.pool.Close()
		r.unregister()
	}
	f.unregister()
}
