package runtime

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// Latency-predictive request router for fleet serving. Each replica starts
// from a static cost-oracle estimate (the roofline model's predicted
// latency for the compiled plan — sim.Device.AlgoSeconds summed over the
// graph) and is corrected online by an EWMA of observed request latencies,
// so a replica whose device underdelivers relative to its roofline drifts
// toward its real cost. Placement scores combine the latency estimate with
// instantaneous load (queueing-theory style: expected wait grows with the
// number of requests already in flight) and the replica's health weight,
// so quarantined and ramping replicas shed traffic proportionally.

// RouterOptions configures placement scoring.
type RouterOptions struct {
	// EWMAAlpha is the smoothing factor applied to observed latencies when
	// correcting the static cost oracle (default 0.2). Zero selects the
	// default; a negative value disables observation feedback entirely,
	// making placement a pure function of the oracle, load, and weights —
	// the deterministic mode the placement-determinism tests rely on.
	EWMAAlpha float64
}

// routerReplica is one replica's routing state.
type routerReplica struct {
	ewmaBits atomic.Uint64 // EWMA-corrected latency estimate (float64 bits)
	inflight atomic.Int64  // requests currently placed here
	weight   atomic.Int64  // health weight in [0, weightScale]
}

// weightScale is the fixed-point denominator for replica weights: a weight
// of weightScale is full traffic share, 0 is quarantined.
const weightScale = 1 << 16

// Router places requests across fleet replicas by predicted latency, load,
// and health weight. All methods are safe for concurrent use.
type Router struct {
	opts     RouterOptions
	replicas []routerReplica

	mu sync.Mutex // serializes EWMA read-modify-write in Observe
}

// NewRouter builds a router over len(predictMs) replicas, seeding each
// replica's latency estimate with its cost-oracle prediction (milliseconds).
func NewRouter(predictMs []float64, opts RouterOptions) *Router {
	if opts.EWMAAlpha == 0 {
		opts.EWMAAlpha = 0.2
	}
	r := &Router{opts: opts, replicas: make([]routerReplica, len(predictMs))}
	for i, p := range predictMs {
		if p <= 0 {
			p = 1e-3 // degenerate oracle: tiny but positive so scores stay ordered
		}
		r.replicas[i].ewmaBits.Store(math.Float64bits(p))
		r.replicas[i].weight.Store(weightScale)
	}
	return r
}

// Begin records that a request was placed on replica i.
func (r *Router) Begin(i int) { r.replicas[i].inflight.Add(1) }

// End records that replica i finished (or failed) a placed request.
func (r *Router) End(i int) { r.replicas[i].inflight.Add(-1) }

// InFlight returns replica i's current in-flight count.
func (r *Router) InFlight(i int) int { return int(r.replicas[i].inflight.Load()) }

// Observe folds one observed request latency (milliseconds) into replica
// i's EWMA-corrected estimate. A no-op when observation feedback is
// disabled (negative EWMAAlpha) so placement stays deterministic.
func (r *Router) Observe(i int, ms float64) {
	if r.opts.EWMAAlpha < 0 || ms <= 0 {
		return
	}
	a := r.opts.EWMAAlpha
	r.mu.Lock()
	old := math.Float64frombits(r.replicas[i].ewmaBits.Load())
	r.replicas[i].ewmaBits.Store(math.Float64bits(old + a*(ms-old)))
	r.mu.Unlock()
}

// SetWeight sets replica i's health weight in [0, 1]: 1 is full traffic
// share, 0 quarantines the replica (ranked last, used only when every
// weighted replica has failed). The heal ramp walks it back up stepwise.
func (r *Router) SetWeight(i int, w float64) {
	if w < 0 {
		w = 0
	}
	if w > 1 {
		w = 1
	}
	r.replicas[i].weight.Store(int64(w * weightScale))
}

// Weight returns replica i's health weight in [0, 1].
func (r *Router) Weight(i int) float64 {
	return float64(r.replicas[i].weight.Load()) / weightScale
}

// Estimate returns replica i's current latency estimate in milliseconds
// (the EWMA-corrected oracle).
func (r *Router) Estimate(i int) float64 {
	return math.Float64frombits(r.replicas[i].ewmaBits.Load())
}

// score is replica i's placement cost: estimated latency scaled by the
// queue ahead of the request and inversely by health weight. Lower wins.
// Zero-weight replicas return +Inf and are ordered after every weighted
// one by Rank.
func (r *Router) score(i int) float64 {
	w := r.replicas[i].weight.Load()
	if w <= 0 {
		return math.Inf(1)
	}
	est := math.Float64frombits(r.replicas[i].ewmaBits.Load())
	load := float64(r.replicas[i].inflight.Load())
	return est * (1 + load) * float64(weightScale) / float64(w)
}

// Rank returns every replica index ordered by ascending placement score:
// the best target first, quarantined (zero-weight) replicas last as a
// final resort — their pools still serve correctly via CPU re-execution,
// so the fleet degrades instead of failing when all devices are unhealthy.
// Ties break by ascending index (stable), which is what makes placement
// reproducible run-to-run under a fixed request order.
func (r *Router) Rank() []int {
	n := len(r.replicas)
	order := make([]int, n)
	scores := make([]float64, n)
	for i := 0; i < n; i++ {
		order[i] = i
		scores[i] = r.score(i)
	}
	sort.SliceStable(order, func(a, b int) bool {
		return scores[order[a]] < scores[order[b]]
	})
	return order
}
