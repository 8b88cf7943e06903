// Package autotvm implements the machine-learning-based schedule search of
// §3.2.3: given a conv workload, a device, and the template's configuration
// space, it finds a low-latency schedule using random search, simulated
// annealing, or a gradient-boosted-trees cost model (the XGBoost stand-in
// AutoTVM uses), and persists the winner in a tuning-records database so a
// workload is never searched twice on the same platform.
//
// On real hardware each measurement is an on-device run; here the measurer
// is the simulator's cost model — the same (schedule -> latency) oracle
// role.
package autotvm

import (
	"math"
	"math/rand"
	"sort"
	"strconv"

	"unigpu/internal/obs"
	"unigpu/internal/ops"
	"unigpu/internal/sim"
	"unigpu/internal/templates"
)

// Task is one tuning job: a workload on a device.
type Task struct {
	Workload ops.ConvWorkload
	Device   *sim.Device
}

// Measurer evaluates a configuration's latency in milliseconds.
type Measurer func(t Task, cfg templates.Config) float64

// SimMeasurer prices the lowered schedule on the simulated device.
func SimMeasurer(t Task, cfg templates.Config) float64 {
	return templates.CostMs(t.Workload, cfg, t.Device)
}

// Result is the outcome of tuning one task.
type Result struct {
	Config templates.Config
	Ms     float64
	Trials int
}

// Options controls a tuning run.
type Options struct {
	Budget  int      // measurement budget (trials)
	Seed    int64    // RNG seed (deterministic searches)
	Measure Measurer // defaults to SimMeasurer
}

func (o *Options) normalize() {
	if o.Budget <= 0 {
		o.Budget = 128
	}
	if o.Measure == nil {
		o.Measure = SimMeasurer
	}
}

// traced runs one searcher under an autotvm.task span, counting every
// measurement into tune.trials / tune.trial_ms and recording the winner in
// the tune.best_ms gauge.
func traced(search string, t Task, opts Options, run func(Task, Options) Result) Result {
	opts.normalize()
	sp := obs.Start("autotvm.task",
		obs.KV("search", search), obs.KV("workload", t.Workload.Key()), obs.KV("device", t.Device.Name))
	inner := opts.Measure
	opts.Measure = func(t Task, cfg templates.Config) float64 {
		ms := inner(t, cfg)
		obs.Count("tune.trials", 1)
		obs.Observe("tune.trial_ms", ms)
		return ms
	}
	res := run(t, opts)
	sp.SetAttrs(obs.KVInt("trials", res.Trials), obs.KVFloat("best_ms", res.Ms))
	sp.End()
	obs.SetGauge("tune.best_ms", res.Ms)
	return res
}

// RandomSearch samples the space uniformly.
func RandomSearch(t Task, opts Options) Result {
	return traced("random", t, opts, randomSearch)
}

func randomSearch(t Task, opts Options) Result {
	opts.normalize()
	space := templates.ConfigSpace(t.Workload, t.Device)
	rng := rand.New(rand.NewSource(opts.Seed))
	best := Result{Ms: math.Inf(1)}
	for i := 0; i < opts.Budget; i++ {
		cfg := space[rng.Intn(len(space))]
		ms := opts.Measure(t, cfg)
		best.Trials++
		if ms < best.Ms {
			best.Ms = ms
			best.Config = cfg
		}
	}
	return best
}

// GridSearch measures every configuration; exact but only affordable for
// small spaces (used as ground truth in tests).
func GridSearch(t Task, opts Options) Result {
	return traced("grid", t, opts, gridSearch)
}

func gridSearch(t Task, opts Options) Result {
	opts.normalize()
	best := Result{Ms: math.Inf(1)}
	for _, cfg := range templates.ConfigSpace(t.Workload, t.Device) {
		ms := opts.Measure(t, cfg)
		best.Trials++
		if ms < best.Ms {
			best.Ms = ms
			best.Config = cfg
		}
	}
	return best
}

// SimulatedAnnealing walks the space by mutating one knob at a time with a
// Metropolis acceptance rule and geometric cooling.
func SimulatedAnnealing(t Task, opts Options) Result {
	return traced("sa", t, opts, simulatedAnnealing)
}

func simulatedAnnealing(t Task, opts Options) Result {
	opts.normalize()
	space := templates.ConfigSpace(t.Workload, t.Device)
	rng := rand.New(rand.NewSource(opts.Seed))
	nbr := newNeighbourIndex(space)

	cur := space[rng.Intn(len(space))]
	curMs := opts.Measure(t, cur)
	best := Result{Config: cur, Ms: curMs, Trials: 1}
	temp := curMs // initial temperature on the scale of the objective
	for i := 1; i < opts.Budget; i++ {
		cand := nbr.mutate(cur, rng)
		ms := opts.Measure(t, cand)
		best.Trials++
		if ms < best.Ms {
			best.Ms = ms
			best.Config = cand
		}
		if ms < curMs || rng.Float64() < math.Exp(-(ms-curMs)/math.Max(temp, 1e-9)) {
			cur, curMs = cand, ms
		}
		temp *= 0.96
	}
	return best
}

// knobCount is the number of tunable knobs in templates.Config.
const knobCount = 7

// neighbourIndex answers "which configs differ from cur in exactly one
// knob" without rescanning the space on every SA step (previously
// O(budget × |space|) per search). It is built once per search in
// O(knobCount × |space|): for each knob k, configs are grouped by their
// signature with knob k wildcarded, so two configs share a group iff they
// agree on every other knob. A config's one-knob neighbours are then the
// union of its k-groups minus itself, each neighbour appearing in exactly
// one group (the group of the knob it differs in).
type neighbourIndex struct {
	space  []templates.Config
	groups [knobCount]map[string][]int
}

func newNeighbourIndex(space []templates.Config) *neighbourIndex {
	ni := &neighbourIndex{space: space}
	for k := 0; k < knobCount; k++ {
		ni.groups[k] = make(map[string][]int, len(space))
		for i, c := range space {
			sig := wildcardSig(c, k)
			ni.groups[k][sig] = append(ni.groups[k][sig], i)
		}
	}
	return ni
}

// wildcardSig renders c with knob k replaced by a wildcard.
func wildcardSig(c templates.Config, k int) string {
	knobs := [knobCount]string{
		strconv.Itoa(c.TileCo), strconv.Itoa(c.TileH), strconv.Itoa(c.TileW),
		strconv.Itoa(c.VecW), strconv.Itoa(c.TileK),
		strconv.FormatBool(c.UnrollKernel), strconv.FormatBool(c.UseSubgroup),
	}
	knobs[k] = "*"
	return knobs[0] + "|" + knobs[1] + "|" + knobs[2] + "|" + knobs[3] + "|" +
		knobs[4] + "|" + knobs[5] + "|" + knobs[6]
}

// neighbours returns the space indices one knob away from cur, in space
// order (matching what a linear scan for configs differing in one knob
// would produce).
func (ni *neighbourIndex) neighbours(cur templates.Config) []int {
	var out []int
	for k := 0; k < knobCount; k++ {
		for _, i := range ni.groups[k][wildcardSig(cur, k)] {
			if ni.space[i] != cur {
				out = append(out, i)
			}
		}
	}
	sort.Ints(out)
	return out
}

// mutate picks a random neighbour: a config from the space sharing all but
// one knob with cur when possible, else a random point.
func (ni *neighbourIndex) mutate(cur templates.Config, rng *rand.Rand) templates.Config {
	nbrs := ni.neighbours(cur)
	if len(nbrs) == 0 {
		return ni.space[rng.Intn(len(ni.space))]
	}
	return ni.space[nbrs[rng.Intn(len(nbrs))]]
}

// ModelGuidedSearch is the AutoTVM loop: measure a seed batch, fit a
// gradient-boosted-trees cost model on (features -> latency), then
// repeatedly rank a large candidate pool with the model and spend the
// measurement budget only on the predicted-best unmeasured configs.
func ModelGuidedSearch(t Task, opts Options) Result {
	return traced("model", t, opts, modelGuidedSearch)
}

func modelGuidedSearch(t Task, opts Options) Result {
	opts.normalize()
	space := templates.ConfigSpace(t.Workload, t.Device)
	rng := rand.New(rand.NewSource(opts.Seed))
	nbr := newNeighbourIndex(space)

	type sample struct {
		cfg templates.Config
		ms  float64
	}
	measured := map[string]bool{}
	var samples []sample
	best := Result{Ms: math.Inf(1)}

	measure := func(cfg templates.Config) {
		if measured[cfg.String()] {
			return
		}
		measured[cfg.String()] = true
		ms := opts.Measure(t, cfg)
		samples = append(samples, sample{cfg, ms})
		best.Trials++
		if ms < best.Ms {
			best.Ms = ms
			best.Config = cfg
		}
	}

	// Seed the model with seedN *unique* measured configs: drawing with
	// replacement silently shrank the seed batch whenever the RNG repeated
	// itself.
	seedN := min(opts.Budget/4+1, len(space))
	for _, idx := range rng.Perm(len(space)) {
		if best.Trials >= seedN {
			break
		}
		measure(space[idx])
	}

	const batch = 8
	for best.Trials < opts.Budget {
		X := make([][]float64, len(samples))
		y := make([]float64, len(samples))
		for i, s := range samples {
			X[i] = Features(t.Workload, s.cfg)
			y[i] = math.Log1p(s.ms) // compress the dynamic range
		}
		model := FitGBT(X, y, GBTParams{Rounds: 30, Depth: 3, LearningRate: 0.3})

		// Rank a candidate pool: random points plus neighbours of the best.
		pool := make([]templates.Config, 0, 256)
		for i := 0; i < 192; i++ {
			pool = append(pool, space[rng.Intn(len(space))])
		}
		for i := 0; i < 64; i++ {
			pool = append(pool, nbr.mutate(best.Config, rng))
		}
		sort.SliceStable(pool, func(i, j int) bool {
			return model.Predict(Features(t.Workload, pool[i])) < model.Predict(Features(t.Workload, pool[j]))
		})
		picked := 0
		for _, cfg := range pool {
			if best.Trials >= opts.Budget || picked >= batch {
				break
			}
			if !measured[cfg.String()] {
				measure(cfg)
				picked++
			}
		}
		if picked == 0 {
			break // space exhausted
		}
	}
	return best
}

// Features embeds a (workload, config) pair for the cost model.
func Features(w ops.ConvWorkload, c templates.Config) []float64 {
	lg := func(v int) float64 { return math.Log2(float64(max(1, v))) }
	threads := c.TileCo * c.TileH * (c.TileW / max(1, c.VecW))
	blocks := ceilDiv(w.COut, c.TileCo) * ceilDiv(w.OutH(), c.TileH) * ceilDiv(w.OutW(), c.TileW)
	return []float64{
		lg(c.TileCo), lg(c.TileH), lg(c.TileW), lg(c.VecW), float64(c.TileK),
		b2f(c.UnrollKernel), b2f(c.UseSubgroup),
		lg(threads), lg(blocks),
		lg(w.CIn), lg(w.COut), lg(w.OutH() * w.OutW()), lg(w.KH * w.KW),
	}
}

func ceilDiv(a, b int) int { return (a + b - 1) / b }

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}
