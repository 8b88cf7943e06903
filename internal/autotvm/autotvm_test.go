package autotvm

import (
	"math"
	"math/rand"
	"path/filepath"
	"testing"

	"unigpu/internal/ops"
	"unigpu/internal/sim"
	"unigpu/internal/templates"
)

var testWorkload = ops.ConvWorkload{
	N: 1, CIn: 32, H: 28, W: 28, COut: 64, KH: 3, KW: 3,
	StrideH: 1, StrideW: 1, PadH: 1, PadW: 1,
}

func testTask() Task { return Task{Workload: testWorkload, Device: sim.MaxwellNano} }

func TestRandomSearchImprovesOnDefault(t *testing.T) {
	def := templates.CostMs(testWorkload, templates.DefaultConfig(), sim.MaxwellNano)
	res := RandomSearch(testTask(), Options{Budget: 64, Seed: 1})
	if res.Ms >= def {
		t.Fatalf("random search (%.3f ms) should beat the default (%.3f ms)", res.Ms, def)
	}
	if res.Trials != 64 {
		t.Fatalf("trials = %d", res.Trials)
	}
}

func TestSimulatedAnnealingImproves(t *testing.T) {
	def := templates.CostMs(testWorkload, templates.DefaultConfig(), sim.MaxwellNano)
	res := SimulatedAnnealing(testTask(), Options{Budget: 64, Seed: 2})
	if res.Ms >= def {
		t.Fatalf("SA (%.3f ms) should beat default (%.3f ms)", res.Ms, def)
	}
}

func TestModelGuidedBeatsRandomAtEqualBudget(t *testing.T) {
	// Averaged over seeds, the GBT-guided search should find schedules at
	// least as good as pure random sampling with the same budget.
	var mg, rnd float64
	seeds := []int64{1, 2, 3, 4, 5}
	for _, s := range seeds {
		mg += ModelGuidedSearch(testTask(), Options{Budget: 48, Seed: s}).Ms
		rnd += RandomSearch(testTask(), Options{Budget: 48, Seed: s}).Ms
	}
	mg /= float64(len(seeds))
	rnd /= float64(len(seeds))
	if mg > rnd*1.05 {
		t.Fatalf("model-guided mean %.4f ms should be <= random mean %.4f ms", mg, rnd)
	}
}

func TestModelGuidedNearGridOptimum(t *testing.T) {
	// On a small space the guided search should land within 25% of the
	// exhaustive optimum using a fraction of the measurements.
	small := Task{
		Workload: ops.ConvWorkload{N: 1, CIn: 16, H: 14, W: 14, COut: 16, KH: 3, KW: 3,
			StrideH: 1, StrideW: 1, PadH: 1, PadW: 1},
		Device: sim.MaliT860,
	}
	grid := GridSearch(small, Options{})
	guided := ModelGuidedSearch(small, Options{Budget: grid.Trials / 6, Seed: 3})
	if guided.Ms > grid.Ms*1.25 {
		t.Fatalf("guided %.4f ms vs grid optimum %.4f ms (budget %d vs %d)",
			guided.Ms, grid.Ms, guided.Trials, grid.Trials)
	}
}

func TestSearchDeterminism(t *testing.T) {
	a := ModelGuidedSearch(testTask(), Options{Budget: 32, Seed: 7})
	b := ModelGuidedSearch(testTask(), Options{Budget: 32, Seed: 7})
	if a.Ms != b.Ms || a.Config != b.Config {
		t.Fatal("same seed must reproduce the same search")
	}
}

func TestGBTFitsSimpleFunction(t *testing.T) {
	// y = 3*x0 + step(x1): the model must beat predicting the mean.
	rng := rand.New(rand.NewSource(5))
	n := 200
	X := make([][]float64, n)
	y := make([]float64, n)
	var mean float64
	for i := range X {
		x0, x1 := rng.Float64(), rng.Float64()
		X[i] = []float64{x0, x1}
		y[i] = 3 * x0
		if x1 > 0.5 {
			y[i] += 2
		}
		mean += y[i]
	}
	mean /= float64(n)
	m := FitGBT(X, y, GBTParams{Rounds: 40, Depth: 3, LearningRate: 0.3})
	var errModel, errMean float64
	for i := range X {
		errModel += math.Abs(m.Predict(X[i]) - y[i])
		errMean += math.Abs(mean - y[i])
	}
	if errModel > errMean/4 {
		t.Fatalf("GBT error %.3f should be well under mean-predictor error %.3f", errModel, errMean)
	}
}

func TestGBTEmptyTrainingSet(t *testing.T) {
	m := FitGBT(nil, nil, GBTParams{})
	if m.Predict([]float64{1, 2}) != 0 {
		t.Fatal("empty model should predict the zero base")
	}
}

func TestGBTRanksConfigs(t *testing.T) {
	// Train on half the measured space; the model must rank a clearly bad
	// config worse than a clearly good one.
	task := testTask()
	space := templates.ConfigSpace(task.Workload, task.Device)
	var X [][]float64
	var y []float64
	for i := 0; i < len(space); i += 2 {
		X = append(X, Features(task.Workload, space[i]))
		y = append(y, math.Log1p(SimMeasurer(task, space[i])))
	}
	m := FitGBT(X, y, GBTParams{Rounds: 30, Depth: 3, LearningRate: 0.3})

	bad := templates.DefaultConfig()
	good := templates.Config{TileCo: 8, TileH: 2, TileW: 8, VecW: 4, TileK: 2, UnrollKernel: true}
	if m.Predict(Features(task.Workload, good)) >= m.Predict(Features(task.Workload, bad)) {
		t.Fatal("model should rank the tiled config above the naive one")
	}
}

func TestDBRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "records.json")
	db := NewDB(path)
	task := testTask()
	res := Result{Config: templates.Config{TileCo: 4, TileH: 2, TileW: 4, VecW: 2, TileK: 1}, Ms: 1.25, Trials: 10}
	db.StoreBest(task, res)
	if err := db.Save(); err != nil {
		t.Fatal(err)
	}

	db2, err := OpenDB(path)
	if err != nil {
		t.Fatal(err)
	}
	got, ok := db2.Lookup(task)
	if !ok || got.Ms != 1.25 || got.Config != res.Config {
		t.Fatalf("lookup = %+v ok=%v", got, ok)
	}
	// Different device misses.
	other := Task{Workload: task.Workload, Device: sim.IntelHD505}
	if _, ok := db2.Lookup(other); ok {
		t.Fatal("different device must not hit the cache")
	}
}

func TestOpenDBMissingFile(t *testing.T) {
	db, err := OpenDB(filepath.Join(t.TempDir(), "absent.json"))
	if err != nil || db.Len() != 0 {
		t.Fatalf("missing file should open empty, err=%v", err)
	}
}

func TestTuneUsesCache(t *testing.T) {
	db := NewDB("")
	task := testTask()
	calls := 0
	counting := func(tk Task, cfg templates.Config) float64 {
		calls++
		return SimMeasurer(tk, cfg)
	}
	first := Tune(task, Options{Budget: 24, Seed: 1, Measure: counting}, db)
	after := calls
	second := Tune(task, Options{Budget: 24, Seed: 1, Measure: counting}, db)
	if calls != after {
		t.Fatal("second Tune must be served from the database")
	}
	if first.Config != second.Config {
		t.Fatal("cached result must match")
	}
}

func TestFeaturesShapeStable(t *testing.T) {
	f1 := Features(testWorkload, templates.DefaultConfig())
	f2 := Features(testWorkload, templates.Config{TileCo: 8, TileH: 2, TileW: 8, VecW: 4, TileK: 2})
	if len(f1) != len(f2) || len(f1) == 0 {
		t.Fatal("feature vectors must have a fixed length")
	}
}

// diffKnobs counts the knobs on which two configs differ: the brute-force
// reference for the neighbour index.
func diffKnobs(a, b templates.Config) int {
	n := 0
	if a.TileCo != b.TileCo {
		n++
	}
	if a.TileH != b.TileH {
		n++
	}
	if a.TileW != b.TileW {
		n++
	}
	if a.VecW != b.VecW {
		n++
	}
	if a.TileK != b.TileK {
		n++
	}
	if a.UnrollKernel != b.UnrollKernel {
		n++
	}
	if a.UseSubgroup != b.UseSubgroup {
		n++
	}
	return n
}

func TestNeighbourIndexMatchesBruteForce(t *testing.T) {
	space := templates.ConfigSpace(testWorkload, sim.MaxwellNano)
	ni := newNeighbourIndex(space)
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 25; trial++ {
		cur := space[rng.Intn(len(space))]
		var want []int
		for j, c := range space {
			if diffKnobs(c, cur) == 1 {
				want = append(want, j)
			}
		}
		got := ni.neighbours(cur)
		if len(got) != len(want) {
			t.Fatalf("config %v: %d neighbours via index, %d via scan", cur, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("config %v: neighbour lists diverge at %d: %d vs %d", cur, i, got[i], want[i])
			}
		}
	}
}

func TestSeedBatchMeasuresUniqueConfigs(t *testing.T) {
	// With a budget of 4x the space, the seed phase wants the whole space;
	// drawing with replacement used to shrink it silently. Now every
	// unique config must be measured exactly once.
	small := Task{
		Workload: ops.ConvWorkload{N: 1, CIn: 16, H: 14, W: 14, COut: 16, KH: 3, KW: 3,
			StrideH: 1, StrideW: 1, PadH: 1, PadW: 1},
		Device: sim.MaliT860,
	}
	space := templates.ConfigSpace(small.Workload, small.Device)
	unique := map[string]bool{}
	for _, c := range space {
		unique[c.String()] = true
	}
	res := ModelGuidedSearch(small, Options{Budget: 4 * len(space), Seed: 1})
	if res.Trials != len(unique) {
		t.Fatalf("seed phase measured %d configs, want all %d unique configs", res.Trials, len(unique))
	}
}
