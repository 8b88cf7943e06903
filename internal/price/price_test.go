package price

import (
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"unigpu/internal/autotvm"
	"unigpu/internal/graphtuner"
	"unigpu/internal/models"
	"unigpu/internal/obs"
	"unigpu/internal/ops"
	"unigpu/internal/sim"
)

// tuneModel builds a synthetic conv sequence with distinct workloads so
// estimator tests exercise real fan-out without the cost of a full zoo
// model.
func tuneModel(n int) *models.Model {
	ws := make([]ops.ConvWorkload, n)
	for i := range ws {
		ws[i] = ops.ConvWorkload{N: 1, CIn: 16 + 8*(i%4), H: 28, W: 28,
			COut: 32 + 16*(i%3), KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}
	}
	return &models.Model{Name: "synthetic", Convs: ws}
}

func trialsCounted() int64 { return obs.DefaultRegistry.Counter("tune.trials").Value() }

func TestParallelTuningMatchesSerial(t *testing.T) {
	m := tuneModel(8)
	d := sim.MaxwellNano
	serial := NewEstimator()
	serial.Budget, serial.Jobs = 8, 1
	parallel := NewEstimator()
	parallel.Budget, parallel.Jobs = 8, 8
	ps := serial.TunedConvMs(m, d)
	pp := parallel.TunedConvMs(m, d)
	if !reflect.DeepEqual(ps, pp) {
		t.Fatalf("parallel plan diverged from serial:\n serial %+v\nparallel %+v", ps, pp)
	}
}

func TestCandidatesSingleflight(t *testing.T) {
	// Six copies of the same workload, tuned concurrently by four
	// goroutines: the search must run exactly once.
	w := ops.ConvWorkload{N: 1, CIn: 32, H: 28, W: 28, COut: 64, KH: 3, KW: 3,
		StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}
	m := &models.Model{Name: "dup", Convs: []ops.ConvWorkload{w, w, w, w, w, w}}
	d := sim.MaxwellNano

	// Reference trial count of exactly one search at this budget.
	before := trialsCounted()
	graphtuner.CandidatesFor(w, d, 8, 1)
	oneSearch := trialsCounted() - before

	e := NewEstimator()
	e.Budget, e.Jobs = 8, 4
	before = trialsCounted()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			e.TunedConvMs(m, d)
		}()
	}
	wg.Wait()
	if got := trialsCounted() - before; got != oneSearch {
		t.Fatalf("concurrent duplicate tuning ran %d trials, want exactly one search (%d)", got, oneSearch)
	}
}

func TestWarmDBSkipsSearchAndReproducesPlan(t *testing.T) {
	path := filepath.Join(t.TempDir(), "records.json")
	m := tuneModel(5)
	d := sim.MaxwellNano

	db, err := autotvm.OpenDB(path)
	if err != nil {
		t.Fatal(err)
	}
	cold := NewEstimator()
	cold.Budget, cold.DB = 8, db
	planCold := cold.TunedConvMs(m, d)
	if db.Len() != 5 { // tuneModel(5) produces 5 distinct workloads
		t.Fatalf("expected 5 candidate records, got %d", db.Len())
	}
	if err := db.Save(); err != nil {
		t.Fatal(err)
	}

	db2, err := autotvm.OpenDB(path)
	if err != nil {
		t.Fatal(err)
	}
	warm := NewEstimator()
	warm.Budget, warm.DB = 8, db2
	before := trialsCounted()
	planWarm := warm.TunedConvMs(m, d)
	if got := trialsCounted() - before; got != 0 {
		t.Fatalf("warm DB must skip search entirely, counted %d trials", got)
	}
	if !reflect.DeepEqual(planCold, planWarm) {
		t.Fatalf("warm plan diverged from cold search:\n cold %+v\nwarm %+v", planCold, planWarm)
	}
}

func TestDeeperBudgetInvalidatesShallowDBRecords(t *testing.T) {
	db := autotvm.NewDB("")
	m := tuneModel(3)
	d := sim.MaxwellNano
	shallow := NewEstimator()
	shallow.Budget, shallow.DB = 4, db
	shallow.TunedConvMs(m, d)

	deep := NewEstimator()
	deep.Budget, deep.DB = 16, db
	before := trialsCounted()
	deep.TunedConvMs(m, d)
	if got := trialsCounted() - before; got == 0 {
		t.Fatal("a deeper budget must re-search shallow candidate records")
	}
}

func benchTunedConv(b *testing.B, jobs int) {
	m := tuneModel(12)
	d := sim.MaxwellNano
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := NewEstimator() // fresh cache per iteration so the search really runs
		e.Budget, e.Jobs = 24, jobs
		e.TunedConvMs(m, d)
	}
}

// BenchmarkTunedConvMsSerial vs BenchmarkTunedConvMsParallel demonstrate
// the tuning-pipeline fan-out (EXPERIMENTS.md "Parallel tuning").
func BenchmarkTunedConvMsSerial(b *testing.B)   { benchTunedConv(b, 1) }
func BenchmarkTunedConvMsParallel(b *testing.B) { benchTunedConv(b, 0) }
