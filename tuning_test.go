package unigpu

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"unigpu/internal/graph"
	"unigpu/internal/obs"
	"unigpu/internal/ops"
)

func tuneTrials() int64 { return obs.DefaultRegistry.Counter("tune.trials").Value() }

// TestConcurrentCompileSharedEngineAndDB compiles the same model
// concurrently on two platforms through one shared Engine and tuning
// database — the singleflight cache and the DB's locking must keep this
// race-free (run under -race) and deterministic.
func TestConcurrentCompileSharedEngineAndDB(t *testing.T) {
	db := NewTuningDB("")
	eng := NewEngineWith(EngineOptions{DB: db, Budget: 8, Jobs: 4})
	platforms := []*Platform{DeepLens, JetsonNano}

	const perPlatform = 2
	results := make([][]float64, len(platforms))
	var wg sync.WaitGroup
	for pi, p := range platforms {
		results[pi] = make([]float64, perPlatform)
		for r := 0; r < perPlatform; r++ {
			wg.Add(1)
			go func(pi, r int, p *Platform) {
				defer wg.Done()
				cm, err := eng.Compile("SqueezeNet1.0", p, CompileOptions{})
				if err != nil {
					t.Errorf("compile on %s: %v", p.Name, err)
					return
				}
				results[pi][r] = cm.PredictedLatencyMs
			}(pi, r, p)
		}
	}
	wg.Wait()
	for pi, p := range platforms {
		for r := 1; r < perPlatform; r++ {
			if results[pi][r] != results[pi][0] {
				t.Fatalf("%s: concurrent compiles disagree: %v", p.Name, results[pi])
			}
		}
	}
	if db.Len() == 0 {
		t.Fatal("compilation must store tuning winners in the database")
	}
}

// TestWarmDBCompileSkipsSearch checks determinism across the cache
// boundary: a fresh engine warmed from the persisted database must
// reproduce the cold engine's plan exactly, running zero tuning trials.
func TestWarmDBCompileSkipsSearch(t *testing.T) {
	path := filepath.Join(t.TempDir(), "records.json")
	db, err := OpenTuningDB(path)
	if err != nil {
		t.Fatal(err)
	}
	cold := NewEngineWith(EngineOptions{DB: db, Budget: 8})
	cm1, err := cold.Compile("SqueezeNet1.0", JetsonNano, CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := cold.SaveTuning(); err != nil {
		t.Fatal(err)
	}

	db2, err := OpenTuningDB(path)
	if err != nil {
		t.Fatal(err)
	}
	if db2.Len() == 0 {
		t.Fatal("saved database must not be empty")
	}
	warm := NewEngineWith(EngineOptions{DB: db2, Budget: 8})
	before := tuneTrials()
	cm2, err := warm.Compile("SqueezeNet1.0", JetsonNano, CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if got := tuneTrials() - before; got != 0 {
		t.Fatalf("warm compile ran %d tuning trials, want 0", got)
	}
	if cm1.PredictedLatencyMs != cm2.PredictedLatencyMs ||
		cm1.ConvKernelMs != cm2.ConvKernelMs || cm1.TransformMs != cm2.TransformMs {
		t.Fatalf("warm compile diverged: cold %.6f/%.6f/%.6f, warm %.6f/%.6f/%.6f",
			cm1.PredictedLatencyMs, cm1.ConvKernelMs, cm1.TransformMs,
			cm2.PredictedLatencyMs, cm2.ConvKernelMs, cm2.TransformMs)
	}
}

// convKernels lists the kernel of every conv of a compiled model, in
// schedule order, by workload key.
func convKernels(cm *CompiledModel) (keys []string, kernels []ops.ConvKernel) {
	for _, n := range cm.model.Graph.Nodes {
		if c, ok := n.Op.(*graph.ConvOp); ok {
			keys = append(keys, c.W.Key())
			kernels = append(kernels, c.Kernel)
		}
	}
	return keys, kernels
}

// TestRetiredKernelRecords: a tuning database may hold kernel records
// naming an algorithm this build no longer has. testdata/retired_kernel_db.json
// pins two of SqueezeNet's 3x3 stride-1 convs on DeepLens to the F(2x2,3x3)
// kernel, as an opt-in setting of an earlier build could write. The file
// must load; the name must not parse; the compile must pick every conv's
// kernel and predict the latency of a compile without the records; and a
// save must keep them (SelectConvKernels never clobbers a kernel record).
func TestRetiredKernelRecords(t *testing.T) {
	raw, err := os.ReadFile("testdata/retired_kernel_db.json")
	if err != nil {
		t.Fatal(err)
	}
	var recs []struct{ Device, Workload, Kernel string }
	if err := json.Unmarshal(raw, &recs); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "records.json")
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	db, err := OpenTuningDB(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		if _, ok := ops.ParseConvKernel(r.Kernel); ok {
			t.Fatalf("kernel name %q parses; the test needs a retired one", r.Kernel)
		}
		if got, ok := db.LookupKernelChoiceDType(r.Device, r.Workload, ""); !ok || got != r.Kernel {
			t.Fatalf("record %s did not load: %q, %v", r.Workload, got, ok)
		}
	}

	opts := CompileOptions{InputSize: 32, SkipTuning: true}
	want, err := NewEngineWith(EngineOptions{DB: NewTuningDB("")}).Compile("SqueezeNet1.0", DeepLens, opts)
	if err != nil {
		t.Fatal(err)
	}
	got, err := NewEngineWith(EngineOptions{DB: db}).Compile("SqueezeNet1.0", DeepLens, opts)
	if err != nil {
		t.Fatal(err)
	}
	wantKeys, wantKernels := convKernels(want)
	_, gotKernels := convKernels(got)
	for _, r := range recs { // the records must be about this compile
		found := false
		for _, k := range wantKeys {
			found = found || k == r.Workload
		}
		if r.Device != DeepLens.GPU.Name || !found {
			t.Fatalf("record %s on %s matches no conv of the compile", r.Workload, r.Device)
		}
	}
	for i := range wantKernels {
		if gotKernels[i] != wantKernels[i] {
			t.Errorf("conv %s: %v with the retired records, %v without", wantKeys[i], gotKernels[i], wantKernels[i])
		}
	}
	if got.PredictedLatencyMs != want.PredictedLatencyMs || got.ConvKernelMs != want.ConvKernelMs {
		t.Errorf("prediction %v ms (conv %v) with the retired records, %v ms (conv %v) without",
			got.PredictedLatencyMs, got.ConvKernelMs, want.PredictedLatencyMs, want.ConvKernelMs)
	}

	if err := db.Save(); err != nil {
		t.Fatal(err)
	}
	saved, err := OpenTuningDB(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		if name, ok := saved.LookupKernelChoiceDType(r.Device, r.Workload, ""); !ok || name != r.Kernel {
			t.Errorf("record %s after save: %q, %v, want %q kept", r.Workload, name, ok, r.Kernel)
		}
	}
}
