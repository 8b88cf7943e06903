package autotvm

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"unigpu/internal/templates"
)

func TestSaveLeavesNoTempFiles(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "records.json")
	db := NewDB(path)
	db.StoreBest(testTask(), Result{Config: templates.DefaultConfig(), Ms: 1, Trials: 4})
	for i := 0; i < 3; i++ { // repeated saves reuse the rename path
		if err := db.Save(); err != nil {
			t.Fatal(err)
		}
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != "records.json" {
		names := make([]string, len(entries))
		for i, e := range entries {
			names[i] = e.Name()
		}
		t.Fatalf("expected only records.json after Save, got %v", names)
	}
}

func TestOpenDBCorruptFileIsAnError(t *testing.T) {
	path := filepath.Join(t.TempDir(), "records.json")
	if err := os.WriteFile(path, []byte(`{"this is": "not a record array"`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenDB(path); err == nil || !strings.Contains(err.Error(), "corrupt") {
		t.Fatalf("corrupt file must produce a clear error, got %v", err)
	}
}

func TestOpenDBTruncatedFileIsAnError(t *testing.T) {
	path := filepath.Join(t.TempDir(), "records.json")
	db := NewDB(path)
	db.StoreBest(testTask(), Result{Config: templates.DefaultConfig(), Ms: 1, Trials: 4})
	if err := db.Save(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenDB(path); err == nil || !strings.Contains(err.Error(), "corrupt") {
		t.Fatalf("truncated file must produce a clear error, got %v", err)
	}
}

func TestTuneReSearchesOnBiggerBudget(t *testing.T) {
	db := NewDB("")
	task := testTask()
	calls := 0
	counting := func(tk Task, cfg templates.Config) float64 {
		calls++
		return SimMeasurer(tk, cfg)
	}
	first := Tune(task, Options{Budget: 8, Seed: 1, Measure: counting}, db)
	afterFirst := calls
	second := Tune(task, Options{Budget: 32, Seed: 1, Measure: counting}, db)
	if calls == afterFirst {
		t.Fatal("a bigger budget must re-search, not return the shallow cached record")
	}
	if second.Ms > first.Ms {
		t.Fatalf("re-search returned %.6f ms, worse than the cached %.6f ms", second.Ms, first.Ms)
	}
	afterSecond := calls
	if third := Tune(task, Options{Budget: 32, Seed: 1, Measure: counting}, db); calls != afterSecond {
		t.Fatal("an equal budget must now be served from the database")
	} else if third.Config != second.Config {
		t.Fatal("cached result must match the deep search")
	}
	// Shallower requests keep hitting too.
	if Tune(task, Options{Budget: 8, Seed: 1, Measure: counting}, db); calls != afterSecond {
		t.Fatal("a smaller budget must be served from the database")
	}
}

func TestTuneKeepsFasterEarlierResult(t *testing.T) {
	db := NewDB("")
	task := testTask()
	// A record faster than anything the cost model can produce, from a
	// 1-trial "search": the budget upgrade must re-search but never
	// overwrite the faster result.
	fast := Result{Config: templates.DefaultConfig(), Ms: 1e-12, Trials: 1}
	db.StoreBest(task, fast)
	res := Tune(task, Options{Budget: 16, Seed: 1}, db)
	if res.Ms != fast.Ms || res.Config != fast.Config {
		t.Fatalf("faster earlier record must be kept, got %.6g ms %v", res.Ms, res.Config)
	}
	// The re-search effort is remembered, so the next call at this budget
	// does not search again.
	calls := 0
	counting := func(tk Task, cfg templates.Config) float64 {
		calls++
		return SimMeasurer(tk, cfg)
	}
	Tune(task, Options{Budget: 16, Seed: 1, Measure: counting}, db)
	if calls != 0 {
		t.Fatalf("budget already spent must not be re-spent, ran %d measurements", calls)
	}
}

func TestCandidateRecordsRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "records.json")
	db := NewDB(path)
	cands := []Candidate{
		{Block: 1, Config: templates.Config{TileCo: 1, TileH: 1, TileW: 4, VecW: 1, TileK: 1}, KernelMs: 0.75},
		{Block: 4, Config: templates.Config{TileCo: 4, TileH: 2, TileW: 8, VecW: 4, TileK: 2, UnrollKernel: true}, KernelMs: 0.25},
	}
	db.StoreCandidates("dev", "wl", 48, cands)

	got, ok := db.LookupCandidates("dev", "wl", 48)
	if !ok || !reflect.DeepEqual(got, cands) {
		t.Fatalf("lookup = %+v ok=%v", got, ok)
	}
	if _, ok := db.LookupCandidates("dev", "wl", 64); ok {
		t.Fatal("a deeper-budget request must miss a shallow candidate set")
	}
	if _, ok := db.LookupCandidates("otherdev", "wl", 48); ok {
		t.Fatal("different device must miss")
	}

	// A shallower set never downgrades a deeper one.
	db.StoreCandidates("dev", "wl", 16, cands[:1])
	if got, ok := db.LookupCandidates("dev", "wl", 48); !ok || len(got) != 2 {
		t.Fatal("shallow StoreCandidates must not replace the deeper set")
	}

	// Candidate sets and single schedule records share a workload without
	// clobbering each other.
	task := testTask()
	db.StoreCandidates("dev", task.Workload.Key(), 8, cands)
	db.StoreBest(task, Result{Config: cands[1].Config, Ms: 0.25, Trials: 8})
	if _, ok := db.Lookup(task); !ok {
		t.Fatal("single record lost after StoreCandidates on the same workload")
	}

	if err := db.Save(); err != nil {
		t.Fatal(err)
	}
	db2, err := OpenDB(path)
	if err != nil {
		t.Fatal(err)
	}
	if db2.Len() != db.Len() {
		t.Fatalf("reloaded %d records, want %d", db2.Len(), db.Len())
	}
	got, ok = db2.LookupCandidates("dev", "wl", 48)
	if !ok || !reflect.DeepEqual(got, cands) {
		t.Fatalf("candidates did not survive the disk round-trip: %+v ok=%v", got, ok)
	}
}

func TestStoreBestConcurrent(t *testing.T) {
	db := NewDB("")
	task := testTask()
	done := make(chan struct{})
	for g := 0; g < 8; g++ {
		go func(g int) {
			defer func() { done <- struct{}{} }()
			for i := 0; i < 50; i++ {
				db.StoreBest(task, Result{Config: templates.DefaultConfig(),
					Ms: float64(1+(g+i)%7) * 0.5, Trials: i})
			}
		}(g)
	}
	for g := 0; g < 8; g++ {
		<-done
	}
	r, ok := db.Lookup(task)
	if !ok || r.Ms != 0.5 {
		t.Fatalf("best result must survive concurrent stores, got %.3f ok=%v", r.Ms, ok)
	}
}

// TestKernelChoiceRecordsRoundTrip: conv algorithm records live under their
// own kind key — they never collide with schedule or candidate records for
// the same workload — and survive the disk round-trip.
func TestKernelChoiceRecordsRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "records.json")
	db := NewDB(path)

	db.StoreKernelChoiceDType("dev", "wl", "", "gemm", 0.42)
	if name, ok := db.LookupKernelChoiceDType("dev", "wl", ""); !ok || name != "gemm" {
		t.Fatalf("lookup = %q, %v", name, ok)
	}
	if _, ok := db.LookupKernelChoiceDType("otherdev", "wl", ""); ok {
		t.Fatal("different device must miss")
	}

	// Kernel, candidate, and schedule records share a workload key space
	// without clobbering each other.
	task := testTask()
	db.StoreKernelChoiceDType(task.Device.Name, task.Workload.Key(), "", "depthwise", 0.2)
	db.StoreBest(task, Result{Ms: 0.25, Trials: 8})
	db.StoreCandidates(task.Device.Name, task.Workload.Key(), 8, nil)
	if _, ok := db.Lookup(task); !ok {
		t.Fatal("schedule record lost after StoreKernelChoice on the same workload")
	}
	if name, ok := db.LookupKernelChoiceDType(task.Device.Name, task.Workload.Key(), ""); !ok || name != "depthwise" {
		t.Fatalf("kernel record lost: %q, %v", name, ok)
	}

	// A newer choice replaces the old one.
	db.StoreKernelChoiceDType("dev", "wl", "", "direct", 0.9)
	if name, _ := db.LookupKernelChoiceDType("dev", "wl", ""); name != "direct" {
		t.Fatalf("re-store did not replace: %q", name)
	}

	if err := db.Save(); err != nil {
		t.Fatal(err)
	}
	db2, err := OpenDB(path)
	if err != nil {
		t.Fatal(err)
	}
	if name, ok := db2.LookupKernelChoiceDType("dev", "wl", ""); !ok || name != "direct" {
		t.Fatalf("kernel record did not survive the disk round-trip: %q, %v", name, ok)
	}
}

// TestKernelChoiceDTypeRoundTrip: per-dtype kernel records survive a
// save/load cycle under distinct keys, and fp32 stays on the legacy
// (dtype-less) key so databases written before the dtype field still
// resolve through both the plain and the explicit-fp32 lookups.
func TestKernelChoiceDTypeRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "records.json")
	db := NewDB(path)
	const dev, wl = "testdev", "conv n1c64"
	db.StoreKernelChoiceDType(dev, wl, "", "depthwise", 1.5)
	db.StoreKernelChoiceDType(dev, wl, "fp16", "gemm", 0.9)
	db.StoreKernelChoiceDType(dev, wl, "int8", "gemm", 0.7)
	// "fp32" must alias the legacy record, not create a second key.
	db.StoreKernelChoiceDType(dev, wl, "fp32", "direct", 1.4)
	if err := db.Save(); err != nil {
		t.Fatal(err)
	}

	loaded, err := OpenDB(path)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		dtype, kernel string
	}{
		{"", "direct"}, {"fp32", "direct"}, {"fp16", "gemm"}, {"int8", "gemm"},
	}
	for _, tc := range cases {
		got, ok := loaded.LookupKernelChoiceDType(dev, wl, tc.dtype)
		if !ok || got != tc.kernel {
			t.Errorf("dtype %q: got %q/%v, want %q", tc.dtype, got, ok, tc.kernel)
		}
	}

	// A database written without the dtype field (pre-dtype schema) must
	// still resolve: strip the field by rewriting the record by hand.
	legacy := filepath.Join(t.TempDir(), "legacy.json")
	if err := os.WriteFile(legacy, []byte(`[{"device":"testdev","kind":"kernel","workload":"conv n1c64","kernel":"direct","ms":1.4}]`), 0o644); err != nil {
		t.Fatal(err)
	}
	ldb, err := OpenDB(legacy)
	if err != nil {
		t.Fatal(err)
	}
	for _, dt := range []string{"", "fp32"} {
		if got, ok := ldb.LookupKernelChoiceDType(dev, wl, dt); !ok || got != "direct" {
			t.Errorf("legacy file dtype %q: got %q/%v, want direct", dt, got, ok)
		}
	}
}

// TestSaveIsDeterministic holds Save to one byte stream however the map
// iterates, including kernel records that differ only in dtype.
func TestSaveIsDeterministic(t *testing.T) {
	path := filepath.Join(t.TempDir(), "records.json")
	db := NewDB(path)
	for _, dt := range []string{"", "fp16", "int8"} {
		db.StoreKernelChoiceDType("testdev", "conv n1c64", dt, "gemm", 1)
	}
	var first []byte
	for i := 0; i < 20; i++ {
		if err := db.Save(); err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			first = data
		} else if string(data) != string(first) {
			t.Fatalf("save %d wrote different bytes from the first", i)
		}
	}
}

// FuzzOpenDB: any bytes on disk either make OpenDB fail or load a database
// that saves, reloads and saves again to the same bytes, with the same
// record count. The seeds are the record kinds the database writes, a
// legacy dtype-less kernel record, a retired kernel name, and the empty,
// null and truncated files.
func FuzzOpenDB(f *testing.F) {
	f.Add([]byte(`[{"device":"testdev","kind":"kernel","workload":"conv n1c64","kernel":"direct","ms":1.4}]`))
	f.Add([]byte(`[{"device":"d","kind":"kernel","workload":"w","kernel":"gemm","ms":0.9,"dtype":"fp16"},` +
		`{"device":"d","kind":"kernel","workload":"w","kernel":"depthwise","ms":0.7,"dtype":"int8"}]`))
	f.Add([]byte(`[{"device":"d","workload":"w","kind":"candidates","budget":16,"config":{},"ms":0,"trials":0,` +
		`"candidates":[{"block":4,"config":{"TileCo":4,"TileH":2,"TileW":4,"VecW":2,"TileK":1},"kernel_ms":0.5}]}]`))
	f.Add([]byte(`[{"device":"d","kind":"kernel","workload":"w","kernel":"winograd","ms":1}]`))
	f.Add([]byte(`[{"device":"d","workload":"w","config":{"TileCo":8,"UnrollKernel":true},"ms":1.25,"trials":10,"budget":32}]`))
	f.Add([]byte(`[]`))
	f.Add([]byte(`null`))
	f.Add([]byte(`[{"device":"d","kind":"kernel","wor`))
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "records.json")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		db, err := OpenDB(path)
		if err != nil {
			return
		}
		save := func(db *DB) []byte {
			if err := db.Save(); err != nil {
				t.Fatal(err)
			}
			out, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			return out
		}
		first := save(db)
		again, err := OpenDB(path)
		if err != nil {
			t.Fatalf("reopening a saved database: %v\n%s", err, first)
		}
		if again.Len() != db.Len() {
			t.Fatalf("reloaded %d records, saved %d", again.Len(), db.Len())
		}
		if second := save(again); !bytes.Equal(first, second) {
			t.Fatalf("save is not stable across a reload:\n%s\nthen\n%s", first, second)
		}
	})
}
