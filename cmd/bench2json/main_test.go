package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestParseLineMetrics(t *testing.T) {
	res, ok := parseLine("BenchmarkConvKernels/resnet50_c64/gemm-8  20  716360 ns/op  231211008 flops  0 B/op  0 allocs/op")
	if !ok {
		t.Fatal("line not parsed")
	}
	if res.Name != "BenchmarkConvKernels/resnet50_c64/gemm-8" || res.Iterations != 20 {
		t.Fatalf("parsed %+v", res)
	}
	if res.Metrics["flops"] != 231211008 {
		t.Fatalf("flops metric = %v", res.Metrics["flops"])
	}
	if res.BytesPerOp != 0 || res.AllocsPerOp != 0 {
		t.Fatalf("benchmem fields: %+v", res)
	}
}

func TestCheckAllocGates(t *testing.T) {
	results := []Result{
		{Name: "BenchmarkSessionRun-8", AllocsPerOp: 0},
		{Name: "BenchmarkSessionRunConcurrent-8", AllocsPerOp: 40},
		{Name: "BenchmarkOther-8", AllocsPerOp: 7},
	}
	if errs := checkAllocGates("BenchmarkSessionRun=0", results); len(errs) != 0 {
		t.Fatalf("clean gate failed: %v", errs)
	}
	// Note: SessionRunConcurrent does not match gate SessionRun (no "-" or
	// "/" boundary), so only the serial benchmark is gated above.
	if errs := checkAllocGates("BenchmarkOther=0", results); len(errs) != 1 {
		t.Fatalf("violation not reported: %v", errs)
	}
	if errs := checkAllocGates("BenchmarkMissing=0", results); len(errs) != 1 {
		t.Fatalf("missing benchmark must fail the gate: %v", errs)
	}
	if errs := checkAllocGates("junk", results); len(errs) != 1 {
		t.Fatalf("malformed spec must error: %v", errs)
	}
	if errs := checkAllocGates("", results); len(errs) != 0 {
		t.Fatalf("empty spec must pass: %v", errs)
	}
}

func TestCheckRegressionGatedSubBenchmarks(t *testing.T) {
	base := File{Results: []Result{
		{Name: "BenchmarkSessionRun/dtype=fp32-8", NsPerOp: 100},
		{Name: "BenchmarkSessionRun/dtype=fp16-8", NsPerOp: 100},
		{Name: "BenchmarkDenseInto-8", NsPerOp: 100},
	}}
	path := writeBaseline(t, base)

	cur := File{Results: []Result{
		{Name: "BenchmarkSessionRun/dtype=fp32-8", NsPerOp: 105},
		{Name: "BenchmarkSessionRun/dtype=fp16-8", NsPerOp: 300}, // regressed
		{Name: "BenchmarkDenseInto-8", NsPerOp: 100},
	}}
	// The gated parent name expands to every dtype sub-benchmark, so the
	// fp16 regression is caught even though only the parent is listed.
	errs := checkRegression(path, 15, "BenchmarkSessionRun,BenchmarkDenseInto", cur)
	if len(errs) != 1 || !contains(errs[0], "dtype=fp16") {
		t.Fatalf("want one fp16 regression, got %v", errs)
	}
	// A gated name matching nothing in the fresh run must fail loudly.
	errs = checkRegression(path, 15, "BenchmarkRenamed", cur)
	if len(errs) != 1 || !contains(errs[0], "missing") {
		t.Fatalf("missing gated benchmark must error, got %v", errs)
	}
}

func writeBaseline(t *testing.T, f File) string {
	t.Helper()
	data, err := json.Marshal(f)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "baseline.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func contains(s, sub string) bool { return strings.Contains(s, sub) }

// FuzzParseLine feeds parseLine generated lines: it must not panic, and a
// line it accepts is named by its first field. The seeds are in
// testdata/fuzz/FuzzParseLine.
func FuzzParseLine(f *testing.F) {
	f.Fuzz(func(t *testing.T, line string) {
		res, ok := parseLine(line)
		if !ok {
			return
		}
		if first := strings.Fields(line)[0]; res.Name != first {
			t.Fatalf("parseLine(%q).Name = %q, want the first field %q", line, res.Name, first)
		}
	})
}
