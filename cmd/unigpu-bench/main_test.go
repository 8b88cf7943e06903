package main

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"unigpu/internal/bench"
)

// TestRunPrintsBenchArtifacts holds the quick paper artifacts to what the
// internal/bench function behind each computes.
func TestRunPrintsBenchArtifacts(t *testing.T) {
	irL, cuL, clL := bench.IRSizeExperiment()
	fb := bench.NewEstimator().FallbackExperiment()
	for _, tc := range []struct{ table, want string }{
		{"figure2", bench.Figure2Demo()},
		{"figure3", bench.Figure3Demo()},
		{"irsize", fmt.Sprintf("vision pipeline in unified IR: %d lines -> %d CUDA + %d OpenCL lines\n", irL, cuL, clL)},
		{"fallback", fmt.Sprintf("all-GPU %.2f ms, NMS fallback %.2f ms, overhead %.2f%%\n", fb.AllGPUMs, fb.FallbackMs, fb.OverheadPct)},
	} {
		t.Run(tc.table, func(t *testing.T) {
			var b strings.Builder
			if err := run(context.Background(), &b, bench.NewEstimator(), tc.table); err != nil {
				t.Fatal(err)
			}
			if b.String() != tc.want {
				t.Fatalf("-table %s printed\n%s\nwant\n%s", tc.table, b.String(), tc.want)
			}
		})
	}
}

// TestRunRejectsUnknownTable: a name run does not know, a typo included,
// is an error that lists the valid names, and nothing is printed.
func TestRunRejectsUnknownTable(t *testing.T) {
	for _, name := range []string{"bogus", "fusoin", ""} {
		var b strings.Builder
		err := run(context.Background(), &b, bench.NewEstimator(), name)
		if err == nil || !strings.Contains(err.Error(), strings.Join(tables, ", ")) {
			t.Errorf("-table %q: error %v, want one listing %v", name, err, tables)
		}
		if b.Len() != 0 {
			t.Errorf("-table %q printed %q", name, b.String())
		}
	}
}
