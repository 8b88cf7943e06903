// Command e2e is the repo benchmark named by BENCHMARK.json: five zoo
// serving workloads, each measured twice. The first pass reports the
// end-to-end metrics a user of the library sees — simulated-device latency
// and host wall latency side by side, never mixed — with all tracing off;
// the second is the traced pass that yields the per-layer numbers. Every
// response of both passes is checked against a reference computed outside
// the code under test. See bench/README.md.
//
//	go run ./bench/e2e -seed 1                        # all five, both passes
//	go run ./bench/e2e -workload resnet50_session -trace 1 -seconds 14
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"strconv"

	"unigpu/bench/e2e/harness"
)

// outDir receives the traced pass's span files and, when all workloads run,
// each child's report.
const outDir = "bench/e2e/out"

func main() {
	cfg := config{warmup: 2, setups: 3, inputs: 8, outDir: outDir}
	name := flag.String("workload", "", "workload to run; empty runs all, each pass of each in a fresh child process")
	trace := flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from the traced pass")
	jsonPath := flag.String("json", "", "also write the full report (raw counts, environment, every metric) to this file")
	printSpec := flag.Bool("spec", false, "print BENCHMARK.json and exit")
	flag.Int64Var(&cfg.seed, "seed", goldenSeed, "seed of the request tensors; changes nothing else")
	flag.Float64Var(&cfg.seconds, "seconds", 20, "measured window in seconds")
	flag.Float64Var(&cfg.seconds, "window", 20, "same as -seconds")
	flag.Parse()

	var err error
	switch {
	case *printSpec:
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		err = enc.Encode(spec)
	case *name == "":
		err = runAll(cfg, *jsonPath)
	default:
		err = runOne(*name, *trace, cfg, *jsonPath)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2e:", err)
		os.Exit(1)
	}
}

// runOne runs one pass of one workload in this process and prints its
// metrics, the driver's result line last. A response that failed its check
// makes the command fail after the numbers are printed.
func runOne(name string, trace int, cfg config, jsonPath string) error {
	w := workloadByName(name)
	if w == nil {
		return fmt.Errorf("unknown workload %q", name)
	}
	if cfg.seconds <= 0 {
		return fmt.Errorf("window must be positive, got %v s", cfg.seconds)
	}
	run := runMeasured
	if trace == 1 {
		run = runTraced
	} else if trace != 0 {
		return fmt.Errorf("-trace is 0 or 1, got %d", trace)
	}
	r, err := run(w, cfg)
	if err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	if jsonPath != "" {
		if err := harness.WriteJSON(jsonPath, r); err != nil {
			return err
		}
	}
	if err := r.print(os.Stdout); err != nil {
		return err
	}
	if r.Counts.Failed > 0 {
		return fmt.Errorf("%s: %d of %d responses failed: %s", name, r.Counts.Failed, r.Counts.Attempted, r.FirstError)
	}
	return nil
}

// runAll runs both passes of every workload, each in a fresh child process
// so that no workload inherits another's heap, telemetry registry or warmed
// caches, and prints every metric of every run as the children report them.
func runAll(cfg config, jsonPath string) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	var reports []json.RawMessage
	var failed []string
	for _, w := range workloads {
		for trace := 0; trace <= 1; trace++ {
			reportPath := filepath.Join(outDir, fmt.Sprintf("%s.trace%d.report.json", w.name, trace))
			os.Remove(reportPath) // a child that dies must not leave last time's report behind
			cmd := exec.CommandContext(ctx, self,
				"-workload", w.name, "-trace", strconv.Itoa(trace), "-json", reportPath,
				"-seed", strconv.FormatInt(cfg.seed, 10),
				"-seconds", strconv.FormatFloat(cfg.seconds, 'g', -1, 64))
			cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
			if err := cmd.Run(); err != nil {
				if ctx.Err() != nil {
					return ctx.Err()
				}
				failed = append(failed, fmt.Sprintf("%s -trace %d: %v", w.name, trace, err))
			}
			if data, err := os.ReadFile(reportPath); err == nil {
				reports = append(reports, data)
			}
		}
	}
	if jsonPath != "" {
		if err := harness.WriteJSON(jsonPath, reports); err != nil {
			return err
		}
	}
	if len(failed) > 0 {
		return fmt.Errorf("%d runs failed: %v", len(failed), failed)
	}
	return nil
}
