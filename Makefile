GO ?= go

.PHONY: build test vet race verify bench bench-regress bench-baseline trace soak loc

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

race:
	$(GO) test -race -timeout 25m ./...

# verify is the CI gate: compile everything, lint, and run the full test
# suite under the race detector. The explicit -timeout covers the
# whole-zoo accuracy sweeps (goldens, fusion cross-checks, dtype
# budgets), which exceed Go's default 10m per-package budget under the
# race scheduler when packages contend for CPU. The arm64 cross-build holds
# the portable GEMM tile and row loops to compiling (and vetting, tests
# included) where the amd64 assembly of internal/ops, internal/tensor and
# internal/cpu does not exist; vet's asmdecl check covers the assembly's
# frame layouts on amd64. The module's import layering (the harness a
# leaf of the product, internal/exec imported by tests alone, internal/par
# on the standard library only, internal/runtime blind to internal/ops) is
# TestModuleLayers in layers_test.go, and TestEveryDeclarationIsReached
# beside it fails on any declaration no binary reaches; the test runs
# below include both. The pool, the kernels
# that fan out through it and the vision operators (whose block sort, merge
# and scan fan out through it too) run under the race detector at one, two
# and four cores (-cpu raises GOMAXPROCS past the host's cores too): no
# job's result may depend on which worker ran it. FuzzOpenDB then feeds the
# tuning database's decoder generated files for 20 s, and FuzzPromName and
# FuzzParseLine feed the Prometheus name rewriter and bench2json's line
# parser generated strings for 10 s each; the test runs above try their
# seeds only.
verify:
	$(GO) build ./...
	$(GO) vet ./...
	GOARCH=arm64 $(GO) build ./...
	GOARCH=arm64 $(GO) vet ./internal/ops ./internal/tensor ./internal/cpu
	$(GO) test -race -cpu 1,2,4 ./internal/par ./internal/ops ./internal/vision
	$(GO) test -race -timeout 25m ./...
	$(GO) test -run '^$$' -fuzz FuzzOpenDB -fuzztime 20s ./internal/autotvm
	$(GO) test -run '^$$' -fuzz FuzzPromName -fuzztime 10s ./internal/obs
	$(GO) test -run '^$$' -fuzz FuzzParseLine -fuzztime 10s ./cmd/bench2json

# bench runs the runtime, ops and worker-pool benchmarks (session hot path,
# pooled kernels, per-kernel conv comparisons, fan-out dispatch), archives
# them as BENCH_runtime.json, and fails if the steady-state serial session
# run regresses above zero allocations per op, with or without a conv in the
# graph (bench2json matches a name, name-<procs> and name/<sub> only, so the
# depthwise benchmark needs its own entry).
bench:
	$(GO) test -run '^$$' -bench . -benchmem -benchtime 20x ./internal/runtime ./internal/ops ./internal/par | tee bench.out
	$(GO) run ./cmd/bench2json -in bench.out -out BENCH_runtime.json -maxallocs 'BenchmarkSessionRun=0,BenchmarkSessionRunDepthwise=0'

# bench-regress guards the serving hot path's wall clock: it re-runs the
# gated benchmarks (best of -count 3) and compares against the committed
# BENCH_baseline.json, failing on a >15% ns/op regression. The comparison
# skips itself with a warning when the baseline was recorded on a
# different CPU. After an intentional performance change, refresh the
# baseline with `make bench-baseline` and commit it.
# The BenchmarkConvKernels rows are one MobileNet pointwise conv (GEMM) and
# a stride-1 and a stride-2 depthwise conv (the row kernel, the second over
# phase planes) at each storage dtype; BenchmarkPool2DInto is SqueezeNet's
# first pool. Each row is held to its own baseline, like the others. The fp16/int8-to-fp32 ratio itself is NOT
# enforced: the baseline records it (1.0-1.2x, pointwise and depthwise
# alike; 2x before the kernels were unified), so a reduced-precision row
# can drift 15% from there before the gate fails, and rows a few seconds
# apart on a shared host scatter by more than a 1.15x same-run limit would
# allow.
GATED_BENCH  = BenchmarkSessionRun$$|BenchmarkConv2DInto$$|BenchmarkDenseInto$$|BenchmarkPool2DInto$$|BenchmarkConvKernels$$/^mobilenet_c128_28x28_1x1s1$$/^gemm|BenchmarkConvKernels$$/^mobilenet_c128_28x28_dw3x3s[12]$$/^depthwise
GATED_NAMES  = BenchmarkSessionRun,BenchmarkConv2DInto,BenchmarkDenseInto,BenchmarkPool2DInto,BenchmarkConvKernels/mobilenet_c128_28x28_1x1s1,BenchmarkConvKernels/mobilenet_c128_28x28_dw3x3s1,BenchmarkConvKernels/mobilenet_c128_28x28_dw3x3s2

bench-regress:
	$(GO) test -run '^$$' -bench '$(GATED_BENCH)' -benchmem -benchtime 200x -count 3 ./internal/runtime ./internal/ops | tee bench_regress.out
	$(GO) run ./cmd/bench2json -in bench_regress.out -out '' -baseline BENCH_baseline.json -maxregress 15 -gated '$(GATED_NAMES)'

bench-baseline:
	$(GO) test -run '^$$' -bench '$(GATED_BENCH)' -benchmem -benchtime 200x -count 3 ./internal/runtime ./internal/ops | tee bench_regress.out
	$(GO) run ./cmd/bench2json -in bench_regress.out -out BENCH_baseline.json

# soak hammers the fault-tolerant runtime: 500 session runs with seeded
# random fault injection (transient kernels, queue hangs, device loss,
# memory pressure) under the race detector, asserting bit-identical
# outputs and no goroutine leaks throughout. The batched soak pushes the same seeded
# faults through the request-coalescing front-end (gather/batched
# run/scatter, per-request degradation on batch faults, pool Close).
# The fleet soak serves the same seeded load across three device
# replicas, kills one a third of the way in and heals it at two thirds,
# asserting zero non-deadline failures, bit-identical outputs and that
# the healed device serves again.
soak:
	UNIGPU_SOAK_RUNS=500 $(GO) test -race -run 'TestFaultSoak|TestBatchedFaultSoak|TestFleetSoak' -count=1 -v ./internal/runtime

# loc prints the line counts ROADMAP.md budgets, the way it counts them
# (wc -l), so a PR's budget is a command and not a claim: the non-test
# lines per area (cmd/ is every command's main package), the test lines of
# internal/runtime, and two totals of non-test Go lines: the product
# closure (the module's files that `go list -deps .` builds for this
# GOARCH) and the whole module (every tracked file, both arches' included).
# The last line is the exported option count: the independently settable
# fields of the option structs package unigpu exposes, nested ones
# included, as TestExportedOptionCount counts them (-v lists them).
loc:
	@n() { ls $$@ | grep -v _test.go | xargs cat | wc -l; }; \
	echo "internal/runtime + unigpu.go:   $$(n internal/runtime/*.go unigpu.go)"; \
	echo "internal/graph:                 $$(n internal/graph/*.go)"; \
	echo "internal/ops + internal/tensor: $$(n internal/ops/*.go internal/tensor/*.go)"; \
	echo "internal/par:                   $$(n internal/par/*.go)"; \
	echo "internal/vision:                $$(n internal/vision/*.go)"; \
	echo "cmd/:                           $$(n cmd/*/*.go)"; \
	echo "assembly (.s):                  $$(cat internal/*/*.s | wc -l)"; \
	echo "internal/runtime tests:         $$(cat internal/runtime/*_test.go | wc -l)"; \
	echo "product closure:                $$($(GO) list -deps -f '{{if .Module}}{{range .GoFiles}}{{$$.Dir}}/{{.}} {{end}}{{end}}' . | xargs cat | wc -l)"; \
	echo "whole module:                   $$(git ls-files '*.go' | grep -v _test.go | xargs cat | wc -l)"; \
	echo "exported options:               $$($(GO) test -count=1 -run '^TestExportedOptionCount$$' -v . | sed -n 's/.*exported options: //p')"

# trace produces a sample Chrome trace + metrics dump from a quick run.
trace:
	$(GO) run ./cmd/unigpu-run -model SqueezeNet1.0 -size 64 -trace trace.json -metrics
