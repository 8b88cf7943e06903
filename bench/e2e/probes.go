package main

import (
	goruntime "runtime"
	"sync"
	"sync/atomic"
	"time"

	"unigpu/bench/e2e/harness"
	"unigpu/internal/graph"
	"unigpu/internal/ops"
	"unigpu/internal/sim"
	"unigpu/internal/tensor"
)

// hostProbe is a fixed piece of work of the benchmark's own, timed between
// the stretches in which the program is timed, to tell how fast the host is
// running. The box this benchmark is gated on is two cores of a shared host
// that spends minutes at a time in a state where every workload here, and
// any other compute-bound code, takes about 1.5 times as long as when the
// host is undisturbed; a run's raw median then says which state the host was
// in, not what the program costs. The probe's reps beside a measurement,
// over probeRefMs, are the host's slowdown there (slowdown below), and the
// three host-clock end-to-end metrics are stated with it divided out: in the
// time the undisturbed reference host would have taken. A change to the
// program cannot move the slowdown, because the probe shares no code with it
// and runs only while no request is in flight.
//
// One rep is the shape of the program's hot path, a GEMM conv under
// parallelFor: probeJobs output tiles of a packed matrix product, each
// computed by a 4x4 register-blocked multiply-add loop over panels that stay
// in L2, handed out by an atomic counter to one goroutine per core and
// joined at the end. Handing out matters: when one core of the two is
// slowed, work-sharing code loses the mean of the two cores' speeds, not the
// slower one's, and so must the probe.
type hostProbe struct {
	a, b []float32   // packed panels of 4: probeM x probeK and probeK x probeN
	out  [][]float32 // one probeM x probeN tile per job
}

const (
	probeJobs = 32
	probeM    = 8
	probeN    = 64
	probeK    = 576 // a 3x3 conv over 64 channels
	// Reps beside each timed stretch: about 10 ms around half a second of
	// serving, about 30 ms around a set-up of a third of a second or more.
	segmentReps = 4
	setupReps   = 12
	// probeRefMs is one rep on the undisturbed reference host, the 2-core
	// 2.1 GHz Xeon (Sapphire Rapids) guest this benchmark was written on. It
	// only fixes the scale of the host-clock metrics; it is the same for
	// every commit, so it cancels when two commits are compared.
	probeRefMs = 2.68
)

func newHostProbe() *hostProbe {
	p := &hostProbe{a: make([]float32, probeM*probeK), b: make([]float32, probeK*probeN)}
	for i := range p.a {
		p.a[i] = 0.01 * float32(i%7)
	}
	for i := range p.b {
		p.b[i] = 0.01 * float32(i%5)
	}
	for j := 0; j < probeJobs; j++ {
		p.out = append(p.out, make([]float32, probeM*probeN))
	}
	return p
}

// tile computes one job's output.
func (p *hostProbe) tile(c []float32) {
	for i := 0; i < probeM; i += 4 {
		ap := p.a[i*probeK:]
		for j := 0; j < probeN; j += 4 {
			bp := p.b[j*probeK:]
			var c00, c01, c02, c03, c10, c11, c12, c13, c20, c21, c22, c23, c30, c31, c32, c33 float32
			for k := 0; k < probeK; k++ {
				a, b := ap[k*4:k*4+4], bp[k*4:k*4+4]
				a0, a1, a2, a3 := a[0], a[1], a[2], a[3]
				b0, b1, b2, b3 := b[0], b[1], b[2], b[3]
				c00 += a0 * b0
				c01 += a0 * b1
				c02 += a0 * b2
				c03 += a0 * b3
				c10 += a1 * b0
				c11 += a1 * b1
				c12 += a1 * b2
				c13 += a1 * b3
				c20 += a2 * b0
				c21 += a2 * b1
				c22 += a2 * b2
				c23 += a2 * b3
				c30 += a3 * b0
				c31 += a3 * b1
				c32 += a3 * b2
				c33 += a3 * b3
			}
			copy(c[i*probeN+j:], []float32{c00, c01, c02, c03})
			copy(c[(i+1)*probeN+j:], []float32{c10, c11, c12, c13})
			copy(c[(i+2)*probeN+j:], []float32{c20, c21, c22, c23})
			copy(c[(i+3)*probeN+j:], []float32{c30, c31, c32, c33})
		}
	}
}

// rep times one pass over the jobs on every core, in milliseconds.
func (p *hostProbe) rep() float64 {
	var next atomic.Int64
	var wg sync.WaitGroup
	t0 := time.Now()
	for w := 0; w < goruntime.NumCPU(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := next.Add(1) - 1; j < probeJobs; j = next.Add(1) - 1 {
				p.tile(p.out[j])
			}
		}()
	}
	wg.Wait()
	return float64(time.Since(t0)) / 1e6
}

// reps appends n timed reps to repsMs.
func (p *hostProbe) reps(repsMs []float64, n int) []float64 {
	for i := 0; i < n; i++ {
		repsMs = append(repsMs, p.rep())
	}
	return repsMs
}

// slowdown is how many times slower than the undisturbed reference host the
// host ran while these reps were taken: their mean without the fastest and
// the slowest tenth, over probeRefMs. A mean, because the host's speed moves
// within a run and the program pays for all of it; trimmed, because a rep
// the guest's scheduler interrupted says nothing about the host's speed.
func slowdown(repsMs []float64) float64 { return harness.TrimmedMean(repsMs, 0.1) / probeRefMs }

// Host reference probes of the traced pass. They are not optimisation
// targets: if either moves by more than a tenth between two runs, the
// machine changed, not the code.

// hostPeakGFLOPS runs a multiply-add chain on eight independent float32
// accumulators per core for about d and returns the achieved GFLOP/s.
func hostPeakGFLOPS(d time.Duration) float64 {
	const inner = 1 << 16
	cores := goruntime.NumCPU()
	flops := make([]float64, cores)
	sinks := make([]float32, cores)
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < cores; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			a0, a1, a2, a3, a4, a5, a6, a7 := float32(1), float32(2), float32(3), float32(4), float32(5), float32(6), float32(7), float32(8)
			const m, b = float32(0.999), float32(0.001)
			for time.Since(start) < d {
				for i := 0; i < inner; i++ {
					a0, a1, a2, a3 = a0*m+b, a1*m+b, a2*m+b, a3*m+b
					a4, a5, a6, a7 = a4*m+b, a5*m+b, a6*m+b, a7*m+b
				}
				flops[c] += 16 * inner
			}
			sinks[c] = a0 + a1 + a2 + a3 + a4 + a5 + a6 + a7
		}(c)
	}
	wg.Wait()
	var total float64
	for _, f := range flops {
		total += f
	}
	return total / time.Since(start).Seconds() / 1e9
}

// hostCopyGBs is a STREAM-style copy: one goroutine per core copies between
// two buffers far larger than cache for about d; every copied byte counts
// once read and once written.
func hostCopyGBs(d time.Duration) float64 {
	const size = 32 << 20
	cores := goruntime.NumCPU()
	moved := make([]float64, cores)
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < cores; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			src, dst := make([]byte, size), make([]byte, size)
			for i := range src {
				src[i] = byte(i)
			}
			t0 := time.Now()
			for time.Since(t0) < d {
				copy(dst, src)
				moved[c] += 2 * size
			}
		}(c)
	}
	wg.Wait()
	var total float64
	for _, m := range moved {
		total += m
	}
	return total / time.Since(start).Seconds() / 1e9
}

// convRankCorr answers whether the kernel selector's oracle can be trusted
// on this host: over the graph's distinct (workload, kernel, dtype) convs,
// the Spearman correlation of the roofline's predicted seconds on dev with
// the fastest of three standalone PreparedConv runs on the host.
func convRankCorr(g *graph.Graph, dev *sim.Device) float64 {
	var predicted, measured []float64
	seen := map[string]bool{}
	for _, n := range g.OpNodes() {
		conv, ok := n.Op.(*graph.ConvOp)
		if !ok || len(n.Inputs) < 2 || !n.Inputs[1].IsConstant() {
			continue
		}
		key := conv.W.Key() + "/" + conv.Kernel.String() + "@" + conv.DType.String()
		if seen[key] {
			continue
		}
		seen[key] = true

		pc := ops.PrepareConvDType(conv.W, conv.Kernel, n.Inputs[1].Value, conv.DType)
		in := tensor.NewTyped(n.Inputs[0].StorageDType(), n.Inputs[0].OutShape...)
		in.SetScale(1.0 / 127)
		in.FillRandom(1)
		out := tensor.NewTyped(n.DType, n.OutShape...)
		out.SetScale(n.QScale)
		var scratch []float32
		var scratch8 []int8
		if pc.ScratchDType() == tensor.Int8 {
			scratch8 = make([]int8, pc.ScratchElems())
		} else {
			scratch = make([]float32, pc.ScratchElems())
		}
		best := time.Duration(1 << 62)
		for rep := 0; rep < 4; rep++ { // the first run only warms caches
			t0 := time.Now()
			pc.RunIntoEpilogue(out, in, nil, nil, scratch, scratch8, false)
			if d := time.Since(t0); rep > 0 && d < best {
				best = d
			}
		}
		flops, elems, eff := ops.KernelProfile(conv.W, pc.Kernel())
		predicted = append(predicted, dev.AlgoSeconds(flops, elems, float64(conv.DType.Size()), eff))
		measured = append(measured, best.Seconds())
	}
	return harness.Spearman(predicted, measured)
}
