package ops

import (
	"math"

	"unigpu/internal/tensor"
)

// LeakyAlpha is the leaky-ReLU slope the fused conv/dense epilogues bake in
// (the zoo's Darknet models all use 0.1). The graph-level fusion passes only
// fold a leaky activation into an epilogue when its slope matches, so fusion
// never silently changes the function.
const LeakyAlpha float32 = 0.1

// ElementwiseKind names one stage of a fused elementwise chain.
type ElementwiseKind int

const (
	EwReLU ElementwiseKind = iota
	EwLeakyReLU
	EwSigmoid
	// EwAdd sums the running value with the next extra input (residual
	// connections folded into the chain).
	EwAdd
)

func (k ElementwiseKind) String() string {
	switch k {
	case EwReLU:
		return "relu"
	case EwLeakyReLU:
		return "leaky_relu"
	case EwSigmoid:
		return "sigmoid"
	case EwAdd:
		return "add"
	}
	return "elementwise"
}

// ElementwiseStage is one operation of a fused producer→consumer chain.
type ElementwiseStage struct {
	Kind  ElementwiseKind
	Alpha float32 // EwLeakyReLU slope
}

// FusedElementwiseInto applies a chain of elementwise stages to in, making a
// single pass over memory instead of one pass per stage. Each EwAdd stage
// consumes the next tensor from extras (the chain value is always the left
// addend, matching AddInto's operand order). Per-element stage order is
// identical to running the stages as separate kernels, so the result is
// bit-identical to the unfused chain. out may alias in; it must not alias
// any extra.
func FusedElementwiseInto(out, in *tensor.Tensor, extras []*tensor.Tensor, stages []ElementwiseStage) {
	if !allFloat32(out, in) || !allFloat32(extras...) {
		fusedElementwiseTypedInto(out, in, extras, stages)
		return
	}
	od, id := out.Data(), in.Data()
	// Resolve the extras' backing slices once, outside the element loop.
	// The fixed buffer keeps typical chains (one or two residual adds)
	// allocation-free on the session hot path.
	nAdd := 0
	for _, st := range stages {
		if st.Kind == EwAdd {
			nAdd++
		}
	}
	if nAdd != len(extras) {
		panic("ops: FusedElementwiseInto extras do not match the add stages")
	}
	var exbuf [4][]float32
	exd := exbuf[:0]
	for _, e := range extras {
		if e.Size() != in.Size() {
			panic("ops: FusedElementwiseInto add operand shape mismatch")
		}
		exd = append(exd, e.Data())
	}
	for i, v := range id {
		ei := 0
		for _, st := range stages {
			switch st.Kind {
			case EwReLU:
				if v < 0 {
					v = 0
				}
			case EwLeakyReLU:
				if v < 0 {
					v = st.Alpha * v
				}
			case EwSigmoid:
				v = float32(1 / (1 + math.Exp(-float64(v))))
			case EwAdd:
				v += exd[ei][i]
				ei++
			}
		}
		od[i] = v
	}
}

// fusedElementwiseTypedInto is the reduced-precision path: identical stage
// order, operands widened a run at a time (see typedRun).
func fusedElementwiseTypedInto(out, in *tensor.Tensor, extras []*tensor.Tensor, stages []ElementwiseStage) {
	nAdd := 0
	for _, st := range stages {
		if st.Kind == EwAdd {
			nAdd++
		}
	}
	if nAdd != len(extras) {
		panic("ops: FusedElementwiseInto extras do not match the add stages")
	}
	for _, e := range extras {
		if e.Size() != in.Size() {
			panic("ops: FusedElementwiseInto add operand shape mismatch")
		}
	}
	// Stage by stage over each run instead of element by element over the
	// stages: elements are independent, so each still sees the chain's
	// operations in chain order.
	var buf, exbuf [typedRun]float32
	for off, n := 0, in.Size(); off < n; off += typedRun {
		run := buf[:min(typedRun, n-off)]
		in.LoadF(run, off)
		ei := 0
		for _, st := range stages {
			switch st.Kind {
			case EwReLU:
				reluRow(run)
			case EwLeakyReLU:
				leakyRow(run, st.Alpha)
			case EwSigmoid:
				for i, v := range run {
					run[i] = float32(1 / (1 + math.Exp(-float64(v))))
				}
			case EwAdd:
				for i, v := range extras[ei].ViewF(exbuf[:], off, len(run)) {
					run[i] += v
				}
				ei++
			}
		}
		out.StoreF(off, run)
	}
}
