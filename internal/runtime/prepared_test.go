package runtime_test

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"unsafe"

	"unigpu/internal/graph"
	"unigpu/internal/runtime"
	"unigpu/internal/tensor"
)

// scratchOp is a fake operator that is its own graph.PreparedOp: it
// declares a workspace, checks the one it is handed, records its base
// pointer, stamps it, writes its output (a copy of its input) and checks the
// stamp survived — so a workspace that aliases the node's output is caught.
type scratchOp struct {
	name    string
	elems   int
	dt      tensor.DType
	prepErr error
	ledger  *scratchLedger
}

// scratchLedger records the workspace each node was handed.
type scratchLedger struct {
	base   map[string]unsafe.Pointer
	faults []string
}

func (o *scratchOp) Kind() string                               { return "fake_scratch" }
func (o *scratchOp) InferShape(ins []tensor.Shape) tensor.Shape { return ins[0].Clone() }
func (o *scratchOp) GPUFriendly() bool                          { return false }
func (o *scratchOp) ExecuteInto(*tensor.Tensor, []*tensor.Tensor) {
	panic("a plan runs the PreparedOp, never ExecuteInto")
}

func (o *scratchOp) Prepare(*graph.Node) (graph.PreparedOp, error) {
	if o.prepErr != nil {
		return nil, o.prepErr
	}
	return o, nil
}

func (o *scratchOp) Scratch() (int, tensor.DType) { return o.elems, o.dt }
func (o *scratchOp) Label() string                { return "fake_scratch/" + o.name }

func (o *scratchOp) Run(out *tensor.Tensor, ins []*tensor.Tensor, scratch *tensor.Tensor) error {
	if scratch == nil || scratch.DType() != o.dt || scratch.Rank() != 1 || scratch.Size() != o.elems {
		return fmt.Errorf("scratch is not the declared %d x %s", o.elems, o.dt)
	}
	var base unsafe.Pointer
	if o.dt == tensor.Int8 {
		buf := scratch.Int8Data()
		if len(buf) != o.elems || cap(buf) != o.elems {
			return fmt.Errorf("int8 scratch len %d cap %d, declared %d", len(buf), cap(buf), o.elems)
		}
		base = unsafe.Pointer(&buf[0])
	} else {
		buf := scratch.Data()
		if len(buf) != o.elems || cap(buf) != o.elems {
			return fmt.Errorf("fp32 scratch len %d cap %d, declared %d", len(buf), cap(buf), o.elems)
		}
		base = unsafe.Pointer(&buf[0])
	}
	o.ledger.base[o.name] = base

	stamp := func(i int) float32 { return float32((int(o.name[0])*31 + i) % 100) }
	for i := 0; i < o.elems; i++ {
		scratch.SetF(i, stamp(i))
	}
	tensor.Copy(out, ins[0])
	for i := 0; i < o.elems; i++ {
		if scratch.GetF(i) != stamp(i) {
			o.ledger.faults = append(o.ledger.faults, fmt.Sprintf("%s's scratch was overwritten while it ran", o.name))
			break
		}
	}
	return nil
}

// TestPreparedOpScratchContract drives the plan through a test-local
// PreparedOp. Three nodes read the one input and are all graph outputs, in
// fp16 storage, so no output buffer is ever freed and no fp32 or int8 slot
// exists but scratch: a's fp32 scratch is freed as soon as a has run, b's
// is int8, and c's fp32 scratch reuses a's slot, grown to c's need.
func TestPreparedOpScratchContract(t *testing.T) {
	const outElems, aElems, bElems, cElems = 2 * 3 * 4, 96, 40, 160
	ledger := &scratchLedger{base: map[string]unsafe.Pointer{}}
	fakes := []*scratchOp{
		{name: "a", elems: aElems, dt: tensor.Float32, ledger: ledger},
		{name: "b", elems: bElems, dt: tensor.Int8, ledger: ledger},
		{name: "c", elems: cElems, dt: tensor.Float32, ledger: ledger},
	}
	g := graph.New()
	in := g.Input("data", 2, 3, 4)
	var outs []*graph.Node
	for _, f := range fakes {
		n := g.Apply(f.name, f, in)
		n.Device, n.DType = graph.OnCPU, tensor.Float16
		outs = append(outs, n)
	}
	g.SetOutputs(outs...)
	plan, err := runtime.NewPlan(g)
	if err != nil {
		t.Fatal(err)
	}

	// Scratch is arena, not liveness: three pinned fp16 outputs are all the
	// intermediates there are; the arena adds one fp32 slot (grown to the
	// larger of a's and c's need) and one int8 slot.
	if want := 3 * 2 * outElems; plan.PeakLiveBytes() != want || plan.IntermediateBytes() != want {
		t.Fatalf("peak live %d B, intermediates %d B, want %d B for both (scratch excluded)",
			plan.PeakLiveBytes(), plan.IntermediateBytes(), want)
	}
	if want := 3*2*outElems + 4*cElems + bElems; plan.ArenaBytes() != want {
		t.Fatalf("arena %d B, want %d B (outputs + one fp32 and one int8 scratch slot)", plan.ArenaBytes(), want)
	}
	if k := plan.Info().Kernels; k["a"] != 1 || k["b"] != 1 || k["c"] != 1 {
		t.Fatalf("plan info counts labelled routines as %v", k)
	}

	feed := tensor.New(2, 3, 4)
	feed.FillRandom(5)
	want := tensor.Convert(feed, tensor.Float16, 0)
	feeds := map[string]*tensor.Tensor{"data": feed}
	sess := plan.NewSession()
	for rep := 0; rep < 3; rep++ {
		got, err := sess.Run(feeds)
		if err != nil {
			t.Fatal(err)
		}
		for k, o := range got {
			if o.DType() != tensor.Float16 || tensor.MaxAbsDiff(o, want) != 0 {
				t.Fatalf("rep %d: output %s differs from the fp16-rounded input", rep, fakes[k].name)
			}
		}
		if ledger.base["c"] != ledger.base["a"] {
			t.Fatalf("rep %d: c's scratch %p is not a's freed buffer %p", rep, ledger.base["c"], ledger.base["a"])
		}
	}
	if len(ledger.faults) > 0 {
		t.Fatalf("scratch overwritten:\n%s", strings.Join(ledger.faults, "\n"))
	}
}

// TestPrepareErrorNamesNode: an operator that cannot be prepared fails
// NewPlan, with the node named and the operator's error wrapped.
func TestPrepareErrorNamesNode(t *testing.T) {
	cause := errors.New("weights are not packable")
	g := graph.New()
	in := g.Input("data", 1, 4)
	g.SetOutputs(g.Apply("stubborn", &scratchOp{name: "stubborn", prepErr: cause}, in))
	_, err := runtime.NewPlan(g)
	if !errors.Is(err, cause) || !strings.Contains(err.Error(), `"stubborn"`) {
		t.Fatalf("NewPlan error %v, want one naming node \"stubborn\" and wrapping %v", err, cause)
	}
}
