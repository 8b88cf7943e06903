package runtime_test

import (
	"bytes"
	"context"
	"errors"
	goruntime "runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"unigpu/internal/graph"
	"unigpu/internal/par"
	"unigpu/internal/runtime"
	"unigpu/internal/tensor"
)

// goid names the calling goroutine ("goroutine 12").
func goid() string {
	var buf [64]byte
	s := buf[:goruntime.Stack(buf[:], false)]
	return string(s[:bytes.IndexByte(s, '[')])
}

// fanOp is a test-local graph.Preparer whose Run copies its input to its
// output through a par.For fan-out of fanJobs jobs, as a conv does. The
// caller's first job waits (briefly) for a pool worker to join, so that
// "a job on a helper" is something the test decides and not luck. With
// poison set the first job a helper runs panics; if no helper ever joined,
// the last job panics on the caller, so a poisoned run fails either way.
type fanOp struct {
	poison atomic.Bool
	helped atomic.Bool // a job of the last Run ran on a pool worker
}

const fanJobs = 64

func (o *fanOp) Kind() string                               { return "fake_fanout" }
func (o *fanOp) InferShape(ins []tensor.Shape) tensor.Shape { return ins[0].Clone() }
func (o *fanOp) GPUFriendly() bool                          { return false }
func (o *fanOp) ExecuteInto(*tensor.Tensor, []*tensor.Tensor) {
	panic("a plan runs the PreparedOp, never ExecuteInto")
}
func (o *fanOp) Prepare(*graph.Node) (graph.PreparedOp, error) { return o, nil }
func (o *fanOp) Scratch() (int, tensor.DType)                  { return 0, tensor.Float32 }
func (o *fanOp) Label() string                                 { return "fake_fanout" }

func (o *fanOp) Run(out *tensor.Tensor, ins []*tensor.Tensor, _ *tensor.Tensor) error {
	o.helped.Store(false)
	par.For(fanJobs, fanJob{o, goid(), out.Data(), ins[0].Data()})
	return nil
}

type fanJob struct {
	op      *fanOp
	caller  string
	dst, in []float32
}

func (j fanJob) Run(i int) {
	switch onCaller := goid() == j.caller; {
	case !onCaller:
		j.op.helped.Store(true)
		if j.op.poison.Load() {
			panic("poisoned job")
		}
	case i == 0:
		for deadline := time.Now().Add(2 * time.Second); !j.op.helped.Load() && time.Now().Before(deadline); {
			goruntime.Gosched()
		}
	case i == fanJobs-1 && j.op.poison.Load() && !j.op.helped.Load():
		panic("poisoned job")
	}
	per := len(j.dst) / fanJobs
	copy(j.dst[i*per:(i+1)*per], j.in[i*per:(i+1)*per])
}

// TestFanOutPanicOnHelperIsANodeError: a kernel panic inside a fan-out, on
// a pool worker and not on the session's goroutine, surfaces as the same
// *NodeError as any operator panic; the session and the pool's workers serve
// the next healthy run; no stream and no goroutine is left behind. At the
// parent of the change that added internal/par this test cannot be written
// without taking the test binary down, which is the bug it pins: a
// parallelFor job ran on a goroutine spawned by `go worker()`, which
// the session's recover does not cover, so one bad kernel killed the server.
func TestFanOutPanicOnHelperIsANodeError(t *testing.T) {
	op := &fanOp{}
	g := graph.New()
	in := g.Input("data", 1, 4, 16, 16)
	a := g.Apply("a", &graph.SigmoidOp{}, in)
	n := g.Apply("fan", op, a)
	n.Device = graph.OnCPU
	g.SetOutputs(g.Apply("b", &graph.FlattenOp{}, n))
	feed := tensor.New(1, 4, 16, 16)
	feed.FillRandom(5)
	feeds := map[string]*tensor.Tensor{"data": feed}
	plan, err := runtime.NewPlan(g)
	if err != nil {
		t.Fatal(err)
	}
	want, err := plan.NewSession().Run(feeds)
	if err != nil {
		t.Fatal(err)
	}
	want = []*tensor.Tensor{want[0].Clone()}

	baseline := goruntime.NumGoroutine()
	for _, procs := range []int{2, 4} {
		prev := goruntime.GOMAXPROCS(procs)
		s := plan.NewSession()
		for rep := 0; rep < 5; rep++ {
			op.poison.Store(true)
			_, err := s.Run(feeds)
			var ne *runtime.NodeError
			if !errors.As(err, &ne) || ne.Node != "fan" || !strings.Contains(ne.Cause.Error(), "poisoned job") {
				t.Fatalf("GOMAXPROCS(%d) rep %d: got %v, want *NodeError on \"fan\" carrying the panic value", procs, rep, err)
			}
			if !op.helped.Load() {
				goruntime.GOMAXPROCS(prev)
				t.Skip("no pool worker joined the fan-out: the process started on one core")
			}
			if par.Streams() != 0 {
				t.Fatalf("%d streams still running after a run that panicked", par.Streams())
			}
			op.poison.Store(false)
			got, err := s.Run(feeds)
			if err != nil {
				t.Fatalf("GOMAXPROCS(%d) rep %d: healthy run after the panic: %v", procs, rep, err)
			}
			tensorsEqual(t, "healthy run after the panic", got, want)
			if !op.helped.Load() {
				t.Fatalf("GOMAXPROCS(%d) rep %d: the pool's worker did not serve the run after the panic", procs, rep)
			}
		}
		goruntime.GOMAXPROCS(prev)
	}
	assertNoGoroutineLeak(t, baseline)
}

// errOp fails its node with an ordinary error.
type errOp struct{ fanOp }

func (o *errOp) Prepare(*graph.Node) (graph.PreparedOp, error) { return o, nil }
func (o *errOp) Run(*tensor.Tensor, []*tensor.Tensor, *tensor.Tensor) error {
	return errors.New("kernel says no")
}

// TestStreamEndsHoweverTheRunEnds: Session.RunContext counts as a running
// compute stream exactly while it runs: the count is back at zero after a
// run that succeeds, errors, is cancelled or is refused for its feeds (the
// panicking run is TestFanOutPanicOnHelperIsANodeError's).
func TestStreamEndsHoweverTheRunEnds(t *testing.T) {
	build := func(op graph.Operator) (*runtime.Plan, map[string]*tensor.Tensor) {
		g := graph.New()
		in := g.Input("data", 1, 4, 16, 16)
		n := g.Apply("n", op, g.Apply("a", &graph.SigmoidOp{}, in))
		n.Device = graph.OnCPU
		g.SetOutputs(n)
		plan, err := runtime.NewPlan(g)
		if err != nil {
			t.Fatal(err)
		}
		feed := tensor.New(1, 4, 16, 16)
		feed.FillRandom(7)
		return plan, map[string]*tensor.Tensor{"data": feed}
	}
	during := &streamProbe{}
	okPlan, feeds := build(during)
	errPlan, _ := build(&errOp{})
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := okPlan.NewSession().Run(feeds); err != nil {
		t.Fatal(err)
	}
	if during.seen.Load() != 1 {
		t.Fatalf("a node saw %d streams running during its own run, want 1", during.seen.Load())
	}
	if _, err := errPlan.NewSession().Run(feeds); err == nil {
		t.Fatal("errOp's run succeeded")
	}
	if _, err := okPlan.NewSession().RunContext(cancelled, feeds); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled run: %v", err)
	}
	if _, err := okPlan.NewSession().Run(nil); err == nil {
		t.Fatal("run without feeds succeeded")
	}
	if par.Streams() != 0 {
		t.Fatalf("%d streams still running after every run returned", par.Streams())
	}
}

// streamProbe records how many streams are running while it runs.
type streamProbe struct {
	fanOp
	seen atomic.Int32
}

func (o *streamProbe) Prepare(*graph.Node) (graph.PreparedOp, error) { return o, nil }
func (o *streamProbe) Run(out *tensor.Tensor, ins []*tensor.Tensor, _ *tensor.Tensor) error {
	o.seen.Store(int32(par.Streams()))
	tensor.Copy(out, ins[0])
	return nil
}
