package par

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// grow gives the test as many workers as the -cpu under test allows: init
// sized the pool by the GOMAXPROCS the process started with, which -cpu
// raises afterwards. Tests in this package run one at a time, and nothing
// else is fanning out while a test function starts.
func grow(t *testing.T) int {
	t.Helper()
	p := runtime.GOMAXPROCS(0)
	start(p - 1)
	return p
}

// hitJob counts how often each job ran.
type hitJob struct{ hits []atomic.Int32 }

func (j hitJob) Run(i int) { j.hits[i].Add(1) }

// TestForRunsEveryJobOnce: every job in [0,n) runs exactly once, whoever
// runs it, for loops shorter than, equal to and far longer than the pool.
func TestForRunsEveryJobOnce(t *testing.T) {
	grow(t)
	for _, n := range []int{0, 1, 2, 3, 7, 64, 1000, 1025} {
		for rep := 0; rep < 20; rep++ {
			j := hitJob{hits: make([]atomic.Int32, n)}
			For(n, j)
			for i := range j.hits {
				if h := j.hits[i].Load(); h != 1 {
					t.Fatalf("n=%d: job %d ran %d times", n, i, h)
				}
			}
		}
	}
}

// gaugeJob records the most helpers ever busy at once: a job counts the
// workers that are invited to or running a fan-out as it runs.
type gaugeJob struct {
	peak *atomic.Int32
	sum  *atomic.Int64
}

func (j gaugeJob) Run(i int) {
	h := int32(0)
	for _, w := range workers {
		if f := w.inbox.Load(); f != nil && f != parked {
			h++
		}
	}
	for {
		p := j.peak.Load()
		if h <= p || j.peak.CompareAndSwap(p, h) {
			break
		}
	}
	j.sum.Add(int64(i))
}

// TestConcurrentFanOutsStayWithinTheCores: 8 goroutines x 1000 fan-outs at
// once all complete, every job run, and the helpers busy across the process
// never exceed GOMAXPROCS-1 (callers outside a stream count as one stream).
func TestConcurrentFanOutsStayWithinTheCores(t *testing.T) {
	p := grow(t)
	var peak atomic.Int32
	var sum atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < 1000; k++ {
				For(33, gaugeJob{&peak, &sum})
			}
		}()
	}
	wg.Wait()
	if want := int64(8 * 1000 * (32 * 33 / 2)); sum.Load() != want {
		t.Fatalf("jobs summed to %d, want %d", sum.Load(), want)
	}
	if int(peak.Load()) > p-1 {
		t.Fatalf("%d helpers busy at once with GOMAXPROCS %d", peak.Load(), p)
	}
	if p > 1 && peak.Load() == 0 {
		t.Errorf("no fan-out ever had a helper at GOMAXPROCS %d", p)
	}
	if h := helping.Load(); h != 0 {
		t.Fatalf("%d helpers still counted busy after every fan-out returned", h)
	}
}

// TestStreamsShareTheCores: with s streams running, concurrent fan-outs have
// at most GOMAXPROCS-s helpers between them: every core with one stream,
// none at all with as many streams as cores.
func TestStreamsShareTheCores(t *testing.T) {
	p := grow(t)
	for s := 1; s <= p; s++ {
		Enter()
		var peak atomic.Int32
		var sum atomic.Int64
		var wg sync.WaitGroup
		for g := 0; g < s; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for k := 0; k < 500; k++ {
					For(64, gaugeJob{&peak, &sum})
				}
			}()
		}
		wg.Wait()
		if int(peak.Load()) > p-s {
			t.Fatalf("%d helpers busy at once while %d streams ran on %d cores", peak.Load(), s, p)
		}
	}
	for s := 1; s <= p; s++ {
		Exit()
	}
	if Streams() != 0 {
		t.Fatalf("Streams() = %d after every Exit", Streams())
	}
}

// nestJob fans out again from inside a job.
type nestJob struct{ hits []atomic.Int32 }

func (j nestJob) Run(i int) {
	For(16, hitJob{hits: j.hits[i*16 : (i+1)*16]})
}

// TestNestedFanOutDoesNotDeadlock: a job that itself fans out finishes, on
// its own goroutine when no worker is idle; every inner job runs once.
func TestNestedFanOutDoesNotDeadlock(t *testing.T) {
	grow(t)
	for rep := 0; rep < 200; rep++ {
		hits := make([]atomic.Int32, 16*16)
		For(16, nestJob{hits})
		for i := range hits {
			if h := hits[i].Load(); h != 1 {
				t.Fatalf("inner job %d ran %d times", i, h)
			}
		}
	}
}

// stackJob checks that it runs with fn on its goroutine's stack.
type stackJob struct {
	t  *testing.T
	fn string
}

func (j stackJob) Run(i int) {
	pcs := make([]uintptr, 32)
	frames := runtime.CallersFrames(pcs[:runtime.Callers(1, pcs)])
	for {
		f, more := frames.Next()
		if strings.HasSuffix(f.Function, j.fn) {
			return
		}
		if !more {
			j.t.Errorf("job %d ran on another goroutine", i)
			return
		}
	}
}

// TestGOMAXPROCSIsReadEachFanOut: lowered to 1 at run time (a CPU quota of
// one on a machine of any size), every job runs on the caller's stack with no
// helper and no allocation; raised again, the next fan-out has helpers again.
func TestGOMAXPROCSIsReadEachFanOut(t *testing.T) {
	p := grow(t)
	runtime.GOMAXPROCS(1)
	For(64, stackJob{t, ".TestGOMAXPROCSIsReadEachFanOut"})
	var peak atomic.Int32
	var sum atomic.Int64
	j := gaugeJob{&peak, &sum}
	allocs := mallocs(100, func() { For(64, j) })
	runtime.GOMAXPROCS(p)
	if peak.Load() != 0 || allocs != 0 {
		t.Fatalf("at GOMAXPROCS(1): %d helpers, %d allocations a fan-out, want none", peak.Load(), allocs)
	}
	if p == 1 {
		return
	}
	for k := 0; k < 1000 && peak.Load() == 0; k++ {
		For(64, j)
	}
	if peak.Load() == 0 {
		t.Fatalf("GOMAXPROCS back at %d: 1000 fan-outs without a helper", p)
	}
}

// mallocs is testing.AllocsPerRun at the GOMAXPROCS in force (AllocsPerRun
// lowers it to 1): the heap objects the process allocates per call of f,
// rounded down like it, so that what the runtime itself allocates now and
// then (a parking worker's sudog, a background collection) does not count.
func mallocs(runs int, f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return (after.Mallocs - before.Mallocs) / uint64(runs)
}

// TestSteadyStateFanOutAllocatesNothing: after the first fan-out of a job
// type has made its box, fan-outs with helpers allocate nothing: no
// goroutine, no WaitGroup, no closure.
func TestSteadyStateFanOutAllocatesNothing(t *testing.T) {
	grow(t)
	var peak atomic.Int32
	var sum atomic.Int64
	j := gaugeJob{&peak, &sum}
	For(64, j)
	if allocs := mallocs(1000, func() { For(64, j) }); allocs != 0 {
		t.Fatalf("a steady-state fan-out allocates %d objects", allocs)
	}
}

// waitParked polls until every worker has parked.
func waitParked(t *testing.T) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		n := 0
		for _, w := range workers {
			if w.inbox.Load() == parked {
				n++
			}
		}
		if n == len(workers) {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d workers parked after 10 s of quiet", n, len(workers))
		}
		time.Sleep(time.Millisecond)
	}
}

// TestIdleWorkersPark: with no fan-out for longer than the spin bound every
// worker is parked (blocked on its wake channel, not runnable), and the
// next fan-out still gets its jobs done and can wake them.
func TestIdleWorkersPark(t *testing.T) {
	p := grow(t)
	var peak atomic.Int32
	var sum atomic.Int64
	For(64, gaugeJob{&peak, &sum})
	waitParked(t)
	peak.Store(0)
	for k := 0; k < 1000 && peak.Load() == 0; k++ {
		For(64, gaugeJob{&peak, &sum})
	}
	if p > 1 && peak.Load() == 0 {
		t.Fatalf("parked workers never rejoined in 1000 fan-outs")
	}
	waitParked(t)
}

// boomJob panics in one job and counts the rest.
type boomJob struct {
	at   int
	runs *atomic.Int32
}

func (j boomJob) Run(i int) {
	if i == j.at {
		panic(fmt.Sprintf("boom %d", i))
	}
	j.runs.Add(1)
	time.Sleep(10 * time.Microsecond) // keep the helper in the loop
}

// TestPanicIsRaisedOnTheCaller: wherever the panicking job ran, the caller
// gets the panic value after every helper has stopped, and the pool serves
// the next fan-out at full strength.
func TestPanicIsRaisedOnTheCaller(t *testing.T) {
	grow(t)
	for rep := 0; rep < 200; rep++ {
		at := rep % 64
		var runs atomic.Int32
		func() {
			defer func() {
				if r := recover(); r != fmt.Sprintf("boom %d", at) {
					t.Fatalf("recovered %v, want boom %d", r, at)
				}
				if h := helping.Load(); h != 0 {
					t.Fatalf("%d helpers still busy when the panic reached the caller", h)
				}
			}()
			For(64, boomJob{at, &runs})
			t.Fatalf("For returned normally past a panicking job")
		}()
		before := runs.Load()
		time.Sleep(50 * time.Microsecond)
		if runs.Load() != before {
			t.Fatalf("a helper was still running jobs after For panicked")
		}
	}
	j := hitJob{hits: make([]atomic.Int32, 1025)}
	For(len(j.hits), j)
	for i := range j.hits {
		if j.hits[i].Load() != 1 {
			t.Fatalf("after the panics: job %d ran %d times", i, j.hits[i].Load())
		}
	}
}

type addJob struct{ sink *atomic.Int64 }

func (j addJob) Run(i int) { j.sink.Add(int64(i)) }

// BenchmarkForDispatch isolates the fan-out's own cost: many tiny jobs.
func BenchmarkForDispatch(b *testing.B) {
	var sink atomic.Int64
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		For(1024, addJob{&sink})
	}
}

// BenchmarkForBackToBack is a request's shape: fan-out after fan-out of a
// few microseconds of work each, nothing between them.
func BenchmarkForBackToBack(b *testing.B) {
	for _, iters := range []int{500, 4000, 32000} {
		b.Run(fmt.Sprint(iters), func(b *testing.B) {
			var sink atomic.Int64
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				For(16, spinJob{&sink, iters})
			}
		})
	}
}

type spinJob struct {
	sink  *atomic.Int64
	iters int
}

func (j spinJob) Run(i int) {
	s := int64(0)
	for k := 0; k < j.iters; k++ {
		s += int64(k ^ i)
	}
	j.sink.Add(s)
}
