// Package par is the process's one host fan-out: For runs the jobs of a
// data-parallel loop on the calling goroutine and on whichever of a fixed set
// of persistent workers are idle, because spawning goroutines per fan-out
// pays a thread wake-up each time, which costs a small layer more than the
// layer (DESIGN.md, "Host threading model"). How wide a fan-out goes is
// decided per run, not per call and not by an option: a run brackets itself
// with Enter and Exit as a compute stream, and the helpers busy across the
// process never exceed GOMAXPROCS minus the streams running. One stream has
// every core; as many streams as cores each loop on their own core.
package par

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Job is the body of a fan-out: Run(i) is job i. A job type is a struct of
// what its jobs read, passed to For by value with Run on the value: the copy
// the helpers see lives in a recycled box, so a steady-state fan-out
// allocates nothing, which a closure shared with another goroutine cannot
// do. Jobs are independent: which goroutine runs which is not defined.
type Job interface{ Run(i int) }

// spinYields bounds how long an idle worker stays runnable, yielding, before
// it parks (about 100 µs of a spare core): the next fan-out of a request, or
// the next request of a busy client, finds it awake, and a process with
// nothing to do burns nothing.
const spinYields = 1000

var (
	workers []*worker    // started by init, one fewer than GOMAXPROCS
	cores   atomic.Int32 // the workers and a caller: the cores counted at start
	streams atomic.Int32 // runs between Enter and Exit
	helping atomic.Int32 // workers invited to or running a fan-out
	boxes   sync.Map     // (*box[J])(nil) -> chan any, the free boxes of one job type

	parked, busy = new(fanout), new(fanout) // inbox marks, never run
)

// worker is a persistent helper. Its inbox is nil while it spins idle,
// parked while it sleeps on wake, a fan-out while invited to it, busy while
// running its jobs. Every change is a compare-and-swap, so an invitation is
// accepted by the worker or taken back by the inviter, never both.
type worker struct {
	inbox atomic.Pointer[fanout]
	wake  chan struct{} // one token per parked mark an inviter replaces
}

func init() { start(runtime.GOMAXPROCS(0) - 1) }

// start grows the pool to n workers. Outside tests only init calls it, so a
// process's goroutine count is constant from before main.
func start(n int) {
	for len(workers) < n {
		w := &worker{wake: make(chan struct{}, 1)}
		workers = append(workers, w)
		go w.loop()
	}
	cores.Store(int32(len(workers) + 1))
}

func (w *worker) loop() {
	for idle := 0; ; idle++ {
		if f := w.inbox.Load(); f != nil {
			if w.inbox.CompareAndSwap(f, busy) {
				f.help(w)
			}
			idle = 0
		} else if idle < spinYields && streams.Load() < cores.Load() {
			runtime.Gosched() // a core is spare: stay awake, yield to whatever is queued
		} else if w.inbox.CompareAndSwap(nil, parked) {
			<-w.wake
			idle = 0
		}
	}
}

// Enter marks the start of a run whose fan-outs share the cores with the
// other runs in flight, Exit (deferred) its end, and Streams counts the runs
// between the two. Fan-outs outside any stream (tests, one-shot tools) count
// together as one.
func Enter()       { streams.Add(1) }
func Exit()        { streams.Add(-1) }
func Streams() int { return int(streams.Load()) }

// fanout is what one For shares with its helpers.
type fanout struct {
	task     interface{ drain() } // the box this is embedded in
	n, chunk int
	next     atomic.Int64        // first unclaimed job
	done     atomic.Int32        // helpers that have left
	panicked atomic.Pointer[any] // the first panic on a helper
}

// box is a fan-out with its job, recycled through its job type's channel.
type box[J Job] struct {
	fanout
	job J
}

// drain claims and runs jobs until none are left: a few to a claim, so that
// a late helper still balances the load and small jobs share the counter.
func (b *box[J]) drain() {
	for hi := 0; hi < b.n; {
		hi = int(b.next.Add(int64(b.chunk)))
		for i := hi - b.chunk; i < min(hi, b.n); i++ {
			b.job.Run(i)
		}
	}
}

// For runs job.Run(i) for every i in [0,n) and returns when all are done, the
// caller working beside the helpers it found. A panic in any job stops the
// hand-out of further jobs and is raised on the caller once every helper has
// stopped.
func For[J Job](n int, job J) {
	// spare: the helpers the process may have busy, a core each less the streams'.
	spare := min(runtime.GOMAXPROCS(0), int(cores.Load())) - max(1, int(streams.Load()))
	if n < 2 || spare < 1 || int(helping.Load()) >= spare {
		for i := 0; i < n; i++ {
			job.Run(i)
		}
		return
	}
	b := (*box[J])(nil)
	v, ok := boxes.Load(b)
	if !ok { // a box per worker is as many as can have helpers at once
		v, _ = boxes.LoadOrStore(b, make(chan any, len(workers)))
	}
	free := v.(chan any)
	select {
	case got := <-free:
		b = got.(*box[J])
	default:
		b = new(box[J])
		b.task = b
	}
	b.job = job
	b.fan(n, spare)
	b.job = *new(J)
	select {
	case free <- b:
	default:
	}
	if r := b.panicked.Swap(nil); r != nil {
		panic(*r)
	}
}

// fan invites idle workers while the process is under its limit of busy
// helpers, works through the jobs beside them, takes back the invitations
// nobody accepted and waits for the helpers that did accept.
func (f *fanout) fan(n, spare int) {
	f.n, f.chunk = n, max(1, n/(8*(spare+1)))
	f.next.Store(0)
	f.done.Store(0)
	invited := 0
	for i := 0; i < len(workers) && invited < min(spare, n-1); i++ {
		w := workers[i]
		under := int(helping.Add(1)) <= spare
		if under && w.inbox.CompareAndSwap(nil, f) {
			invited++
		} else if under && w.inbox.CompareAndSwap(parked, f) {
			w.wake <- struct{}{}
			invited++
		} else {
			helping.Add(-1)
		}
	}
	defer func() { // also when a job of the caller's own panics
		f.next.Store(int64(n))
		for _, w := range workers {
			if w.inbox.CompareAndSwap(f, nil) {
				helping.Add(-1)
				invited--
			}
		}
		for int(f.done.Load()) < invited {
			runtime.Gosched()
		}
	}()
	f.task.drain()
}

// help is a worker's side of a fan-out. It frees itself before it reports
// done, its last touch of f, so that the caller's next fan-out finds it idle.
func (f *fanout) help(w *worker) {
	defer func() {
		if r := recover(); r != nil {
			r := r // on the heap only when there is a panic to carry
			f.next.Store(int64(f.n))
			f.panicked.CompareAndSwap(nil, &r)
		}
		w.inbox.Store(nil)
		helping.Add(-1)
		f.done.Add(1)
	}()
	f.task.drain()
}
