package main

import (
	"sync"
	"sync/atomic"
	"time"
)

// op is one request of an open-loop schedule, due at an offset from
// the schedule's start.
type op struct {
	due  time.Duration
	kind int
	arg  int
}

// outcome is what happened to one op. Latency is counted from when
// the op was due, so a stall also charges the requests that queued
// behind it; late is how long after its due time the op started.
type outcome struct {
	op
	start, end time.Duration
	err        error
}

func (o outcome) latency() time.Duration { return o.end - o.due }
func (o outcome) late() time.Duration    { return o.start - o.due }

// openLoop issues ops on their schedule, whatever the state of the
// system: each op is handed, when due, to the first of workers free
// connections, and waits in the generator's queue while all are busy. It
// returns every op's outcome (in schedule order) and the largest
// number of ops that were due but not yet started.
func openLoop(ops []op, workers int, do func(op) error) ([]outcome, int) {
	out := make([]outcome, len(ops))
	// Buffered to the number of sends: the dispatcher never blocks, so
	// a queue builds here, not in the schedule.
	queue := make(chan int, len(ops))
	var started, dispatched atomic.Int64
	var backlogMax atomic.Int64
	noteBacklog := func() {
		b := dispatched.Load() - started.Load()
		for {
			cur := backlogMax.Load()
			if b <= cur || backlogMax.CompareAndSwap(cur, b) {
				return
			}
		}
	}
	t0 := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range queue {
				started.Add(1)
				o := &out[i]
				o.start = time.Since(t0)
				o.err = do(o.op)
				o.end = time.Since(t0)
			}
		}()
	}
	for i, x := range ops {
		out[i].op = x
		if wait := x.due - time.Since(t0); wait > 0 {
			time.Sleep(wait)
		}
		dispatched.Add(1)
		noteBacklog()
		queue <- i
	}
	close(queue)
	wg.Wait()
	return out, int(backlogMax.Load())
}

// evenSchedule spaces n ops of one kind evenly over d.
func evenSchedule(n int, d time.Duration, kind int) []op {
	ops := make([]op, n)
	for i := range ops {
		ops[i] = op{due: time.Duration(i) * d / time.Duration(n), kind: kind}
	}
	return ops
}
