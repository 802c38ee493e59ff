package main

import (
	"testing"
	"time"
)

// With both connections busy, a request that falls due waits in the
// generator, and that wait counts in its latency and its lateness.
func TestOpenLoopChargesQueueingToLateRequests(t *testing.T) {
	const busy = 60 * time.Millisecond
	ops := []op{{due: 0}, {due: 0, arg: 1}, {due: 10 * time.Millisecond, arg: 2}}
	outs, backlog := openLoop(ops, 2, func(o op) error {
		time.Sleep(busy)
		return nil
	})
	for i, o := range outs[:2] {
		if o.late() > 20*time.Millisecond {
			t.Errorf("op %d started %v late with a connection free", i, o.late())
		}
	}
	third := outs[2]
	if third.arg != 2 {
		t.Fatalf("outcomes out of schedule order: %+v", outs)
	}
	// Due at 10ms, a connection frees at ~60ms: ~50ms late, and its
	// latency is the wait plus its own 60ms.
	if late := third.late(); late < busy-15*time.Millisecond || late > busy+100*time.Millisecond {
		t.Errorf("third op late %v, want about %v", late, busy-10*time.Millisecond)
	}
	if lat := third.latency(); lat < third.late()+busy || lat != third.end-third.due {
		t.Errorf("third op latency %v does not count from its due time (late %v)", lat, third.late())
	}
	if backlog < 1 {
		t.Errorf("backlog max %d, want at least the one queued op", backlog)
	}
}

func TestOpenLoopKeepsScheduleWhenIdle(t *testing.T) {
	ops := evenSchedule(5, 50*time.Millisecond, kindInfer)
	start := time.Now()
	outs, backlog := openLoop(ops, 2, func(op) error { return nil })
	if took := time.Since(start); took < 40*time.Millisecond {
		t.Errorf("schedule of 50ms finished in %v: ops were not held until due", took)
	}
	for i, o := range outs {
		if o.start < o.due {
			t.Errorf("op %d started %v before it was due", i, o.due-o.start)
		}
	}
	if backlog > 1 {
		t.Errorf("backlog %d on an idle system", backlog)
	}
}
