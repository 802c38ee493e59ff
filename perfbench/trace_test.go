package main

import (
	"testing"
	"time"
)

func TestSelfTimeSubtractsUnionOfChildren(t *testing.T) {
	ms := func(v int) time.Duration { return time.Duration(v) * time.Millisecond }
	spans := []span{
		{ID: 1, Name: "root", Start: ms(0), End: ms(100), AllocBytes: 1000},
		// Two overlapping children (concurrent calls) cover 10..50 once.
		{ID: 2, Parent: 1, Name: "a", Start: ms(10), End: ms(30), AllocBytes: 300},
		{ID: 3, Parent: 1, Name: "b", Start: ms(20), End: ms(50), AllocBytes: 200},
		// A child running past its parent counts only inside it.
		{ID: 4, Parent: 1, Name: "c", Start: ms(90), End: ms(120)},
		// A grandchild is its child's business, not the root's.
		{ID: 5, Parent: 3, Name: "d", Start: ms(25), End: ms(45), AllocBytes: 50},
	}
	if got, want := selfTime(spans, 1), ms(50); got != want {
		t.Errorf("root self time %v, want %v", got, want)
	}
	if got, want := childCover(spans, 1), ms(50); got != want {
		t.Errorf("root child cover %v, want %v", got, want)
	}
	if got, want := selfTime(spans, 3), ms(10); got != want {
		t.Errorf("b self time %v, want %v", got, want)
	}
	ls := aggregate(spans)
	if got := ls.Self["a"][0]; got != ms(20) {
		t.Errorf("aggregated self of a %v, want 20ms", got)
	}
	if got := ls.Alloc["root"][0]; got != 500 {
		t.Errorf("root self alloc %d, want 500", got)
	}
	if got := ls.Alloc["b"][0]; got != 150 {
		t.Errorf("b self alloc %d, want 150", got)
	}
}

func TestTracerRecordsNestedSpans(t *testing.T) {
	tr := newTracer()
	root, end := tr.begin(7, 0, "root")
	child := tr.do(7, root, "child", func() { time.Sleep(2 * time.Millisecond) })
	end()
	spans := tr.snapshot()
	if len(spans) != 2 || spans[child-1].Parent != root || spans[child-1].Trace != 7 {
		t.Fatalf("spans %+v", spans)
	}
	if spans[root-1].End < spans[child-1].End {
		t.Error("root ended before its child")
	}
	if selfTime(spans, root) >= spans[root-1].dur() {
		t.Error("root self time does not exclude its child")
	}
}
