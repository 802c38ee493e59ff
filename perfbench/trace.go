package main

import (
	"encoding/json"
	"os"
	"runtime/metrics"
	"sort"
	"sync"
	"time"
)

// A span is one call into a layer, recorded by the benchmark around
// the call (the program itself is not instrumented). Spans with the
// same Trace belong to one repetition or one request; Parent is the
// span that caused this one (0 for a root).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Trace  int    `json:"trace"`
	Name   string `json:"name"`
	// Start and End are offsets from the tracer's epoch.
	Start time.Duration `json:"start_ns"`
	End   time.Duration `json:"end_ns"`
	// The go layer: process-wide allocation and GC work between the
	// span's start and end.
	AllocBytes uint64  `json:"alloc_bytes"`
	GCCycles   uint64  `json:"gc_cycles"`
	GCCPU      float64 `json:"gc_cpu_s"`
}

func (s *span) dur() time.Duration { return s.End - s.Start }

// goStats is a runtime/metrics reading (no stop-the-world, unlike
// runtime.ReadMemStats, so it is cheap enough around every span).
type goStats struct {
	alloc, cycles uint64
	gcCPU         float64
}

var goMetricNames = []string{
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
}

func readGo() goStats {
	s := make([]metrics.Sample, len(goMetricNames))
	for i, n := range goMetricNames {
		s[i].Name = n
	}
	metrics.Read(s)
	var g goStats
	if s[0].Value.Kind() == metrics.KindUint64 {
		g.alloc = s[0].Value.Uint64()
	}
	if s[1].Value.Kind() == metrics.KindUint64 {
		g.cycles = s[1].Value.Uint64()
	}
	if s[2].Value.Kind() == metrics.KindFloat64 {
		g.gcCPU = s[2].Value.Float64()
	}
	return g
}

func (g goStats) sub(o goStats) goStats {
	return goStats{alloc: g.alloc - o.alloc, cycles: g.cycles - o.cycles, gcCPU: g.gcCPU - o.gcCPU}
}

// tracer keeps spans in memory; they are written out once, at the end
// of the run. Safe for concurrent use.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// do runs fn inside a span named name and returns the span's ID.
func (t *tracer) do(trace, parent int, name string, fn func()) int {
	g0 := readGo()
	start := time.Since(t.epoch)
	fn()
	end := time.Since(t.epoch)
	g := readGo().sub(g0)
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{
		ID: id, Parent: parent, Trace: trace, Name: name, Start: start, End: end,
		AllocBytes: g.alloc, GCCycles: g.cycles, GCCPU: g.gcCPU,
	})
	return id
}

// begin opens a span whose end is recorded by the returned function;
// for spans that enclose other spans (parents need their ID before
// their children run).
func (t *tracer) begin(trace, parent int, name string) (id int, end func()) {
	g0 := readGo()
	t.mu.Lock()
	id = len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Trace: trace, Name: name, Start: time.Since(t.epoch)})
	t.mu.Unlock()
	return id, func() {
		endAt := time.Since(t.epoch)
		g := readGo().sub(g0)
		t.mu.Lock()
		defer t.mu.Unlock()
		s := &t.spans[id-1]
		s.End, s.AllocBytes, s.GCCycles, s.GCCPU = endAt, g.alloc, g.cycles, g.gcCPU
	}
}

// snapshot returns a copy of the spans recorded so far.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// selfTime is a span's duration minus the part of its interval that
// its children cover; children that overlap one another (concurrent
// calls) are counted once.
func selfTime(spans []span, id int) time.Duration {
	p := spans[id-1]
	var kids [][2]time.Duration
	for _, s := range spans {
		if s.Parent != id {
			continue
		}
		lo, hi := max(s.Start, p.Start), min(s.End, p.End)
		if hi > lo {
			kids = append(kids, [2]time.Duration{lo, hi})
		}
	}
	return p.dur() - union(kids)
}

// union is the total length of a set of intervals.
func union(iv [][2]time.Duration) time.Duration {
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curLo, curHi time.Duration
	open := false
	for _, x := range iv {
		if open && x[0] <= curHi {
			curHi = max(curHi, x[1])
			continue
		}
		if open {
			total += curHi - curLo
		}
		curLo, curHi, open = x[0], x[1], true
	}
	if open {
		total += curHi - curLo
	}
	return total
}

// childCover is the length of a span's interval covered by its
// children: the part of a root that named layer spans account for.
func childCover(spans []span, id int) time.Duration {
	return spans[id-1].dur() - selfTime(spans, id)
}

// layerStats aggregates self time per span name: for each name, the
// self times of its spans in recording order, and the self allocation.
type layerStats struct {
	Self  map[string][]time.Duration
	Alloc map[string][]uint64
}

func aggregate(spans []span) layerStats {
	ls := layerStats{Self: map[string][]time.Duration{}, Alloc: map[string][]uint64{}}
	for _, s := range spans {
		if s.End < s.Start {
			continue // still open
		}
		ls.Self[s.Name] = append(ls.Self[s.Name], selfTime(spans, s.ID))
		alloc := s.AllocBytes
		for _, c := range spans {
			if c.Parent == s.ID {
				alloc -= min(alloc, c.AllocBytes)
			}
		}
		ls.Alloc[s.Name] = append(ls.Alloc[s.Name], alloc)
	}
	return ls
}

// medianSelf is the median self time of the spans named name, in
// seconds (0 when there are none).
func (ls layerStats) medianSelf(name string) float64 {
	var xs []float64
	for _, d := range ls.Self[name] {
		xs = append(xs, d.Seconds())
	}
	return median(xs)
}

// medianAllocMB is the median self allocation of the spans named name.
func (ls layerStats) medianAllocMB(name string) float64 {
	var xs []float64
	for _, b := range ls.Alloc[name] {
		xs = append(xs, float64(b)/(1<<20))
	}
	return median(xs)
}

// write dumps the spans as JSON.
func (t *tracer) write(path string) error {
	b, err := json.Marshal(t.snapshot())
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// setGoLayer reports the median GC and allocation work per root span.
func setGoLayer(r *run, spans []span, roots []int) {
	var cycles, cpu, alloc []float64
	for _, id := range roots {
		s := spans[id-1]
		cycles = append(cycles, float64(s.GCCycles))
		cpu = append(cpu, s.GCCPU)
		alloc = append(alloc, float64(s.AllocBytes)/(1<<20))
	}
	r.set("go.gc_cycles", median(cycles))
	r.set("go.gc_cpu_s", median(cpu))
	r.set("go.alloc_mb", median(alloc))
}

// coverageThreshold is the largest share of an end-to-end time the
// named spans may leave unexplained.
const coverageThreshold = 0.05

// coverageCheck compares the time named spans explain with the
// untraced median of an end-to-end metric and reports the outcome. A
// miss is reported (on standard error and in the provenance), not
// treated as a correctness failure: it says the trace needs another
// span, not that the program is wrong.
func coverageCheck(r *run, metric string, untraced, attributed float64) map[string]any {
	share := (untraced - attributed) / untraced
	ok := share <= coverageThreshold && share >= -coverageThreshold
	if !ok {
		r.logf("coverage check: named spans explain %.4f of %.4f (%s), %.1f%% unattributed (limit %.0f%%)",
			attributed, untraced, metric, 100*share, 100*coverageThreshold)
	}
	return map[string]any{"metric": metric, "untraced": untraced, "attributed": attributed, "unattributed_share": share, "ok": ok}
}
