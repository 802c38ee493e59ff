package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"rpeer/internal/admission"
	"rpeer/internal/host"
	"rpeer/internal/worldfile"
	"rpeer/pkg/rpi"
	"rpeer/pkg/rpi/serve"
)

// The serve-mix-1x ladder. Offered read rates (requests per second
// over both tenants) step through serveLadder; applies run beside the
// reads at writeRate. The nominal rung is where latency is reported;
// slo_max_rps is the highest rung whose read p99 stays within
// readP99Limit without a growing backlog.
var serveLadder = []float64{100, 200, 400, 800}

const (
	nominalRung  = 1
	writeRate    = 2.0 // applies per second over both tenants
	readP99Limit = 100 * time.Millisecond
	serveTenants = 2
	mixIXPs      = 4 // per-IXP reads spread over each tenant's largest IXPs
	// inferShare is the share of reads that fetch the full report; the
	// rest fetch one IXP's report.
	inferShare = 0.5
)

const (
	kindInfer = iota
	kindReport
	kindApply
)

// serveMix is serve-mix-1x: an open loop against an in-process
// serve.HostServer holding two tenants with 1x worlds, over at most
// nproc client connections. Reads are cached full reports and per-IXP
// reports (filtered and marshaled per request); applies run beside
// them at a low fixed rate and invalidate the report byte cache, so
// rpi marshal runs on both paths. Admission, the host and the serving
// plane do the work; the cold path does none.
//
// The timed operation (latency_*) is a read at the nominal rung. Set-up
// is opening the host, creating both tenants and warming each with one
// read of each kind.
func serveMix(r *run) error {
	const scale = 1
	paths := make([]string, serveTenants)
	fps := make([]string, serveTenants)
	for t := range paths {
		p, fp, err := r.cache.ensure(r.seed+int64(t), scale)
		if err != nil {
			return err
		}
		paths[t], fps[t] = p, fmt.Sprintf("%016x", fp)
	}
	r.prov["fingerprint"] = fps
	r.prov["scale"] = scale

	clients, err := mixClients(r, paths)
	if err != nil {
		return err
	}
	var (
		sv     *serveEnv
		setups []float64
	)
	for i := 0; i < setupReps; i++ {
		if sv != nil {
			if err := sv.close(); err != nil {
				return err
			}
		}
		settle()
		start := time.Now()
		if sv, err = newServeEnv(r, paths, clients); err != nil {
			return err
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	defer sv.close()
	r.set("setup_s", r.record("setup_s", setups).P50)

	budget := r.seconds
	if r.trace {
		budget /= 2
	}
	rungs := sv.ladder(budget)
	nom := rungs[nominalRung]
	r.set("latency_p50_ms", at(nom.readMs, 50))
	r.set("read_p50_ms", at(nom.readMs, 50))
	r.set("read_p99_ms", at(nom.readMs, 99))
	r.set("write_p99_ms", at(nom.writeMs, 99))
	r.set("loadgen.late_p99_ms", at(nom.lateMs, 99))
	r.set("loadgen.backlog_max", float64(nom.backlogMax))
	r.set("serve.reads_per_publication", float64(nom.infers)/float64(nom.writes+1))
	slo := 0.0
	for _, g := range rungs {
		if g.pass {
			slo = g.rate
		}
	}
	r.set("slo_max_rps", slo)
	sv.reportAdmission(rungs)
	if err := sv.finalGate(); err != nil {
		return err
	}
	if r.trace {
		return sv.traced(at(nom.readMs, 50))
	}
	return nil
}

// serveEnv is one host, its HTTP front end and the client side.
type serveEnv struct {
	r       *run
	dir     string
	h       *host.Host
	srv     *serve.HostServer
	ts      *httptest.Server
	client  *http.Client
	workers int
	tenants []*tenantClient

	// spans, when set, wraps every request's handler in a span.
	spans atomic.Bool
}

// tenantClient is one tenant as the client sees it: its mix IXPs and
// the apply bodies it alternates, serialized per tenant (a client does
// not race its own writes).
type tenantClient struct {
	name   string
	ixps   []string
	bodies [2][]byte
	mu     sync.Mutex
	n      int
}

// mixClients prepares each tenant's client side (its mix IXPs and
// apply bodies) from its world, outside any timed phase.
func mixClients(r *run, paths []string) ([]tenantClient, error) {
	out := make([]tenantClient, len(paths))
	for t, path := range paths {
		base, err := worldfile.Load(path)
		if err != nil {
			return nil, err
		}
		tc := &out[t]
		tc.name, tc.ixps = "t"+strconv.Itoa(t), largestIXPs(base, mixIXPs)
		d := rpi.ChurnDelta(base, churnFrac, r.seed+int64(t))
		for i, dd := range []rpi.Delta{d, rpi.InvertDelta(base, d)} {
			if tc.bodies[i], err = wireDelta(dd); err != nil {
				return nil, err
			}
		}
	}
	return out, nil
}

// newServeEnv opens a host over a fresh directory, serves it, creates
// one tenant per world and warms each with one read of each kind.
func newServeEnv(r *run, paths []string, clients []tenantClient) (sv *serveEnv, err error) {
	dir, err := r.tempDir("serve")
	if err != nil {
		return nil, err
	}
	quiet := log.New(io.Discard, "", 0)
	h, err := host.Open(host.Config{
		Dir:    dir,
		Logger: quiet,
		Inputs: func(sp host.TenantSpec) (rpi.Inputs, error) {
			return worldfile.Load(paths[int(sp.Seed-r.seed)])
		},
	})
	if err != nil {
		return nil, err
	}
	sv = &serveEnv{r: r, dir: dir, h: h, workers: runtime.NumCPU()}
	sv.srv = serve.NewHost(h, "", serve.Config{Logger: quiet})
	sv.ts = httptest.NewServer(http.HandlerFunc(sv.serveHTTP))
	sv.client = &http.Client{Transport: &http.Transport{
		MaxConnsPerHost: sv.workers, MaxIdleConnsPerHost: sv.workers,
	}}
	defer func() {
		if err != nil {
			_ = sv.close() // the set-up error is the one to report
		}
	}()
	for t := range clients {
		tc := &tenantClient{name: clients[t].name, ixps: clients[t].ixps, bodies: clients[t].bodies}
		if err := h.Create(host.TenantSpec{Name: tc.name, Seed: r.seed + int64(t), Profile: "bench"}); err != nil {
			return sv, err
		}
		sv.tenants = append(sv.tenants, tc)
		for _, o := range []op{{kind: kindInfer, arg: t}, {kind: kindReport, arg: t}} {
			if err := sv.do(o); err != nil {
				return sv, fmt.Errorf("warm-up: %w", err)
			}
		}
	}
	return sv, nil
}

func (sv *serveEnv) close() error {
	sv.ts.Close()
	sv.client.CloseIdleConnections()
	err := sv.h.Close()
	if rerr := os.RemoveAll(sv.dir); err == nil {
		err = rerr
	}
	return err
}

// serveHTTP is the server's handler: the HostServer, with a span around
// each request when tracing.
func (sv *serveEnv) serveHTTP(w http.ResponseWriter, req *http.Request) {
	if !sv.spans.Load() {
		sv.srv.ServeHTTP(w, req)
		return
	}
	id, _ := strconv.Atoi(req.Header.Get("X-Bench-Span"))
	trace, _ := strconv.Atoi(req.Header.Get("X-Bench-Trace"))
	name := "serve.handler"
	if req.Method != http.MethodGet {
		name = "serve.handler_write"
	}
	sv.r.tracer.do(trace, id, name, func() { sv.srv.ServeHTTP(w, req) })
}

// largestIXPs returns the n IXPs with the most memberships in the
// dataset (ties by name).
func largestIXPs(in rpi.Inputs, n int) []string {
	count := map[string]int{}
	for _, name := range in.Dataset.IfaceIXP {
		count[name]++
	}
	names := make([]string, 0, len(count))
	for name := range count {
		names = append(names, name)
	}
	sort.Slice(names, func(i, j int) bool {
		if count[names[i]] != count[names[j]] {
			return count[names[i]] > count[names[j]]
		}
		return names[i] < names[j]
	})
	return names[:min(n, len(names))]
}

func wireDelta(d rpi.Delta) ([]byte, error) {
	var wd serve.WireDelta
	for _, j := range d.Joins {
		wd.Joins = append(wd.Joins, serve.WireJoin{IXP: j.IXP, Iface: j.Iface.String(), ASN: uint32(j.ASN), PortMbps: j.PortMbps})
	}
	for _, l := range d.Leaves {
		wd.Leaves = append(wd.Leaves, serve.WireKey{IXP: l.IXP, Iface: l.Iface.String()})
	}
	return json.Marshal(wd)
}

// do performs one request and fails on any status but 200.
func (sv *serveEnv) do(o op) error {
	return sv.doTraced(o, 0, 0)
}

func (sv *serveEnv) doTraced(o op, trace, parent int) error {
	tc := sv.tenants[o.arg%len(sv.tenants)]
	var req *http.Request
	var err error
	switch o.kind {
	case kindInfer:
		req, err = http.NewRequest(http.MethodGet, sv.ts.URL+"/v1/t/"+tc.name+"/infer", nil)
	case kindReport:
		ixp := tc.ixps[(o.arg/len(sv.tenants))%len(tc.ixps)]
		req, err = http.NewRequest(http.MethodGet, sv.ts.URL+"/v1/t/"+tc.name+"/report/"+ixp, nil)
	case kindApply:
		// Hold the tenant's lock across the request: its deltas and
		// their inverses must land in order.
		tc.mu.Lock()
		defer tc.mu.Unlock()
		req, err = http.NewRequest(http.MethodPost, sv.ts.URL+"/v1/t/"+tc.name+"/apply", bytes.NewReader(tc.bodies[tc.n%2]))
	}
	if err != nil {
		return err
	}
	if parent != 0 {
		req.Header.Set("X-Bench-Span", strconv.Itoa(parent))
		req.Header.Set("X-Bench-Trace", strconv.Itoa(trace))
	}
	resp, err := sv.client.Do(req)
	if err != nil {
		return err
	}
	_, cerr := io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s %s: status %d", req.Method, req.URL.Path, resp.StatusCode)
	}
	if o.kind == kindApply {
		tc.n++
	}
	return cerr
}

// schedule builds one rung's ops: reads at rate over d, evenly spaced,
// each a full or per-IXP read of a seeded tenant and IXP, with applies
// evenly spaced among them at writeRate.
func schedule(rng *rand.Rand, rate float64, d time.Duration, tenants int) []op {
	reads := evenSchedule(int(rate*d.Seconds()), d, kindInfer)
	for i := range reads {
		if rng.Float64() >= inferShare {
			reads[i].kind = kindReport
		}
		reads[i].arg = rng.Intn(tenants * mixIXPs)
	}
	writes := evenSchedule(max(1, int(writeRate*d.Seconds())), d, kindApply)
	for i := range writes {
		writes[i].due += d / time.Duration(2*len(writes)) // between reads, not on the first
		writes[i].arg = i % tenants
	}
	ops := append(reads, writes...)
	sort.SliceStable(ops, func(i, j int) bool { return ops[i].due < ops[j].due })
	return ops
}

// rung is one step of the ladder and what it measured.
type rung struct {
	rate                    float64
	readMs, writeMs, lateMs []float64
	infers, writes          int
	backlogMax              int
	pass                    bool
	admission               admission.Stats
	queuedMax               map[string]int64
}

// ladder runs every rung for an equal share of budget seconds.
func (sv *serveEnv) ladder(budget float64) []*rung {
	r := sv.r
	rng := rand.New(rand.NewSource(r.seed))
	d := time.Duration(budget / float64(len(serveLadder)) * float64(time.Second))
	var rungs []*rung
	var rungProv []map[string]any
	for _, rate := range serveLadder {
		g := &rung{rate: rate}
		ops := schedule(rng, rate, d, len(sv.tenants))
		stop := sv.sampleQueued(g)
		outs, backlog := openLoop(ops, sv.workers, sv.do)
		stop()
		g.backlogMax = backlog
		g.admission = sv.srv.Admission().Stats()
		var lateTail []float64
		for i, o := range outs {
			r.attempted++
			if o.err != nil {
				r.failed++
				r.logf("rung %.0f/s: %v", rate, o.err)
				continue
			}
			ms := float64(o.latency().Nanoseconds()) / 1e6
			late := float64(o.late().Nanoseconds()) / 1e6
			g.lateMs = append(g.lateMs, late)
			if i >= len(outs)*3/4 {
				lateTail = append(lateTail, late)
			}
			switch o.kind {
			case kindApply:
				g.writeMs = append(g.writeMs, ms)
				g.writes++
			case kindInfer:
				g.infers++
				g.readMs = append(g.readMs, ms)
			default:
				g.readMs = append(g.readMs, ms)
			}
		}
		p99 := at(g.readMs, 99)
		// A growing backlog shows as requests in the rung's last
		// quarter starting later than the latency limit allows.
		g.pass = p99 <= float64(readP99Limit.Milliseconds()) && median(lateTail) <= float64(readP99Limit.Milliseconds())
		name := fmt.Sprintf("rung%.0f", rate)
		r.record(name+".read_ms", g.readMs)
		r.record(name+".write_ms", g.writeMs)
		r.record(name+".late_ms", g.lateMs)
		rungProv = append(rungProv, map[string]any{
			"rate": rate, "seconds": d.Seconds(), "pass": g.pass, "read_p99_ms": p99, "backlog_max": backlog,
			"admission": g.admission, "admission_tenants": sv.srv.Admission().TenantStats(), "queued_max": g.queuedMax,
		})
		rungs = append(rungs, g)
	}
	r.prov["rungs"] = rungProv
	r.prov["read_p99_limit_ms"] = readP99Limit.Milliseconds()
	return rungs
}

// sampleQueued polls the admission controller's queue gauges while a
// rung runs and keeps each class's maximum; the returned function
// stops the poller and waits for it.
func (sv *serveEnv) sampleQueued(g *rung) func() {
	g.queuedMax = map[string]int64{}
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-done:
				return
			case <-tick.C:
				for cl, s := range sv.srv.Admission().Stats() {
					g.queuedMax[cl] = max(g.queuedMax[cl], s.Queued)
				}
			}
		}
	}()
	return func() { close(done); wg.Wait() }
}

// reportAdmission sets the admission counters after the ladder: the
// cumulative admitted and shed counts, and the deepest queue seen.
func (sv *serveEnv) reportAdmission(rungs []*rung) {
	st := sv.srv.Admission().Stats()
	for _, cl := range []string{"read", "cheap", "write"} {
		sv.r.set("admission."+cl+".admitted", float64(st[cl].Admitted))
		sv.r.set("admission."+cl+".shed", float64(st[cl].Shed))
		queued := int64(0)
		for _, g := range rungs {
			queued = max(queued, g.queuedMax[cl])
		}
		sv.r.set("admission."+cl+".queued", float64(queued))
	}
}

// finalGate checks that each tenant's served full report is its
// engine's report.
func (sv *serveEnv) finalGate() error {
	for _, tc := range sv.tenants {
		resp, err := sv.client.Get(sv.ts.URL + "/v1/t/" + tc.name + "/infer")
		if err != nil {
			return err
		}
		got, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return err
		}
		lease, err := sv.h.Lease(context.Background(), tc.name)
		if err != nil {
			return err
		}
		want, err := rpi.MarshalReport(lease.Guard().Engine().Snapshot())
		lease.Release()
		if err != nil {
			return err
		}
		sv.r.check("served_report_"+tc.name, resp.StatusCode == http.StatusOK && bytes.Equal(got, want),
			"tenant %s served %d bytes (status %d) that differ from its engine's report (%d bytes)",
			tc.name, len(got), resp.StatusCode, len(want))
	}
	return nil
}

// traced runs the nominal rung again with a span around each request
// on both sides of the connection, then times the host lease and the
// per-IXP report path directly.
func (sv *serveEnv) traced(untracedP50 float64) error {
	r, tr := sv.r, sv.r.tracer
	rate := serveLadder[nominalRung]
	d := time.Duration(r.seconds / 2 / float64(len(serveLadder)) * float64(time.Second))
	ops := schedule(rand.New(rand.NewSource(r.seed+1)), rate, d, len(sv.tenants))
	sv.spans.Store(true)
	root, end := tr.begin(0, 0, "rung")
	var next atomic.Int64
	outs, _ := openLoop(ops, sv.workers, func(o op) error {
		id := next.Add(1)
		sp, endReq := tr.begin(int(id), root, "loadgen.request")
		defer endReq()
		return sv.doTraced(o, int(id), sp)
	})
	end()
	sv.spans.Store(false)
	var readMs []float64
	for _, o := range outs {
		r.attempted++
		if o.err != nil {
			r.failed++
			continue
		}
		if o.kind != kindApply {
			readMs = append(readMs, float64(o.latency().Nanoseconds())/1e6)
		}
	}
	r.record("traced_read_ms", readMs)

	ctx := context.Background()
	for i := 0; i < 2000; i++ {
		tc := sv.tenants[i%len(sv.tenants)]
		var err error
		tr.do(-1, 0, "host.lease", func() {
			var l *host.Lease
			if l, err = sv.h.Lease(ctx, tc.name); err == nil {
				l.Release()
			}
		})
		if err != nil {
			return err
		}
	}
	for i := 0; i < 40; i++ {
		tc := sv.tenants[i%len(sv.tenants)]
		lease, err := sv.h.Lease(ctx, tc.name)
		if err != nil {
			return err
		}
		eng := lease.Guard().Engine()
		tr.do(-2, 0, "rpi.report_for", func() {
			var rep *rpi.Report
			if rep, err = eng.ReportFor(ctx, tc.ixps[i/len(sv.tenants)%len(tc.ixps)]); err == nil {
				_, err = rpi.MarshalReport(rep)
			}
		})
		lease.Release()
		if err != nil {
			return err
		}
	}

	spans := tr.snapshot()
	ls := aggregate(spans)
	r.set("host.lease_ms", 1000*ls.medianSelf("host.lease"))
	r.set("rpi.report_for_ms", 1000*ls.medianSelf("rpi.report_for"))
	var handler []float64
	for _, s := range spans {
		if s.Name == "serve.handler" {
			handler = append(handler, 1000*s.dur().Seconds())
		}
	}
	r.set("serve.handler_ms", r.record("serve_handler_ms", handler).P50)
	r.set("trace.overhead_pct", 100*(median(readMs)-untracedP50)/untracedP50)
	setGoLayer(r, spans, []int{root})
	return nil
}
