package main

// Fault mode (-faults N): the serving plane's liveness proof. The
// traffic is bot.Run's; this file adds only what a load run lacks — a
// consumer that never reads, a deadline storm, the fault loop and its
// per-cycle SLO checks.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"rpeer/internal/admission"
	"rpeer/internal/bot"
	"rpeer/internal/host"
	"rpeer/internal/supervisor"
	"rpeer/internal/wal"
	"rpeer/pkg/rpi"
	"rpeer/pkg/rpi/serve"
)

var quiet = log.New(io.Discard, "", 0)

// faultServe is fault mode's serving plane. Its limits are
// deliberately tiny: the workload must saturate them so the shedding
// path is exercised, not just available.
var faultServe = serve.Config{
	Admission: admission.Config{
		Cheap:  admission.Limits{Slots: 4, Queue: 4, MaxWait: 500 * time.Millisecond},
		Read:   admission.Limits{Slots: 2, Queue: 2, MaxWait: 500 * time.Millisecond},
		Write:  admission.Limits{Slots: 1, Queue: 2, MaxWait: time.Second},
		Stream: admission.Limits{Slots: 2},
	},
	RequestTimeout:     2 * time.Second,
	StreamWriteTimeout: 500 * time.Millisecond,
	StreamBuffer:       2,
	Logger:             quiet,
}

const (
	// recoveryBound caps each of a cycle's waits: for the fault to be
	// observed, for the supervisor to re-open the engine, and for the
	// plane to commit a write again. A tiny world re-opens from its
	// in-memory journal in well under a second even under the race
	// detector; 30 s absorbs a loaded CI runner and still fails a
	// supervisor that never heals.
	recoveryBound = 30 * time.Second
	// readP99Bound caps the p99 of admitted (200) reads. It equals
	// faultServe's request timeout: a read admitted and answered slower
	// than that means deadlines stopped propagating and reads queue
	// without bound instead of being shed.
	readP99Bound = 2 * time.Second
)

// runFaults runs the fault cycles against a one-tenant in-process
// host and asserts the liveness SLOs:
//
//   - each cycle: the injected fault (odd cycles an engine panic
//     mid-apply, even cycles a WAL append failure) quarantines the
//     engine, the supervisor re-opens it from the journal, and the
//     plane commits a write again, each within recoveryBound; the
//     served report is then byte-identical to a cold engine over the
//     tenant's inputs, with no sequence continuity violation;
//   - overall: no protocol violation, one fault and one recovery per
//     cycle, load shedding observed (503 + Retry-After), admitted-read
//     p99 within readP99Bound, and /healthz, /readyz and /v1/infer
//     answering 200 at the end.
func runFaults(ctx context.Context, cycles int, cfg bot.Config, seed int64, worldPath string) error {
	fsys := wal.NewMemFS()
	var armed atomic.Bool // the next apply panics inside the engine
	h, base, shutdown, err := inProcessHost(cfg.Tenants, seed, worldPath, faultServe,
		rpi.WithWALFS(fsys),
		// Append-only fs traffic: an injected fault lands on the log,
		// never on a background snapshot.
		rpi.WithSnapshotEvery(0),
		rpi.WithLogger(quiet),
		rpi.WithApplyHook(func(uint64, rpi.Delta) {
			if armed.CompareAndSwap(true, false) {
				panic("rpi-bot: injected engine fault")
			}
		}))
	if err != nil {
		return err
	}
	defer shutdown()
	tn := cfg.Tenants[0]
	lease, err := h.Lease(ctx, tn) // opens the engine before traffic starts
	if err != nil {
		return err
	}
	g := lease.Guard() // outlives every engine swap (the host never evicts here)
	lease.Release()

	cfg.BaseURL = base
	cfg.Inputs = func(tn string) (rpi.Inputs, error) { return liveInputs(h, tn) }
	cfg.Duration = time.Hour // each cycle's context ends its traffic
	var shed uint64
	var p99Ms float64
	for c := 1; c <= cycles; c++ {
		rep, err := faultCycle(ctx, c, cfg, g, func() {
			if c%2 == 1 {
				log.Printf("cycle %d: injecting engine panic mid-apply", c)
				armed.Store(true)
			} else {
				log.Printf("cycle %d: injecting WAL append failure", c)
				fsys.InjectAt(1, wal.Fault{Mode: wal.FaultError})
			}
		})
		if err != nil {
			return fmt.Errorf("cycle %d: %w", c, err)
		}
		printReport(rep)
		if rep.BadStatus != "" {
			return fmt.Errorf("cycle %d: protocol violation: %s", c, rep.BadStatus)
		}
		for cl, st := range rep.Tenants[tn] {
			shed += st.Shed
			if cl == "read" || cl == "cheap" {
				p99Ms = max(p99Ms, st.P99Ms)
			}
		}
		if err := waitWritable(h, base, tn); err != nil {
			return fmt.Errorf("cycle %d: %w", c, err)
		}
		if err := verifyByteIdentity(h, base, cfg.Tenants); err != nil {
			return fmt.Errorf("cycle %d: byte identity after recovery: %w", c, err)
		}
		if v := g.Stats().ContinuityViolations; v != 0 {
			return fmt.Errorf("cycle %d: %d sequence continuity violations", c, v)
		}
		log.Printf("cycle %d: recovered to writable, state verified (seq %d)", c, g.Engine().Seq())
	}

	if st := g.Stats(); st.Faults != uint64(cycles) || st.Recoveries != uint64(cycles) {
		return fmt.Errorf("fault accounting: %d faults, %d recoveries, want %d each", st.Faults, st.Recoveries, cycles)
	}
	if shed == 0 {
		return fmt.Errorf("load shedding never observed (no 503 with Retry-After)")
	}
	if p99 := time.Duration(p99Ms * float64(time.Millisecond)); p99 > readP99Bound {
		return fmt.Errorf("admitted-read p99 %s exceeds bound %s", p99, readP99Bound)
	}
	cl := &http.Client{Timeout: 10 * time.Second}
	for _, probe := range []string{"/healthz", "/readyz", "/v1/infer"} {
		if _, err := getBody(cl, base+probe); err != nil {
			return fmt.Errorf("final probe: %w", err)
		}
	}
	log.Printf("%d reads, applies and subscriptions shed with Retry-After; admitted-read p99 %.1f ms", shed, p99Ms)
	return nil
}

// faultCycle runs one cycle's traffic — bot.Run plus a stalled
// streamer and a deadline storm — lets it settle, arms the fault, and
// waits for the fault and the recovery with the traffic still running.
// It returns once the traffic has stopped, so no apply is in flight
// when the caller checks the recovered state.
func faultCycle(ctx context.Context, c int, cfg bot.Config, g *supervisor.Guard, arm func()) (*bot.Report, error) {
	ctx, cancel := context.WithCancel(ctx)
	tn := cfg.Tenants[0]
	var rep *bot.Report
	var runErr error
	var wg sync.WaitGroup
	wg.Add(3)
	go func() { defer wg.Done(); rep, runErr = bot.Run(ctx, cfg) }()
	go func() { defer wg.Done(); stalledStreamer(ctx, cfg.BaseURL, tn) }()
	go func() { defer wg.Done(); deadlineStorm(ctx, cfg.BaseURL+"/v1/t/"+tn+"/infer") }()

	time.Sleep(300 * time.Millisecond) // steady-state traffic before the fault
	arm()
	want := uint64(c)
	err := waitStat(g, "fault observed", func(s supervisor.Stats) bool { return s.Faults >= want })
	if err == nil {
		err = waitStat(g, "recovery", func(s supervisor.Stats) bool { return s.Recoveries >= want && !s.Quarantined })
	}
	cancel()
	wg.Wait()
	if err == nil {
		err = runErr
	}
	return rep, err
}

// waitStat polls the guard's stats until ok or recoveryBound expires.
func waitStat(g *supervisor.Guard, what string, ok func(supervisor.Stats) bool) error {
	deadline := time.Now().Add(recoveryBound)
	for !ok(g.Stats()) {
		if time.Now().After(deadline) {
			return fmt.Errorf("%s not reached within %s: %+v", what, recoveryBound, g.Stats())
		}
		time.Sleep(5 * time.Millisecond)
	}
	return nil
}

// waitWritable proves recovery end to end: /readyz answers 200 and one
// churn delta commits, within recoveryBound. The Write class admits
// one apply at a time, so the commit also orders after any apply the
// server was still finishing for a request the traffic abandoned.
func waitWritable(h *host.Host, base, tn string) error {
	cl := &http.Client{Timeout: 5 * time.Second}
	deadline := time.Now().Add(recoveryBound)
	for try := int64(1); ; try++ {
		if _, err := getBody(cl, base+"/readyz"); err == nil {
			in, err := liveInputs(h, tn)
			if err != nil {
				return err
			}
			wd, err := serve.NewWireDelta(rpi.ChurnDelta(in, 0.02, try))
			if err != nil {
				return err
			}
			body, err := json.Marshal(wd)
			if err != nil {
				return err
			}
			resp, err := cl.Post(base+"/v1/t/"+tn+"/apply", "application/json", bytes.NewReader(body))
			if err == nil {
				_, _ = io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode == http.StatusOK {
					return nil
				}
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("not writable within %s after the fault", recoveryBound)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// stalledStreamer opens the tenant's stream and never reads a byte:
// the server must shed its updates and cut it loose, never block on
// it. It redials after each cut.
func stalledStreamer(ctx context.Context, base, tn string) {
	for ctx.Err() == nil {
		d := net.Dialer{Timeout: time.Second}
		conn, err := d.DialContext(ctx, "tcp", strings.TrimPrefix(base, "http://"))
		if err != nil {
			time.Sleep(100 * time.Millisecond)
			continue
		}
		if tc, ok := conn.(*net.TCPConn); ok {
			_ = tc.SetReadBuffer(2048)
		}
		fmt.Fprintf(conn, "GET /v1/t/%s/stream HTTP/1.1\r\nHost: stalled\r\n\r\n", tn)
		// Sit silent until the server gives up on us or the cycle ends.
		select {
		case <-ctx.Done():
		case <-connClosed(conn):
		}
		conn.Close()
	}
}

// connClosed signals when the peer closes the connection, detected by
// a read loop that drains far slower than the server produces.
func connClosed(conn net.Conn) <-chan struct{} {
	ch := make(chan struct{})
	go func() {
		defer close(ch)
		buf := make([]byte, 4096)
		for {
			if _, err := conn.Read(buf); err != nil {
				return
			}
			time.Sleep(2 * time.Second)
		}
	}()
	return ch
}

// deadlineStorm sends reads that give up after 1ms: every one of them
// exercises the cancellation path (admission queue exit or marshal
// checkpoint) without costing the engine anything.
func deadlineStorm(ctx context.Context, url string) {
	cl := &http.Client{Timeout: time.Millisecond}
	for ctx.Err() == nil {
		if resp, err := cl.Get(url); err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
		time.Sleep(5 * time.Millisecond)
	}
}
