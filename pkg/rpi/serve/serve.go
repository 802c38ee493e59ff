// Package serve exposes a multi-tenant engine host (internal/host)
// over HTTP/JSON: the traffic-serving front end of the inference
// system (cmd/rpi-serve is the binary). All responses use the
// versioned /v1 wire schema of package rpi.
//
// Each tenant's engine is served under /v1/t/{tenant}/... (host.go
// lists the routes, including tenant lifecycle). A HostServer built
// with a default tenant also answers the single-world routes as
// aliases for that tenant:
//
//	GET  /healthz          liveness
//	GET  /readyz           readiness of the default tenant
//	GET  /v1/infer         full wire report (current snapshot)
//	GET  /v1/report/{ixp}  one IXP's wire report
//	POST /v1/apply         apply a world delta, returns the verdict changes
//	GET  /v1/stream        server-sent events: verdict changes as they land
//
// Liveness and readiness are distinct probes: /healthz answers 200 as
// soon as the listener is up (the process is alive — don't kill it),
// while /readyz answers 503 until the default tenant's engine has
// finished its first build or recovery, and again while a quarantined
// engine is healing (don't route traffic yet — though reads that do
// arrive are still served from the last good snapshot).
//
// The server is overload-safe by construction: every /v1 endpoint
// passes through per-class admission control (internal/admission) and
// answers 503 + Retry-After instead of queueing unboundedly; request
// deadlines propagate into the engine (a caller that gives up stops
// costing anything); and each engine sits behind a supervisor.Guard,
// so a panic escaping Apply quarantines that engine (reads keep
// serving, writes answer 503) while a background re-Open heals it from
// the write-ahead log.
//
// Full-report reads are served from a per-publication byte cache: the
// wire report is marshaled once per (guard generation, delta seq) and
// every further full read at that publication is a buffer write, not a
// re-marshal — under heavy read load the hot path does no allocation
// proportional to the world.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"math"
	"net/http"
	"net/netip"
	"sync/atomic"
	"time"

	"rpeer/internal/admission"
	"rpeer/internal/host"
	"rpeer/internal/netsim"
	"rpeer/internal/pingsim"
	"rpeer/internal/supervisor"
	"rpeer/pkg/rpi"
)

// StatusClientClosedRequest is the nginx-convention status for "the
// client disconnected before the response was ready". It never reaches
// the (gone) client; it makes access logs and metrics tell the truth.
const StatusClientClosedRequest = 499

// Config tunes the serving plane. The zero value is production-safe:
// machine-scaled admission limits, no request timeout, 5s stream write
// timeout, 15s stream heartbeat, 64-update stream buffers.
type Config struct {
	// Admission bounds per-class concurrency; zero-valued classes take
	// admission.DefaultConfig. Admission.TenantShare bounds one
	// tenant's share of each class.
	Admission admission.Config
	// RequestTimeout caps the end-to-end time of non-streaming requests
	// (queue wait + engine work + marshal). Zero means no cap.
	RequestTimeout time.Duration
	// StreamWriteTimeout bounds one SSE write: a consumer that cannot
	// drain an event batch within it is disconnected (it can resubscribe
	// and resynchronize from /v1/infer).
	StreamWriteTimeout time.Duration
	// StreamHeartbeat is the idle keep-alive interval on /v1/stream.
	StreamHeartbeat time.Duration
	// StreamBuffer is the per-subscriber update buffer; a consumer that
	// falls further behind has its oldest updates shed by the engine
	// (the tenant status's dropped_updates counts them).
	StreamBuffer int
	// Logger receives handler panics and client-gone notices (default
	// log.Default()).
	Logger *log.Logger
}

func (c Config) withDefaults() Config {
	if c.StreamWriteTimeout <= 0 {
		c.StreamWriteTimeout = 5 * time.Second
	}
	if c.StreamHeartbeat <= 0 {
		c.StreamHeartbeat = 15 * time.Second
	}
	if c.StreamBuffer <= 0 {
		c.StreamBuffer = 64
	}
	if c.Logger == nil {
		c.Logger = log.Default()
	}
	return c
}

// backend is one tenant's supervised engine as the handlers see it:
// the guard plus the per-publication caches that make repeated reads
// cheap. The HostServer keeps one per tenant, replaced when the
// tenant's guard is (idle eviction, delete and recreate).
type backend struct {
	g *supervisor.Guard

	// vps caches the VP index of the current engine publication (see
	// vpIndex); rebuilt only when the supervisor swaps engines.
	vps atomic.Pointer[vpCache]
	// rep caches the marshaled full wire report of the current
	// publication, keyed on (generation, seq): under read load
	// GET /v1/infer is a buffer write, not a re-marshal.
	rep atomic.Pointer[cachedReport]
}

// cachedReport is one publication's pre-marshaled /v1 wire bytes.
type cachedReport struct {
	gen, seq uint64
	body     []byte
}

// Admission exposes the admission controller (expvar publication).
func (s *HostServer) Admission() *admission.Controller { return s.adm }

// HandlerPanics returns the number of handler panics absorbed so far.
func (s *HostServer) HandlerPanics() uint64 { return s.panics.Load() }

// respWriter tracks whether the response has been committed, so the
// panic middleware knows if a 500 can still be sent, and unreachable
// clients can be detected. Unwrap keeps http.ResponseController (SSE
// flushes and write deadlines) working through the wrapper.
type respWriter struct {
	http.ResponseWriter
	wroteHeader bool
}

func (rw *respWriter) WriteHeader(code int) {
	rw.wroteHeader = true
	rw.ResponseWriter.WriteHeader(code)
}

func (rw *respWriter) Write(b []byte) (int, error) {
	rw.wroteHeader = true
	return rw.ResponseWriter.Write(b)
}

func (rw *respWriter) Unwrap() http.ResponseWriter { return rw.ResponseWriter }

// ServeHTTP implements http.Handler: no-store headers (every response
// reflects live, churning state), then the panic net, then the mux.
func (s *HostServer) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	rw := &respWriter{ResponseWriter: w}
	rw.Header().Set("Cache-Control", "no-store")
	defer func() {
		if rec := recover(); rec != nil {
			if rec == http.ErrAbortHandler { //nolint:errorlint // sentinel by identity, per net/http docs
				panic(rec)
			}
			s.panics.Add(1)
			s.cfg.Logger.Printf("serve: panic in %s %s: %v", r.Method, r.URL.Path, rec)
			if !rw.wroteHeader {
				http.Error(rw, "internal error", http.StatusInternalServerError)
			}
		}
	}()
	s.mux.ServeHTTP(rw, r)
}

// admitted wraps a handler in admission control and the request
// deadline: the slot is held for the handler's whole run, and the
// request context carries the configured timeout so the deadline
// reaches the engine (streams are exempt from the timeout — they are
// supposed to be long-lived). tenant names the request's tenant, which
// attributes it ("" for control-plane requests); h receives the
// resolved name. The per-tenant fairness cap applies only while the
// host holds more than one tenant: a lone tenant has no sibling to
// leave headroom for, so it keeps each class's full slots and queue.
func (s *HostServer) admitted(cl admission.Class, tenant func(*http.Request) string, h func(http.ResponseWriter, *http.Request, string)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		tn := tenant(r)
		if s.cfg.RequestTimeout > 0 && cl != admission.Stream {
			ctx, cancel := context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
			defer cancel()
			r = r.WithContext(ctx)
		}
		admit := s.adm.AdmitTenant
		if s.h.Len() <= 1 {
			admit = s.adm.AdmitSoleTenant
		}
		release, err := admit(r.Context(), cl, tn)
		if err != nil {
			s.writeError(w, r, err)
			return
		}
		defer release()
		h(w, r, tn)
	}
}

// infer serves the full wire report, from the backend's byte cache
// when the publication has not moved since the last marshal.
func (s *HostServer) infer(w http.ResponseWriter, r *http.Request, be *backend) {
	rep, gen, seq, err := be.g.Published()
	if err != nil {
		s.writeError(w, r, err)
		return
	}
	if c := be.rep.Load(); c != nil && c.gen == gen && c.seq == seq {
		w.Header().Set("Content-Type", "application/json")
		_, _ = w.Write(c.body)
		return
	}
	b, err := rpi.MarshalReportCtx(r.Context(), rep)
	if err != nil {
		s.writeError(w, r, err)
		return
	}
	// Concurrent misses marshal the same publication to identical
	// bytes; last store wins, all are correct.
	be.rep.Store(&cachedReport{gen: gen, seq: seq, body: b})
	w.Header().Set("Content-Type", "application/json")
	_, _ = w.Write(b)
}

func (s *HostServer) report(w http.ResponseWriter, r *http.Request, be *backend, ixp string) {
	rep, err := be.g.ReportFor(r.Context(), ixp)
	if err != nil {
		s.writeError(w, r, err)
		return
	}
	s.writeReport(w, r, rep)
}

// WireDelta is the JSON body of POST /v1/apply.
type WireDelta struct {
	Joins  []WireJoin `json:"joins,omitempty"`
	Leaves []WireKey  `json:"leaves,omitempty"`
	RTT    []WireRTT  `json:"rtt,omitempty"`
}

// WireJoin is one membership join.
type WireJoin struct {
	IXP      string `json:"ixp"`
	Iface    string `json:"iface"`
	ASN      uint32 `json:"asn"`
	PortMbps int    `json:"port_mbps,omitempty"`
}

// WireKey identifies one membership.
type WireKey struct {
	IXP   string `json:"ixp"`
	Iface string `json:"iface"`
}

// WireRTT is one refreshed RTT aggregate. VPID selects the measuring
// vantage point; when omitted the interface's current best VP is kept.
// Drop revokes the interface's measurement instead.
type WireRTT struct {
	Iface    string  `json:"iface"`
	RTTMinMs float64 `json:"rtt_min_ms"`
	VPID     *int    `json:"vp_id,omitempty"`
	RoundsUp bool    `json:"rounds_up,omitempty"`
	Drop     bool    `json:"drop,omitempty"`
}

// NewWireDelta renders a delta's joins and leaves as the POST
// /v1/apply body. A delta with Ping overrides is refused: an override
// holds two rounding flags where WireRTT carries one, so encoding it
// could change what the delta means.
func NewWireDelta(d rpi.Delta) (WireDelta, error) {
	var wd WireDelta
	if len(d.Ping) > 0 {
		return wd, fmt.Errorf("serve: %d ping overrides have no wire encoding", len(d.Ping))
	}
	for _, j := range d.Joins {
		wd.Joins = append(wd.Joins, WireJoin{
			IXP: j.IXP, Iface: j.Iface.String(), ASN: uint32(j.ASN), PortMbps: j.PortMbps,
		})
	}
	for _, l := range d.Leaves {
		wd.Leaves = append(wd.Leaves, WireKey{IXP: l.IXP, Iface: l.Iface.String()})
	}
	return wd, nil
}

func (s *HostServer) apply(w http.ResponseWriter, r *http.Request, be *backend) {
	eng := be.g.Engine()
	if eng == nil {
		s.writeError(w, r, supervisor.ErrNoEngine)
		return
	}
	var wd WireDelta
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 16<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&wd); err != nil {
		// Malformed JSON, unknown fields and an oversized body are all
		// the client's fault: 400, never 500. (MaxBytesReader surfaces
		// the size breach as *http.MaxBytesError through Decode.)
		http.Error(w, fmt.Sprintf("bad delta body: %v", err), http.StatusBadRequest)
		return
	}
	d, err := toDelta(eng, be, wd)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	up, err := be.g.Apply(r.Context(), d)
	if err != nil {
		s.writeError(w, r, err)
		return
	}
	s.writeJSON(w, http.StatusOK, up)
}

// vpCache is the vantage-point index of one engine publication. The VP
// set is frozen per engine (deltas refresh RTTs, never the VP roster),
// so the index is built once per supervisor generation instead of on
// every /v1/apply.
type vpCache struct {
	gen     uint64
	hasPing bool
	byID    map[int]*pingsim.VP
}

// vpIndex returns the cached VP index for the backend's current
// publication, building it on first use after an engine swap.
func vpIndex(eng *rpi.Engine, be *backend) *vpCache {
	gen := be.g.Generation()
	if c := be.vps.Load(); c != nil && c.gen == gen {
		return c
	}
	c := &vpCache{gen: gen}
	if in := eng.Inputs(); in.Ping != nil {
		c.hasPing = true
		c.byID = make(map[int]*pingsim.VP, len(in.Ping.VPs))
		for _, vp := range in.Ping.VPs {
			c.byID[vp.ID] = vp
		}
	}
	be.vps.Store(c)
	return c
}

// toDelta resolves a wire delta against the engine's current state.
func toDelta(eng *rpi.Engine, be *backend, wd WireDelta) (rpi.Delta, error) {
	var d rpi.Delta
	for _, j := range wd.Joins {
		ip, err := netip.ParseAddr(j.Iface)
		if err != nil {
			return d, fmt.Errorf("join: bad interface %q", j.Iface)
		}
		d.Joins = append(d.Joins, rpi.Join{
			IXP: j.IXP, Iface: ip, ASN: netsim.ASN(j.ASN), PortMbps: j.PortMbps,
		})
	}
	for _, l := range wd.Leaves {
		ip, err := netip.ParseAddr(l.Iface)
		if err != nil {
			return d, fmt.Errorf("leave: bad interface %q", l.Iface)
		}
		d.Leaves = append(d.Leaves, rpi.Key{IXP: l.IXP, Iface: ip})
	}
	if len(wd.RTT) == 0 {
		return d, nil
	}
	vps := vpIndex(eng, be)
	if !vps.hasPing {
		return d, fmt.Errorf("rtt: engine has no ping campaign")
	}
	d.Ping = make(map[netip.Addr]pingsim.Override, len(wd.RTT))
	for _, u := range wd.RTT {
		ip, err := netip.ParseAddr(u.Iface)
		if err != nil {
			return d, fmt.Errorf("rtt: bad interface %q", u.Iface)
		}
		if u.Drop {
			d.Ping[ip] = pingsim.Override{RTTMinMs: math.NaN()}
			continue
		}
		if u.RTTMinMs <= 0 || math.IsInf(u.RTTMinMs, 0) || math.IsNaN(u.RTTMinMs) {
			return d, fmt.Errorf("rtt: %s: rtt_min_ms must be positive (got %v); use drop to revoke", ip, u.RTTMinMs)
		}
		// A nil BestVP means "keep the interface's current best VP";
		// the engine resolves it under the apply lock, so a concurrent
		// apply cannot slip between resolution and application.
		var vp *pingsim.VP
		if u.VPID != nil {
			if vp = vps.byID[*u.VPID]; vp == nil {
				return d, fmt.Errorf("rtt: unknown vp_id %d", *u.VPID)
			}
		}
		d.Ping[ip] = pingsim.Override{
			RTTMinMs: u.RTTMinMs, BestVP: vp,
			BestRoundsUp: u.RoundsUp, AnyRounding: u.RoundsUp,
		}
	}
	return d, nil
}

// streamEvent is the SSE hello/reset payload.
type streamEvent struct {
	Seq        uint64 `json:"seq"`
	Generation uint64 `json:"generation"`
}

// stream serves /v1/stream: server-sent events carrying verdict
// changes as deltas land. Consecutive updates a slow reader has not
// consumed are coalesced into one batch write; a reader that cannot
// drain a batch within StreamWriteTimeout is disconnected (and the
// engine sheds its oldest pending updates meanwhile — the server never
// blocks on a stalled consumer). An engine swap (quarantine recovery)
// closes the stream with a "reset" event: resynchronize from /v1/infer
// and resubscribe.
func (s *HostServer) stream(w http.ResponseWriter, r *http.Request, be *backend) {
	eng := be.g.Engine()
	if eng == nil {
		s.writeError(w, r, supervisor.ErrNoEngine)
		return
	}
	gen := be.g.Generation()
	updates, cancel := eng.Subscribe(s.cfg.StreamBuffer)
	defer cancel()

	rc := http.NewResponseController(w)
	w.Header().Set("Content-Type", "text/event-stream")
	w.WriteHeader(http.StatusOK)
	if err := s.sseWrite(rc, w, "hello", streamEvent{Seq: eng.Seq(), Generation: gen}); err != nil {
		return
	}

	heartbeat := time.NewTicker(s.cfg.StreamHeartbeat)
	defer heartbeat.Stop()
	for {
		select {
		case <-r.Context().Done():
			return
		case <-heartbeat.C:
			// A comment line: keeps NATs and proxies from reaping the
			// connection, and detects dead clients on idle streams.
			_ = rc.SetWriteDeadline(time.Now().Add(s.cfg.StreamWriteTimeout))
			if _, err := io.WriteString(w, ": keep-alive\n\n"); err != nil {
				return
			}
			if err := rc.Flush(); err != nil {
				return
			}
		case up, ok := <-updates:
			if !ok {
				// Engine closed or quarantined underneath us.
				_ = s.sseWrite(rc, w, "reset", streamEvent{Generation: be.g.Generation()})
				return
			}
			batch := []rpi.Update{up}
			closed := false
		coalesce:
			for len(batch) < 16 {
				select {
				case more, ok := <-updates:
					if !ok {
						closed = true
						break coalesce
					}
					batch = append(batch, more)
				default:
					break coalesce
				}
			}
			if err := s.sseWrite(rc, w, "updates", batch); err != nil {
				return
			}
			if closed {
				_ = s.sseWrite(rc, w, "reset", streamEvent{Generation: be.g.Generation()})
				return
			}
		}
	}
}

// sseWrite emits one SSE event under the stream write deadline.
func (s *HostServer) sseWrite(rc *http.ResponseController, w http.ResponseWriter, event string, v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	_ = rc.SetWriteDeadline(time.Now().Add(s.cfg.StreamWriteTimeout))
	if _, err := fmt.Fprintf(w, "event: %s\ndata: %s\n\n", event, b); err != nil {
		return err
	}
	return rc.Flush()
}

func (s *HostServer) writeReport(w http.ResponseWriter, r *http.Request, rep *rpi.Report) {
	b, err := rpi.MarshalReportCtx(r.Context(), rep)
	if err != nil {
		s.writeError(w, r, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_, _ = w.Write(b)
}

func (s *HostServer) writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// writeError maps SDK, admission, supervisor and host errors to HTTP
// statuses. Cancellation is special-cased: when the caller is already
// gone there is nobody to answer, so it is logged and recorded as the
// 499 convention instead of surfacing as a fake 500.
func (s *HostServer) writeError(w http.ResponseWriter, r *http.Request, err error) {
	switch {
	case errors.Is(err, rpi.ErrCanceled),
		errors.Is(err, context.Canceled),
		errors.Is(err, context.DeadlineExceeded):
		s.cfg.Logger.Printf("serve: %s %s abandoned: %v", r.Method, r.URL.Path, err)
		w.WriteHeader(StatusClientClosedRequest)
		return
	}
	status := http.StatusInternalServerError
	switch {
	case errors.Is(err, rpi.ErrUnknownIXP),
		errors.Is(err, host.ErrUnknownTenant):
		status = http.StatusNotFound
	case errors.Is(err, host.ErrTenantExists):
		status = http.StatusConflict
	case errors.Is(err, host.ErrBadTenantName),
		errors.Is(err, host.ErrTooManyTenants):
		status = http.StatusBadRequest
	case errors.Is(err, rpi.ErrBadDelta):
		status = http.StatusUnprocessableEntity
	case errors.Is(err, admission.ErrOverloaded),
		errors.Is(err, rpi.ErrOverloaded),
		errors.Is(err, supervisor.ErrQuarantined),
		errors.Is(err, supervisor.ErrNoEngine),
		errors.Is(err, host.ErrHostClosed),
		errors.Is(err, rpi.ErrClosed),
		errors.Is(err, rpi.ErrPersistence):
		// Transient serving-plane states: shed load, healing engine,
		// recovery still running, or a log that can no longer promise
		// durability. All of them clear up (or at worst persist) without
		// the client changing its request: retry shortly.
		status = http.StatusServiceUnavailable
		w.Header().Set("Retry-After", "1")
	}
	http.Error(w, err.Error(), status)
}
