// Package rpi is the public SDK of the remote peering inference
// system: the stable, importable surface over the five-step
// methodology of internal/core.
//
// The central type is the Engine, a long-lived inference instance.
// Where the internal pipeline is built for frozen inputs and one-shot
// batch runs, the engine is built for the world as it actually
// behaves: IXP memberships churn, ping campaigns refresh, and
// consumers want the current verdicts — not a rebuild-from-scratch
// every time a member joins. New assembles the shared inference
// substrate once; Apply absorbs world deltas incrementally
// (invalidating only the state a delta can reach); Snapshot returns
// the current report; Subscribe streams per-membership verdict changes
// as deltas land.
//
//	eng, err := rpi.New(inputs, rpi.WithWorkers(8))
//	...
//	rep := eng.Snapshot()
//	updates, cancel := eng.Subscribe(16)
//	res, err := eng.Apply(ctx, delta)
//
// Reports cross process boundaries through the versioned JSON wire
// schema (MarshalReport / UnmarshalReport); cmd/rpi-serve serves it
// over HTTP from one shared engine.
package rpi

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net/netip"
	"sort"
	"sync"

	"rpeer/internal/core"
	"rpeer/internal/pingsim"
)

// Engine is a long-lived inference instance over one evolving input
// world. All methods are safe for concurrent use: queries share a read
// lock, Apply takes the write lock.
type Engine struct {
	mu     sync.RWMutex
	ctx    *core.Context
	cfg    config
	report *core.Report
	// baseline caches the threshold-baseline report; Apply drops it
	// (RTT and membership deltas both move it).
	baseline *core.Report
	seq      uint64
	// pers is the durable half of a persistent engine (Open); nil for
	// the in-memory engines New and Replay build.
	pers *persister

	subMu   sync.Mutex
	subs    map[int]chan Update
	nextSub int
	closed  bool
	// dropped counts updates shed from slow subscribers (see
	// Subscribe); guarded by subMu.
	dropped uint64
}

// New validates the inputs, builds the shared inference substrate and
// runs the configured pipeline once. The engine takes ownership of the
// registry dataset via a private clone — the caller's Inputs stay
// frozen no matter how many deltas are applied later.
func New(in Inputs, opts ...Option) (*Engine, error) {
	cfg := defaultConfig()
	for _, o := range opts {
		o(&cfg)
	}
	if in.World == nil || in.Dataset == nil || in.Colo == nil {
		return nil, fmt.Errorf("%w: World, Dataset and Colo are required", ErrMissingInput)
	}
	in.Dataset = in.Dataset.Clone()
	ctx, err := core.NewContext(in)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrMissingInput, err)
	}
	return buildEngine(ctx, cfg)
}

// buildEngine finishes engine construction over a ready (possibly
// recovered) context: the initial pipeline run and baseline scan,
// overlapped (both only read the shared context).
func buildEngine(ctx *core.Context, cfg config) (*Engine, error) {
	e := &Engine{ctx: ctx, cfg: cfg, subs: make(map[int]chan Update)}
	var (
		wg      sync.WaitGroup
		base    *core.Report
		baseErr error
	)
	wg.Add(1)
	go func() {
		defer wg.Done()
		base, baseErr = ctx.Baseline(cfg.threshold)
	}()
	rep, err := e.run()
	wg.Wait()
	if err != nil {
		return nil, err
	}
	if baseErr != nil {
		return nil, baseErr
	}
	e.report, e.baseline = rep, base
	return e, nil
}

// run executes the configured pipeline over the warm context. Callers
// hold at least a read lock (core.Context runs are concurrency-safe).
func (e *Engine) run() (*core.Report, error) {
	if e.cfg.order != nil {
		return e.ctx.RunWithOrder(e.cfg.opt, e.cfg.order)
	}
	return e.ctx.Run(e.cfg.opt)
}

// Snapshot returns the current report. The report is shared and must
// be treated as read-only; it stays internally consistent forever (an
// Apply swaps in a fresh report rather than mutating the old one).
func (e *Engine) Snapshot() *Report {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.report
}

// SnapshotSeq returns the current report together with the delta
// sequence it reflects, read under one lock acquisition: the pair is
// coherent even while concurrent Applies land. Serving-plane caches
// key pre-marshaled report bytes on this seq.
func (e *Engine) SnapshotSeq() (*Report, uint64) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.report, e.seq
}

// Seq returns the number of deltas applied so far.
func (e *Engine) Seq() uint64 {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.seq
}

// Inputs returns the engine's current view of the inputs: the dataset
// clone with all applied membership churn, and the campaign with all
// applied overrides. Building a cold engine over these inputs yields a
// byte-identical report (the incremental-update contract).
//
// The returned maps are the engine's live state and must be treated
// as strictly read-only: writing to them bypasses Apply's validation
// (and the invariants the incremental path depends on), and a later
// Apply mutates them underneath the caller. All change goes through
// Apply.
func (e *Engine) Inputs() Inputs {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.ctx.Inputs()
}

// Context exposes the underlying core context for in-module consumers
// (the experiment harness, benchmarks). SDK users should not need it.
func (e *Engine) Context() *core.Context {
	return e.ctx
}

// Baseline returns the Castro et al. RTT-threshold baseline over the
// shared substrate at the configured threshold (WithThreshold),
// cached until the next Apply. The report is shared and read-only.
func (e *Engine) Baseline() (*Report, error) {
	for {
		e.mu.RLock()
		if b := e.baseline; b != nil {
			e.mu.RUnlock()
			return b, nil
		}
		seq := e.seq
		base, err := e.ctx.Baseline(e.cfg.threshold)
		e.mu.RUnlock()
		if err != nil {
			return nil, err
		}
		e.mu.Lock()
		if e.seq == seq {
			// A concurrent identical recompute may have stored first;
			// keep one instance.
			if e.baseline == nil {
				e.baseline = base
			}
			base = e.baseline
			e.mu.Unlock()
			return base, nil
		}
		// An Apply landed mid-compute: the report reflects the old
		// world; recompute rather than caching stale state.
		e.mu.Unlock()
	}
}

// RunStep evaluates one methodology step in isolation over the shared
// substrate (the per-step rows of the paper's Table 4).
func (e *Engine) RunStep(s Step) (*Report, error) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	rep, err := e.ctx.RunStep(e.cfg.opt, s)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrUnknownStep, err)
	}
	return rep, nil
}

// ReportFor returns the current verdicts of one IXP. The returned
// report shares inference values with the snapshot and must be treated
// as read-only. The walk over a large snapshot honors ctx: a canceled
// caller gets ErrCanceled instead of the rest of the scan.
func (e *Engine) ReportFor(ctx context.Context, ixp string) (*Report, error) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	if err := ctxErr(ctx); err != nil {
		return nil, err
	}
	if !e.ctx.HasIXP(ixp) {
		return nil, fmt.Errorf("%w: %q", ErrUnknownIXP, ixp)
	}
	out := &Report{Inferences: make(map[Key]*Inference)}
	scanned := 0
	for k, inf := range e.report.Inferences {
		if scanned++; scanned&0x3fff == 0 {
			if err := ctxErr(ctx); err != nil {
				return nil, err
			}
		}
		if k.IXP == ixp {
			out.Inferences[k] = inf
		}
	}
	for _, r := range e.report.MultiRouters {
		for _, name := range r.IXPs {
			if name == ixp {
				out.MultiRouters = append(out.MultiRouters, r)
				break
			}
		}
	}
	return out, nil
}

// ctxErr converts a context cancellation into the SDK's typed error.
// A nil context means "no deadline" (package-internal callers only;
// the public methods always receive one).
func ctxErr(ctx context.Context) error {
	if ctx == nil {
		return nil
	}
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("%w: %v", ErrCanceled, err)
	}
	return nil
}

// Apply absorbs a world delta — membership joins and leaves, refreshed
// RTT aggregates — into the engine: the affected substrate is patched
// in place (see core.Context.Apply for the invalidation rules), the
// pipeline re-runs over the warm context, and the per-membership
// verdict changes are returned and fanned out to subscribers.
//
// The resulting report is byte-identical (under MarshalReport) to what
// a cold New over the post-delta Inputs would produce, at a fraction
// of the cost: the corpus scan, campaign fold, geometry and memo
// warm-up are not repeated.
//
// ctx bounds the commitment point, not the mutation: a caller that is
// already gone when the write lock is finally acquired gets ErrCanceled
// and the engine state (memory and log) is untouched — the 30ms–500ms
// re-inference is never started for a dead request. Once the delta is
// journaled the apply runs to completion regardless of ctx, because a
// logged delta must be reflected in memory (the durability contract of
// persist.go).
func (e *Engine) Apply(ctx context.Context, d Delta) (*Update, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if err := ctxErr(ctx); err != nil {
		return nil, err
	}
	if e.isClosed() {
		return nil, ErrClosed
	}
	if d.Empty() {
		// Nothing to absorb: skip the re-run, keep the sequence.
		return &Update{Seq: e.seq}, nil
	}
	d, err := e.resolveVPs(d)
	if err != nil {
		return nil, err
	}
	if e.pers != nil {
		// Validate → log → mutate: logDelta re-validates the resolved
		// delta (so the record it journals is guaranteed to apply on
		// replay) and appends it under the configured fsync policy. If
		// the append fails, nothing was mutated and persistence is
		// declared broken — the durable state stays the acknowledged
		// prefix.
		if err := e.logDelta(d); err != nil {
			return nil, err
		}
	}
	if e.cfg.applyHook != nil {
		// Fault-injection seam (WithApplyHook): runs at the riskiest
		// point of the lifecycle — delta journaled, memory not yet
		// mutated — so a hook-raised panic models an engine bug whose
		// delta is already durable.
		e.cfg.applyHook(e.seq+1, d)
	}
	if err := e.ctx.Apply(core.Delta(d)); err != nil {
		if e.pers != nil {
			// Validated, logged, yet failed to apply: a bug, but the
			// log now disagrees with memory — freeze the durable state.
			e.pers.broken = fmt.Errorf("delta %d logged but failed to apply: %v", e.seq+1, err)
		}
		return nil, fmt.Errorf("%w: %v", ErrBadDelta, err)
	}
	rep, err := e.run()
	if err != nil {
		return nil, err
	}
	old := e.report
	e.report = rep
	e.baseline = nil
	e.seq++
	e.maybeSnapshot()
	up := diffReports(e.seq, old, rep)
	up.Joined, up.Left, up.RTTRefreshed = len(d.Joins), len(d.Leaves), len(d.Ping)
	e.publish(*up)
	return up, nil
}

// resolveVPs fills measured RTT overrides that carry no vantage point
// with the interface's current best VP. Resolution happens here, under
// the apply lock, so a concurrent apply cannot slip between "read the
// current VP" and "apply the override" (which could resurrect a
// just-revoked measurement with a stale vantage point). The caller's
// delta is not mutated.
func (e *Engine) resolveVPs(d Delta) (Delta, error) {
	needs := false
	for _, ov := range d.Ping {
		if ov.BestVP == nil && !math.IsNaN(ov.RTTMinMs) {
			needs = true
			break
		}
	}
	if !needs {
		return d, nil
	}
	resolved := make(map[netip.Addr]pingsim.Override, len(d.Ping))
	for ip, ov := range d.Ping {
		if ov.BestVP == nil && !math.IsNaN(ov.RTTMinMs) {
			// The context's per-interface index already reflects every
			// applied delta; an O(1) lookup, not a campaign re-fold.
			vp, ok := e.ctx.BestVP(ip)
			if !ok {
				return d, fmt.Errorf("%w: %s has no current vantage point; name one", ErrBadDelta, ip)
			}
			ov.BestVP = vp
		}
		resolved[ip] = ov
	}
	d.Ping = resolved
	return d, nil
}

// Subscribe registers a verdict-change listener. Every Apply delivers
// one Update; a subscriber that falls more than buf updates behind has
// the oldest pending updates dropped (the engine never blocks on a
// slow consumer).
//
// Drop semantics: shedding is per-subscriber and oldest-first — a slow
// consumer loses the earliest updates it had not read, and always
// receives the most recent one. A consumer that must not miss changes
// should either size buf for its worst-case lag or treat any gap in
// Update.Seq as a signal to resynchronize from Snapshot(). Every shed
// update increments the engine-wide counter behind DroppedUpdates
// (exported per tenant in cmd/rpi-serve's rpi.host expvar).
//
// The returned cancel function unregisters and closes the channel; it
// is safe to call more than once.
func (e *Engine) Subscribe(buf int) (<-chan Update, func()) {
	if buf < 1 {
		buf = 1
	}
	ch := make(chan Update, buf)
	e.subMu.Lock()
	defer e.subMu.Unlock()
	if e.closed {
		close(ch)
		return ch, func() {}
	}
	id := e.nextSub
	e.nextSub++
	e.subs[id] = ch
	return ch, func() {
		e.subMu.Lock()
		defer e.subMu.Unlock()
		if c, ok := e.subs[id]; ok {
			delete(e.subs, id)
			close(c)
		}
	}
}

// Close shuts the engine down: subscriber channels are closed and
// further Apply calls fail with ErrClosed. Queries keep serving the
// last snapshot. A persistent engine publishes a final snapshot (so
// the next Open replays nothing) and syncs and closes its log; the
// returned error reports any failure to do so — the log itself is
// still intact, so recovery replays the tail instead.
func (e *Engine) Close() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.subMu.Lock()
	alreadyClosed := e.closed
	e.closed = true
	for id, ch := range e.subs {
		delete(e.subs, id)
		close(ch)
	}
	e.subMu.Unlock()
	if alreadyClosed || e.pers == nil {
		return nil
	}
	var err error
	if e.pers.broken == nil && e.pers.lastSnap != e.seq {
		err = e.snapshotLocked(false)
	}
	if cerr := e.pers.w.Close(); cerr != nil && err == nil {
		err = fmt.Errorf("%w: close log: %v", ErrPersistence, cerr)
	}
	return err
}

// Abandon kills the engine after an internal fault without trusting
// any of its in-memory state: no final snapshot is published (the
// columns may be half-mutated by the panicking Apply), the write-ahead
// log is closed so a successor engine can recover the directory, every
// subscriber channel closes, and all further Applies fail with
// ErrClosed. Queries keep serving the last published report — by
// construction the report pointer is only ever swapped after a fully
// successful apply, so it is the last good state. This is the
// quarantine path of internal/supervisor; orderly shutdown wants Close.
func (e *Engine) Abandon() {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.subMu.Lock()
	already := e.closed
	e.closed = true
	for id, ch := range e.subs {
		delete(e.subs, id)
		close(ch)
	}
	e.subMu.Unlock()
	if already || e.pers == nil {
		return
	}
	if e.pers.broken == nil {
		e.pers.broken = errors.New("engine abandoned after internal fault")
	}
	// Best-effort close; the durable state is whatever the log already
	// acknowledged, and recovery truncates any torn tail.
	_ = e.pers.w.Close()
}

// DroppedUpdates returns the total number of updates shed from slow
// subscribers since the engine started (see Subscribe).
func (e *Engine) DroppedUpdates() uint64 {
	e.subMu.Lock()
	defer e.subMu.Unlock()
	return e.dropped
}

func (e *Engine) isClosed() bool {
	e.subMu.Lock()
	defer e.subMu.Unlock()
	return e.closed
}

// publish fans an update out without ever blocking: a full subscriber
// buffer sheds its oldest update first.
func (e *Engine) publish(up Update) {
	e.subMu.Lock()
	defer e.subMu.Unlock()
	for _, ch := range e.subs {
		for {
			select {
			case ch <- up:
			default:
				select {
				case <-ch: // shed the oldest pending update
					e.dropped++
				default:
				}
				continue
			}
			break
		}
	}
}

// VerdictChange is one membership whose verdict moved under a delta.
type VerdictChange struct {
	IXP   string `json:"ixp"`
	Iface string `json:"iface"`
	From  string `json:"from"`
	To    string `json:"to"`
	// FromStep and ToStep attribute the verdicts to pipeline steps.
	FromStep string `json:"from_step,omitempty"`
	ToStep   string `json:"to_step,omitempty"`
	// Added and Removed mark memberships that entered or departed the
	// inference domain with this delta.
	Added   bool `json:"added,omitempty"`
	Removed bool `json:"removed,omitempty"`
}

// Update summarises one applied delta.
type Update struct {
	// Seq is the engine's delta sequence number after this apply.
	Seq uint64 `json:"seq"`
	// Joined, Left and RTTRefreshed echo the delta's shape.
	Joined       int `json:"joined"`
	Left         int `json:"left"`
	RTTRefreshed int `json:"rtt_refreshed"`
	// Changes lists every membership whose verdict differs from the
	// previous snapshot, ordered by (IXP, interface).
	Changes []VerdictChange `json:"changes"`
}

// diffReports lists the verdict changes between two snapshots.
func diffReports(seq uint64, old, new *core.Report) *Update {
	up := &Update{Seq: seq}
	for k, o := range old.Inferences {
		n, ok := new.Inferences[k]
		if !ok {
			up.Changes = append(up.Changes, VerdictChange{
				IXP: k.IXP, Iface: k.Iface.String(),
				From: o.Class.String(), FromStep: stepName(o.Step),
				To: core.ClassUnknown.String(), Removed: true,
			})
			continue
		}
		if o.Class != n.Class || o.Step != n.Step {
			up.Changes = append(up.Changes, VerdictChange{
				IXP: k.IXP, Iface: k.Iface.String(),
				From: o.Class.String(), FromStep: stepName(o.Step),
				To: n.Class.String(), ToStep: stepName(n.Step),
			})
		}
	}
	for k, n := range new.Inferences {
		if _, ok := old.Inferences[k]; !ok {
			up.Changes = append(up.Changes, VerdictChange{
				IXP: k.IXP, Iface: k.Iface.String(),
				From: core.ClassUnknown.String(),
				To:   n.Class.String(), ToStep: stepName(n.Step),
				Added: true,
			})
		}
	}
	sort.Slice(up.Changes, func(i, j int) bool {
		if up.Changes[i].IXP != up.Changes[j].IXP {
			return up.Changes[i].IXP < up.Changes[j].IXP
		}
		return up.Changes[i].Iface < up.Changes[j].Iface
	})
	return up
}

// stepName renders a step for the wire, with "none" elided.
func stepName(s Step) string {
	if s == core.StepNone {
		return ""
	}
	return s.String()
}
