package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"rpeer/internal/core"
	"rpeer/internal/snapshot"
	"rpeer/internal/wal"
	"rpeer/internal/worldfile"
	"rpeer/pkg/rpi"
)

const (
	churnScale = 4
	// churnFrac is the share of memberships one delta touches (half
	// leave, half join): a month of churn at a large IXP.
	churnFrac = 0.01
	// A run makes seconds/churnCycleSeconds crash cycles, at least
	// one: a count fixed by the run's arguments, so every run with the
	// same arguments applies the same number of deltas whatever the
	// machine's speed.
	churnCycleSeconds = 8
	// churnTail is how many deltas past the last checkpoint each crash
	// lands. Recovery replays exactly this many, so every crash costs
	// the same; the first cycle applies DefaultSnapshotEvery+churnTail
	// deltas, every later one DefaultSnapshotEvery.
	churnTail = 16
)

// churnApply is churn-apply-4x: one client in a closed loop against a
// persistent engine (rpi.Open, per-delta fsync, a snapshot every
// rpi.DefaultSnapshotEvery deltas) applying a 1% churn delta and its
// inverse in turn. Each cycle ends in a simulated crash (Abandon) and
// a reopen, after a fixed number of deltas, so recovery always replays
// churnTail records. The substrate re-settle, the warm re-run, the log
// fsync and the checkpoints do the work; the alias memos are warm.
//
// The timed operation (latency_*) is Engine.Apply. Set-up is loading
// the world file and opening a fresh engine directory.
func churnApply(r *run) error {
	path, fp, err := r.cache.ensure(r.seed, churnScale)
	if err != nil {
		return err
	}
	r.prov["fingerprint"] = fmt.Sprintf("%016x", fp)
	r.prov["scale"] = churnScale

	var (
		base   rpi.Inputs
		eng    *rpi.Engine
		dir    string
		setups []float64
	)
	for i := 0; i < setupReps; i++ {
		if eng != nil {
			if err := eng.Close(); err != nil {
				return err
			}
			if err := os.RemoveAll(dir); err != nil {
				return err
			}
		}
		if dir, err = r.tempDir("churn"); err != nil {
			return err
		}
		base, eng = rpi.Inputs{}, nil
		settle()
		start := time.Now()
		if base, err = worldfile.Load(path); err != nil {
			return err
		}
		if eng, _, err = rpi.Open(dir, base); err != nil {
			return err
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	defer os.RemoveAll(dir)
	r.set("setup_s", r.record("setup_s", setups).P50)

	d := rpi.ChurnDelta(base, churnFrac, r.seed)
	deltas := [2]rpi.Delta{d, rpi.InvertDelta(base, d)}
	r.set("delta.churn", float64(len(d.Joins)+len(d.Leaves)))

	cycles := max(1, int(r.seconds/churnCycleSeconds))
	if r.trace {
		cycles = 1 // then the traced replay
	}
	cl := &churnLoop{r: r, base: base, dir: dir, deltas: deltas}
	eng, err = cl.cycles(eng, cycles)
	if err != nil {
		return err
	}
	if err := eng.Close(); err != nil {
		return err
	}
	lat := r.record("apply_ms", cl.applyMs)
	r.set("latency_p50_ms", lat.P50)
	r.set("apply_p50_ms", lat.P50)
	r.set("apply_p95_ms", at(cl.applyMs, 95))
	rec := r.record("recover_s", cl.recoverS)
	r.set("recover_s", rec.P50)
	if r.trace {
		return churnTraced(r, path, fp, cl, lat.P50, rec.P50)
	}
	return nil
}

// churnLoop is the closed-loop client and what it observed.
type churnLoop struct {
	r      *run
	base   rpi.Inputs
	dir    string
	deltas [2]rpi.Delta

	applyMs, recoverS []float64
	// first is the first cycle's pre-crash report and seq; crashDir
	// is a copy of the data directory as that crash left it.
	first    []byte
	firstSeq uint64
	crashDir string
	info     *rpi.RecoveryInfo
}

// cycles runs count crash cycles and returns the engine recovered
// from the last crash.
func (cl *churnLoop) cycles(eng *rpi.Engine, count int) (*rpi.Engine, error) {
	r := cl.r
	for cycle := 0; cycle < count; cycle++ {
		n := rpi.DefaultSnapshotEvery
		if cycle == 0 {
			n += churnTail
		}
		for k := 0; k < n; k++ {
			dd := cl.deltas[eng.Seq()%2]
			t0 := time.Now()
			_, err := eng.Apply(context.Background(), dd)
			cl.applyMs = append(cl.applyMs, float64(time.Since(t0).Nanoseconds())/1e6)
			r.attempted++
			if err != nil {
				return nil, fmt.Errorf("apply at seq %d: %w", eng.Seq(), err)
			}
		}
		acked := eng.Seq()
		want, err := rpi.MarshalReport(eng.Snapshot())
		if err != nil {
			return nil, err
		}
		last := cycle == count-1
		if last {
			if err := cl.coldGate(eng, want); err != nil {
				return nil, err
			}
		}
		eng.Abandon()
		if cycle == 0 {
			cl.first, cl.firstSeq = want, acked
			if r.trace {
				if cl.crashDir, err = copyDir(r, cl.dir); err != nil {
					return nil, err
				}
			}
		}
		settle()
		t0 := time.Now()
		eng, cl.info, err = rpi.Open(cl.dir, cl.base)
		cl.recoverS = append(cl.recoverS, time.Since(t0).Seconds())
		r.attempted++
		if err != nil {
			return nil, fmt.Errorf("recover after crash at seq %d: %w", acked, err)
		}
		got, err := rpi.MarshalReport(eng.Snapshot())
		if err != nil {
			return nil, err
		}
		r.check(fmt.Sprintf("recovered_seq_cycle%d", cycle), eng.Seq() == acked || eng.Seq() == acked+1,
			"recovered seq %d after acknowledging %d", eng.Seq(), acked)
		r.check(fmt.Sprintf("recovered_report_cycle%d", cycle), bytes.Equal(got, want),
			"recovered report (%d bytes) differs from the pre-crash report (%d bytes)", len(got), len(want))
	}
	return eng, nil
}

// coldGate checks the incremental-update contract: the engine's report
// equals a cold rpi.New over the engine's current inputs.
func (cl *churnLoop) coldGate(eng *rpi.Engine, want []byte) error {
	cold, err := rpi.New(eng.Inputs())
	if err != nil {
		return err
	}
	got, err := rpi.MarshalReport(cold.Snapshot())
	if err != nil {
		return err
	}
	cl.r.check("incremental_equals_cold", bytes.Equal(got, want),
		"after seq %d the engine's report (%d bytes) differs from a cold rebuild (%d bytes)", eng.Seq(), len(want), len(got))
	return nil
}

// copyDir copies a flat data directory to a fresh temp directory.
func copyDir(r *run, src string) (string, error) {
	dst, err := r.tempDir("crash")
	if err != nil {
		return "", err
	}
	ents, err := os.ReadDir(src)
	if err != nil {
		return "", err
	}
	for _, e := range ents {
		b, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			return "", err
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), b, 0o644); err != nil {
			return "", err
		}
	}
	return dst, nil
}

// churnReplay applies the churn deltas to a bare context through the
// layers' public functions, with a span around each call: validate,
// log append with fsync (of the record bytes the engine logged),
// re-settle, re-run, a checkpoint every rpi.DefaultSnapshotEvery
// deltas, and the marshal of each new report.
type churnReplay struct {
	r        *run
	fp       uint64
	ctx      *core.Context
	opt      core.Options
	logDir   string
	w        *wal.Writer
	payloads [2][]byte
	// roots are the apply spans without a checkpoint, cps the
	// checkpoint spans.
	roots, cps []int
	report     []byte
}

var walPolicy = wal.Policy{Mode: wal.SyncEveryRecord}

func newChurnReplay(r *run, path string, fp uint64) (*churnReplay, error) {
	in, err := worldfile.Load(path)
	if err != nil {
		return nil, err
	}
	in.Dataset = in.Dataset.Clone()
	cr := &churnReplay{r: r, fp: fp, opt: core.DefaultOptions()}
	if cr.ctx, err = core.NewContext(in); err != nil {
		return nil, err
	}
	if _, err := cr.ctx.Run(cr.opt); err != nil { // the engine's memos are warm too
		return nil, err
	}
	if cr.logDir, err = r.tempDir("wal"); err != nil {
		return nil, err
	}
	cr.w, err = wal.Create(wal.OS(), cr.logDir, wal.SegmentName(0), wal.Header{Fingerprint: fp}, walPolicy)
	return cr, err
}

func (cr *churnReplay) close() {
	if cr.w != nil {
		_ = cr.w.Close() // a throwaway log, removed next
	}
	_ = os.RemoveAll(cr.logDir)
}

// step replays delta k.
func (cr *churnReplay) step(k int, deltas [2]rpi.Delta) error {
	tr, ctx, fsys := cr.r.tracer, cr.ctx, wal.OS()
	dd := deltas[k%2]
	var (
		rep  *core.Report
		errs [6]error
	)
	root, end := tr.begin(k, 0, "apply")
	tr.do(k, root, "core.validate", func() { errs[0] = ctx.ValidateDelta(dd) })
	tr.do(k, root, "wal.append", func() { errs[1] = cr.w.Append(cr.payloads[k%2]) })
	tr.do(k, root, "core.resettle", func() { errs[2] = ctx.Apply(dd) })
	tr.do(k, root, "core.rerun", func() { rep, errs[3] = ctx.Run(cr.opt) })
	if seq := uint64(k + 1); seq%rpi.DefaultSnapshotEvery == 0 {
		cp, endCP := tr.begin(k, root, "snapshot.checkpoint")
		var s *snapshot.Snap
		tr.do(k, cp, "core.dump_columns", func() { s = ctx.DumpColumns() })
		s.Seq, s.Fingerprint = seq, cr.fp
		tr.do(k, cp, "snapshot.write", func() { _, errs[4] = snapshot.Write(fsys, cr.logDir, s) })
		tr.do(k, cp, "wal.rotate", func() {
			if errs[5] = cr.w.Close(); errs[5] == nil {
				cr.w, errs[5] = wal.Create(fsys, cr.logDir, wal.SegmentName(seq), wal.Header{Fingerprint: cr.fp, FirstSeq: seq}, walPolicy)
			}
		})
		endCP()
		cr.cps = append(cr.cps, cp)
	} else {
		cr.roots = append(cr.roots, root)
	}
	end()
	for _, err := range errs {
		if err != nil {
			return fmt.Errorf("traced replay of delta %d: %w", k, err)
		}
	}
	var err error
	tr.do(k, 0, "rpi.marshal", func() { cr.report, err = rpi.MarshalReport(rep) })
	cr.r.attempted++
	return err
}

// churnTraced replays the first cycle's deltas, then its crash's
// recovery, through the layers' public functions, and turns the spans
// into per-layer metrics. applyP50 and recoverP50 are the engine's
// untraced medians.
func churnTraced(r *run, path string, fp uint64, cl *churnLoop, applyP50, recoverP50 float64) error {
	defer os.RemoveAll(cl.crashDir)
	cr, err := newChurnReplay(r, path, fp)
	if err != nil {
		return err
	}
	defer cr.close()
	if cr.payloads, err = walPayloads(cl.crashDir); err != nil {
		return err
	}
	if cr.payloads[0] == nil || cr.payloads[1] == nil {
		return fmt.Errorf("the engine logged no records")
	}
	for k := 0; uint64(k) < cl.firstSeq; k++ {
		if err := cr.step(k, cl.deltas); err != nil {
			return err
		}
	}
	r.check("traced_replay_report", bytes.Equal(cr.report, cl.first),
		"the traced replay's report at seq %d differs from the engine's", cl.firstSeq)
	r.set("wal.bytes_per_delta", float64(len(cr.payloads[0])+len(cr.payloads[1]))/2)
	r.set("recover.replayed", float64(cl.info.Replayed))
	r.set("recover.snapshot_seq", float64(cl.info.SnapshotSeq))
	if err := recoverTraced(r, cl, recoverP50); err != nil {
		return err
	}

	spans := r.tracer.snapshot()
	ls := aggregate(spans)
	ms := func(name string) float64 { return 1000 * ls.medianSelf(name) }
	parts := 0.0
	for _, n := range []string{"core.validate", "wal.append", "core.resettle", "core.rerun"} {
		v := ms(n)
		r.set(n+"_ms", v)
		parts += v
	}
	var cpMs, tracedMs []float64
	for _, id := range cr.cps {
		cpMs = append(cpMs, 1000*spans[id-1].dur().Seconds())
	}
	for _, id := range cr.roots {
		tracedMs = append(tracedMs, 1000*spans[id-1].dur().Seconds())
	}
	r.record("checkpoint_ms", cpMs)
	r.record("traced_apply_ms", tracedMs)
	r.set("snapshot.checkpoint_ms", median(cpMs))
	r.set("rpi.marshal_ms", ms("rpi.marshal"))
	r.set("core.rerun_alloc_mb", ls.medianAllocMB("core.rerun"))
	r.set("rpi.apply_unattributed_ms", applyP50-parts)
	r.set("coverage.apply_unattributed_pct", 100*(applyP50-parts)/applyP50)
	r.set("trace.overhead_pct", 100*(median(tracedMs)-applyP50)/applyP50)
	setGoLayer(r, spans, cr.roots)
	r.prov["coverage_check"] = coverageCheck(r, "apply_p50_ms", applyP50, parts)
	return nil
}

// walPayloads returns the logged record bytes of the two deltas (by
// seq parity: index 0 holds the forward delta, 1 its inverse); an
// index stays nil while no such record is logged.
func walPayloads(dir string) ([2][]byte, error) {
	var out [2][]byte
	ents, err := os.ReadDir(dir)
	if err != nil {
		return out, err
	}
	for _, e := range ents {
		first, ok := wal.ParseSegmentName(e.Name())
		if !ok {
			continue
		}
		seq := first
		_, err := wal.Scan(wal.OS(), filepath.Join(dir, e.Name()), func(_ int64, p []byte) error {
			seq++
			out[(seq-1)%2] = append([]byte(nil), p...)
			return nil
		})
		if err != nil {
			return out, err
		}
	}
	return out, nil
}

// recoverTraced replays rpi.Open's recovery of the first crash through
// public functions: newest snapshot, restored inputs, context build,
// log scan and replay, and the first (cold) run beside the baseline.
// Records are replayed from the deltas in memory (the log's record
// codec is internal to rpi); the scan still reads every frame.
func recoverTraced(r *run, cl *churnLoop, recoverP50 float64) error {
	tr := r.tracer
	fsys := wal.OS()
	const trace = -1
	settle()
	root, end := tr.begin(trace, 0, "recover")
	var (
		snap *snapshot.Snap
		ok   bool
		in   rpi.Inputs
		ctx  *core.Context
		rep  *core.Report
		errs [6]error
	)
	tr.do(trace, root, "snapshot.load", func() { snap, _, _, ok, errs[0] = snapshot.Latest(fsys, cl.crashDir, ^uint64(0)) })
	if errs[0] != nil || !ok {
		end()
		return fmt.Errorf("no snapshot in the crashed directory: %v", errs[0])
	}
	tr.do(trace, root, "core.restore_inputs", func() { in, errs[1] = core.RestoreInputs(cl.base, snap) })
	tr.do(trace, root, "core.context_build", func() { ctx, errs[2] = core.NewContext(in) })
	tr.do(trace, root, "wal.scan", func() { _, errs[3] = walPayloads(cl.crashDir) })
	tr.do(trace, root, "core.replay", func() {
		for seq := snap.Seq + 1; seq <= cl.firstSeq && errs[4] == nil; seq++ {
			errs[4] = ctx.Apply(cl.deltas[(seq-1)%2])
		}
	})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		tr.do(trace, root, "core.baseline", func() { _, errs[5] = ctx.Baseline(core.DefaultBaselineThresholdMs) })
	}()
	var rerr error
	tr.do(trace, root, "core.run_cold", func() { rep, rerr = ctx.Run(core.DefaultOptions()) })
	wg.Wait()
	end()
	for _, err := range append(errs[:], rerr) {
		if err != nil {
			return fmt.Errorf("traced recovery: %w", err)
		}
	}
	b, err := rpi.MarshalReport(rep)
	if err != nil {
		return err
	}
	r.check("traced_recovery_report", bytes.Equal(b, cl.first),
		"the traced recovery's report differs from the pre-crash report")

	spans := tr.snapshot()
	self := func(name string) float64 {
		for _, s := range spans {
			if s.Parent == root && s.Name == name {
				return selfTime(spans, s.ID).Seconds()
			}
		}
		return 0
	}
	r.set("recover.snapshot_load_s", self("snapshot.load"))
	r.set("recover.context_build_s", self("core.restore_inputs")+self("core.context_build"))
	r.set("recover.replay_s", self("wal.scan")+self("core.replay"))
	r.set("recover.run_cold_s", self("core.run_cold"))
	r.set("recover.unattributed_s", recoverP50-childCover(spans, root).Seconds())
	return nil
}
