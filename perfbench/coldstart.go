package main

import (
	"bytes"
	"fmt"
	"os"

	"sync"
	"time"

	"rpeer/internal/core"
	"rpeer/internal/worldfile"
	"rpeer/pkg/rpi"
)

const coldScale = 16

// A run makes seconds/coldRepSeconds cold repetitions, at least
// minColdReps: a count fixed by the run's arguments, so every run with
// the same arguments does the same work whatever the machine's speed.
const (
	coldRepSeconds = 4.5
	minColdReps    = 3
)

// Methodology quality floor (the paper's Table 4 reports ~95% ACC,
// 93% COV and 4% FPR; the synthetic worlds land a few points lower).
const (
	minACC = 0.85
	minCOV = 0.70
	maxFPR = 0.10
)

// coldStart is cold-start-16x: open the seed's 16x world file, build
// an engine over it and marshal its /v1 report, repeated in one
// process. The world-file decoder, the context build and the cold memo
// fill of the first pipeline run do almost all the work; the log, the
// snapshot store and the serving plane do none.
//
// The timed operation (latency_*) is the whole cold path, from opening
// the .rpw to holding the report bytes. Set-up is the world-cache
// check (a full decode) and building the ground-truth validation set.
func coldStart(r *run) error {
	path, val, err := coldSetup(r, coldScale)
	if err != nil {
		return err
	}
	cr := &coldRun{r: r, path: path, val: val}
	if r.trace {
		cr.tr = &coldTrace{opt: core.DefaultOptions()}
	}
	// A traced run alternates untraced and traced repetitions, so that
	// a drift in machine speed moves both sides of the coverage check
	// alike; the pairs take about twice as long, so it makes half as
	// many.
	reps := int(r.seconds / coldRepSeconds)
	if r.trace {
		reps /= 2
	}
	for i := 0; i < max(reps, minColdReps); i++ {
		if err := cr.rep(i); err != nil {
			return err
		}
		if cr.tr != nil {
			if err := cr.tracedRep(i); err != nil {
				return err
			}
		}
	}
	ms := make([]float64, len(cr.durs))
	for i, s := range cr.durs {
		ms[i] = s * 1000
	}
	lat := r.record("latency_ms", ms)
	r.record("cold_cpu_s", cr.cpu)
	r.record("cold_steal_s", cr.steal)
	r.set("latency_p50_ms", lat.P50)
	r.set("cold_to_serving_s", lat.P50/1000)
	if cr.tr != nil {
		return cr.report(lat.P50 / 1000)
	}
	return nil
}

// coldSetup makes sure the world is cached (generation is untimed),
// then times the set-up setupReps times.
func coldSetup(r *run, scale int) (string, *rpi.Validation, error) {
	path, fp, err := r.cache.ensure(r.seed, scale)
	if err != nil {
		return "", nil, err
	}
	r.prov["fingerprint"] = fmt.Sprintf("%016x", fp)
	r.prov["scale"] = scale
	var (
		setups []float64
		val    *rpi.Validation
	)
	for i := 0; i < setupReps; i++ {
		settle()
		start := time.Now()
		in, err := worldfile.Load(path)
		if err != nil {
			return "", nil, err
		}
		if core.Fingerprint(in) != fp {
			return "", nil, fmt.Errorf("world %s changed under the run", path)
		}
		val = rpi.BuildValidation(in.World, rpi.DefaultValidationConfig())
		setups = append(setups, time.Since(start).Seconds())
	}
	r.set("setup_s", r.record("setup_s", setups).P50)
	return path, val, nil
}

// coldRun is the cold-start loop and what it observed.
type coldRun struct {
	r    *run
	path string
	val  *rpi.Validation
	tr   *coldTrace // nil when untraced

	// ref is the first repetition's report; every later one must match.
	ref []byte
	// Per untraced repetition: wall, process CPU and stolen seconds.
	durs, cpu, steal []float64
}

// coldTrace is what the traced repetitions recorded.
type coldTrace struct {
	opt                    core.Options
	roots                  []int
	fileBytes, reportBytes int
}

// rep runs the untraced cold path once: read and decode the world
// file, rpi.New, marshal the report.
func (cr *coldRun) rep(i int) error {
	r := cr.r
	settle()
	c0 := readCPU()
	t0 := time.Now()
	data, err := os.ReadFile(cr.path)
	if err != nil {
		return err
	}
	in, err := worldfile.Decode(data)
	if err != nil {
		return err
	}
	eng, err := rpi.New(in)
	if err != nil {
		return err
	}
	b, err := rpi.MarshalReport(eng.Snapshot())
	if err != nil {
		return err
	}
	cr.durs = append(cr.durs, time.Since(t0).Seconds())
	c := readCPU().sub(c0)
	cr.cpu, cr.steal = append(cr.cpu, c.cpu.Seconds()), append(cr.steal, c.steal.Seconds())
	r.attempted++
	if cr.ref != nil {
		r.check(fmt.Sprintf("identical_report_rep%d", i), bytes.Equal(b, cr.ref),
			"repetition %d marshaled %d bytes that differ from repetition 0 (%d bytes)", i, len(b), len(cr.ref))
		return nil
	}
	cr.ref = b
	m := rpi.Evaluate(eng.Snapshot(), cr.val)
	r.set("acc_pct", 100*m.ACC)
	r.set("cov_pct", 100*m.COV)
	r.set("fpr_pct", 100*m.FPR)
	r.check("quality", m.ACC >= minACC && m.COV >= minCOV && m.FPR <= maxFPR,
		"ACC %.3f COV %.3f FPR %.3f outside ACC>=%.2f COV>=%.2f FPR<=%.2f", m.ACC, m.COV, m.FPR, minACC, minCOV, maxFPR)
	return nil
}

// tracedRep replays the cold path through the layers' public
// functions, in the order and with the concurrency rpi.New uses (the
// baseline scan overlaps the first run), with a span around each call;
// then it times a warm re-run over the same context.
func (cr *coldRun) tracedRep(i int) error {
	r, tr, ct := cr.r, cr.r.tracer, cr.tr
	settle()
	var (
		data []byte
		in   rpi.Inputs
		ctx  *core.Context
		rep  *core.Report
		b    []byte
		errs [6]error
	)
	root, end := tr.begin(i, 0, "cold")
	tr.do(i, root, "worldfile.read", func() { data, errs[0] = os.ReadFile(cr.path) })
	tr.do(i, root, "worldfile.decode", func() { in, errs[1] = worldfile.Decode(data) })
	if errs[0] == nil && errs[1] == nil {
		tr.do(i, root, "rpi.clone", func() { in.Dataset = in.Dataset.Clone() })
		tr.do(i, root, "core.context_build", func() { ctx, errs[2] = core.NewContext(in) })
	}
	if ctx != nil {
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			tr.do(i, root, "core.baseline", func() { _, errs[3] = ctx.Baseline(core.DefaultBaselineThresholdMs) })
		}()
		tr.do(i, root, "core.run_cold", func() { rep, errs[4] = ctx.Run(ct.opt) })
		wg.Wait()
	}
	if rep != nil {
		tr.do(i, root, "rpi.marshal", func() { b, errs[5] = rpi.MarshalReport(rep) })
	}
	end()
	for _, err := range errs {
		if err != nil {
			return fmt.Errorf("traced cold path: %w", err)
		}
	}
	r.attempted++
	r.check(fmt.Sprintf("traced_report_rep%d", i), bytes.Equal(b, cr.ref),
		"the traced cold path marshaled a report that differs from rpi.New's")
	var err error
	tr.do(i, 0, "core.run_warm", func() { _, err = ctx.Run(ct.opt) })
	ct.roots = append(ct.roots, root)
	ct.fileBytes, ct.reportBytes = len(data), len(b)
	return err
}

// report times the steps, then turns the spans into the per-layer
// metrics. untraced is the median untraced cold path in seconds.
func (cr *coldRun) report(untraced float64) error {
	r, ct := cr.r, cr.tr
	if err := stepsTraced(r, cr.path, ct.opt); err != nil {
		return err
	}
	spans := r.tracer.snapshot()
	ls := aggregate(spans)
	var tracedTotal, covered []float64
	for _, id := range ct.roots {
		tracedTotal = append(tracedTotal, spans[id-1].dur().Seconds())
		covered = append(covered, childCover(spans, id).Seconds())
	}
	r.record("traced_cold_s", tracedTotal)
	r.record("traced_cold_covered_s", covered)
	r.set("worldfile.read_s", ls.medianSelf("worldfile.read"))
	r.set("worldfile.decode_s", ls.medianSelf("worldfile.decode"))
	r.set("worldfile.bytes", float64(ct.fileBytes))
	r.set("worldfile.decode_alloc_mb", ls.medianAllocMB("worldfile.decode"))
	r.set("rpi.clone_s", ls.medianSelf("rpi.clone"))
	r.set("core.context_build_s", ls.medianSelf("core.context_build"))
	r.set("core.context_build_alloc_mb", ls.medianAllocMB("core.context_build"))
	runCold, runWarm := ls.medianSelf("core.run_cold"), ls.medianSelf("core.run_warm")
	r.set("core.run_cold_s", runCold)
	r.set("core.run_warm_s", runWarm)
	r.set("core.memo_fill_s", runCold-runWarm)
	r.set("core.baseline_s", ls.medianSelf("core.baseline"))
	r.set("rpi.marshal_s", ls.medianSelf("rpi.marshal"))
	r.set("rpi.report_bytes", float64(ct.reportBytes))
	for _, s := range stepSpans {
		r.set(s.metric, ls.medianSelf(s.span))
	}
	unattributed := untraced - median(covered)
	r.set("rpi.unattributed_s", unattributed)
	r.set("coverage.cold_unattributed_pct", 100*unattributed/untraced)
	r.set("trace.overhead_pct", 100*(median(tracedTotal)-untraced)/untraced)
	setGoLayer(r, spans, ct.roots)
	r.prov["coverage_check"] = coverageCheck(r, "cold_to_serving_s", untraced, median(covered))
	return nil
}

// stepSpans are the per-step spans of stepsTraced and their metrics.
var stepSpans = []struct {
	step         core.Step
	span, metric string
}{
	{core.StepPortCapacity, "core.step1", "core.step1_s"},
	{core.StepRTTColo, "core.step2_3", "core.step2_3_s"},
	// RunStep(Step 4) seeds its propagation from a full pipeline run,
	// so core.step4_s carries the whole cold memo fill and Step 5 then
	// runs warm, over every membership (in isolation no earlier step
	// has decided any).
	{core.StepMultiIXP, "core.step4", "core.step4_s"},
	{core.StepPrivate, "core.step5", "core.step5_s"},
}

// stepsTraced times each methodology step with RunStep, in pipeline
// order, on a fresh context.
func stepsTraced(r *run, path string, opt core.Options) error {
	settle()
	in, err := worldfile.Load(path)
	if err != nil {
		return err
	}
	in.Dataset = in.Dataset.Clone()
	ctx, err := core.NewContext(in)
	if err != nil {
		return err
	}
	root, end := r.tracer.begin(-1, 0, "steps")
	defer end()
	for _, s := range stepSpans {
		var err error
		r.tracer.do(-1, root, s.span, func() { _, err = ctx.RunStep(opt, s.step) })
		if err != nil {
			return err
		}
	}
	return nil
}
