// Command perfbench is the repository's benchmark: three workloads,
// each chosen so that a different layer of rpeer does most of the work,
// run from a seed, checked for correctness, and reported as one JSON
// line.
//
//	perfbench -workload <name> -seed <n> -seconds <s> -trace <0|1> [-out dir]
//
// An untraced run (-trace 0) measures the end-to-end metrics. A traced
// run (-trace 1) measures the per-layer metrics: it repeats a shorter
// untraced pass, then replays the same work through the layers'
// public functions with a span around each call, and reports self
// times, counts, the share of the end-to-end time no span explains,
// and the tracing overhead. Spans are kept in memory and written to
// <out>/traces at the end.
//
// The last line of standard output is
//
//	{"correct": bool, "attempted": n, "failed": n, "metrics": {name: {"value": v, "unit": u}}}
//
// and the line before it holds the run's provenance and every raw
// sample. A failed correctness gate makes the run exit with status 1.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"
)

// metricDef names a reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the system sees, measured with
// tracing off. Every workload reports every one of them; what the
// timed operation is differs per workload (see workloads).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
	{"latency_p50_ms", "ms"},
}

// perLayer are the metrics of a traced run. Every workload reports
// every one of them; a layer a workload does not exercise reads 0.
var perLayer = []metricDef{
	// Workload-level figures from the untraced pass of the traced run.
	{"cold_to_serving_s", "s"},
	{"acc_pct", "%"}, {"cov_pct", "%"}, {"fpr_pct", "%"},
	{"apply_p50_ms", "ms"}, {"apply_p95_ms", "ms"}, {"recover_s", "s"},
	{"read_p50_ms", "ms"}, {"read_p99_ms", "ms"}, {"write_p99_ms", "ms"},
	{"slo_max_rps", "1/s"}, {"error_frac", "frac"},
	{"trace.overhead_pct", "%"},
	{"coverage.cold_unattributed_pct", "%"},
	{"coverage.apply_unattributed_pct", "%"},
	// cold-start-16x
	{"worldfile.read_s", "s"}, {"worldfile.decode_s", "s"},
	{"worldfile.bytes", "bytes"}, {"worldfile.decode_alloc_mb", "MB"},
	{"rpi.clone_s", "s"},
	{"core.context_build_s", "s"}, {"core.context_build_alloc_mb", "MB"},
	{"core.run_cold_s", "s"}, {"core.run_warm_s", "s"}, {"core.memo_fill_s", "s"},
	{"core.step1_s", "s"}, {"core.step2_3_s", "s"}, {"core.step4_s", "s"}, {"core.step5_s", "s"},
	{"core.baseline_s", "s"},
	{"rpi.marshal_s", "s"}, {"rpi.report_bytes", "bytes"}, {"rpi.unattributed_s", "s"},
	// churn-apply-4x
	{"core.validate_ms", "ms"}, {"core.resettle_ms", "ms"}, {"core.rerun_ms", "ms"},
	{"wal.append_ms", "ms"}, {"snapshot.checkpoint_ms", "ms"},
	{"rpi.marshal_ms", "ms"}, {"rpi.apply_unattributed_ms", "ms"},
	{"delta.churn", "count"}, {"wal.bytes_per_delta", "bytes"}, {"core.rerun_alloc_mb", "MB"},
	{"recover.snapshot_load_s", "s"}, {"recover.context_build_s", "s"},
	{"recover.replay_s", "s"}, {"recover.run_cold_s", "s"}, {"recover.unattributed_s", "s"},
	{"recover.replayed", "count"}, {"recover.snapshot_seq", "count"},
	// serve-mix-1x
	{"admission.read.admitted", "count"}, {"admission.read.shed", "count"}, {"admission.read.queued", "count"},
	{"admission.cheap.admitted", "count"}, {"admission.cheap.shed", "count"}, {"admission.cheap.queued", "count"},
	{"admission.write.admitted", "count"}, {"admission.write.shed", "count"}, {"admission.write.queued", "count"},
	{"host.lease_ms", "ms"}, {"rpi.report_for_ms", "ms"}, {"serve.handler_ms", "ms"},
	{"serve.reads_per_publication", "count"},
	{"loadgen.late_p99_ms", "ms"}, {"loadgen.backlog_max", "count"},
	// The go layer, per traced operation (repetition, delta or request).
	{"go.gc_cycles", "count"}, {"go.gc_cpu_s", "s"}, {"go.alloc_mb", "MB"},
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(*run) error{
	"cold-start-16x": coldStart,
	"churn-apply-4x": churnApply,
	"serve-mix-1x":   serveMix,
}

// setupReps is how many times each workload repeats its set-up; the
// reported setup_s is the median.
const setupReps = 5

// settle returns the previous repetition's memory to the OS before a
// timed phase, so that every repetition pays the page faults a fresh
// process pays, not only the first.
func settle() { debug.FreeOSMemory() }

// run is one invocation: its parameters, and everything it measured.
type run struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	out      string // build/output directory: world cache, temp dirs, traces

	cache  *worldCache
	tracer *tracer
	stderr io.Writer

	attempted, failed int
	gates             []gate
	values            map[string]float64
	samples           map[string]summary
	prov              map[string]any
}

// gate is one correctness check.
type gate struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail,omitempty"`
}

func (r *run) logf(format string, args ...any) {
	fmt.Fprintf(r.stderr, "perfbench: "+format+"\n", args...)
}

// check records a correctness gate; a failed gate counts as a failed
// operation.
func (r *run) check(name string, ok bool, detail string, args ...any) {
	g := gate{Name: name, OK: ok}
	if !ok {
		g.Detail = fmt.Sprintf(detail, args...)
		r.failed++
		r.attempted++
		r.logf("gate %s FAILED: %s", name, g.Detail)
	}
	r.gates = append(r.gates, g)
}

func (r *run) set(name string, v float64) { r.values[name] = v }

// record keeps a sample set (in the units its name says) for the
// provenance line.
func (r *run) record(name string, xs []float64) summary {
	s := summarize(xs)
	r.samples[name] = s
	return s
}

// tempDir makes a fresh directory under the output directory.
func (r *run) tempDir(pattern string) (string, error) {
	base := filepath.Join(r.out, "tmp")
	if err := os.MkdirAll(base, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(base, pattern)
}

func main() {
	os.Exit(mainErr(os.Args[1:], os.Stdout, os.Stderr))
}

func mainErr(args []string, stdout, stderr io.Writer) int {
	fl := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fl.SetOutput(stderr)
	workload := fl.String("workload", "", "workload name")
	seed := fl.Int64("seed", 1, "input seed")
	seconds := fl.Float64("seconds", 10, "measuring budget in seconds")
	traceFlag := fl.Int("trace", 0, "1 for the traced per-layer run")
	out := fl.String("out", ".bench_build", "directory for the world cache, temp data and traces")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	fn, ok := workloads[*workload]
	if !ok || *seconds <= 0 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintf(stderr, "perfbench: want -workload one of %s, -seconds > 0, -trace 0|1\n", strings.Join(workloadNames(), ", "))
		return 2
	}
	r := newRun(*workload, *seed, *seconds, *traceFlag == 1, *out, stderr)
	res, err := r.execute(fn)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *workload, err)
		return 1
	}
	if err := r.emit(stdout, res); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	if !res.Correct {
		return 1
	}
	return 0
}

func newRun(workload string, seed int64, seconds float64, trace bool, out string, stderr io.Writer) *run {
	r := &run{
		workload: workload, seed: seed, seconds: seconds, trace: trace, out: out, stderr: stderr,
		values: map[string]float64{}, samples: map[string]summary{}, prov: map[string]any{},
	}
	r.cache = &worldCache{dir: filepath.Join(out, "worlds"), logf: r.logf}
	if trace {
		r.tracer = newTracer()
	}
	return r
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// execute runs the workload and assembles its result. An error means
// the workload could not run at all (no result is printed).
func (r *run) execute(fn func(*run) error) (result, error) {
	if err := os.MkdirAll(r.out, 0o755); err != nil {
		return result{}, err
	}
	start := time.Now()
	if err := fn(r); err != nil {
		return result{}, err
	}
	r.prov["wall_s"] = time.Since(start).Seconds()
	r.set("peak_rss_mb", peakRSSMB())
	if r.attempted < 1 {
		return result{}, fmt.Errorf("no operation was attempted")
	}
	r.set("error_frac", float64(r.failed)/float64(r.attempted))
	res := result{Attempted: r.attempted, Failed: r.failed, Correct: true, Metrics: map[string]metricValue{}}
	for _, g := range r.gates {
		res.Correct = res.Correct && g.OK
	}
	defs := endToEnd
	if r.trace {
		defs = perLayer
	}
	for _, d := range defs {
		v, ok := r.values[d.name]
		if !ok && !r.trace {
			return result{}, fmt.Errorf("workload did not measure %s", d.name)
		}
		res.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	if r.tracer != nil {
		dir := filepath.Join(r.out, "traces")
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return result{}, err
		}
		path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", r.workload, r.seed))
		if err := r.tracer.write(path); err != nil {
			return result{}, err
		}
		r.prov["trace_file"] = path
	}
	return res, nil
}

// emit prints the provenance line, then the result line.
func (r *run) emit(w io.Writer, res result) error {
	prov := map[string]any{
		"workload":      r.workload,
		"seed":          r.seed,
		"seconds":       r.seconds,
		"trace":         r.trace,
		"nproc":         runtime.NumCPU(),
		"gomaxprocs":    runtime.GOMAXPROCS(0),
		"go_version":    runtime.Version(),
		"git_commit":    gitCommit(),
		"source_sha256": sourceHash(),
		"world_gen_s":   r.cache.genSeconds,
		"gates":         r.gates,
		"values":        r.values,
		"samples":       r.samples,
	}
	for k, v := range r.prov {
		prov[k] = v
	}
	line, err := json.Marshal(map[string]any{"provenance": prov})
	if err != nil {
		return err
	}
	last, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n%s\n", line, last)
	return err
}

// gitCommit is the VCS revision the binary was built from, when the
// build saw one.
func gitCommit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

// sourceHash digests the Go sources and module files under the working
// directory (the checkout root), so that runs in a checkout without
// VCS metadata still name the code they measured.
func sourceHash() string {
	h := sha256.New()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && strings.HasPrefix(d.Name(), ".") && path != "." {
			return filepath.SkipDir
		}
		if d.IsDir() || !(strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "go.mod")) {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		fmt.Fprintf(h, "%s %d\n", path, len(b))
		h.Write(b)
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))
}

// peakRSSMB reads the process's peak resident set (VmHWM).
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) > 0 {
				kb, err := strconv.ParseFloat(f[0], 64)
				if err == nil {
					return kb / 1024
				}
			}
		}
	}
	return 0
}
