// Command perfbench is the repository benchmark: it generates a named
// workload's inputs from a seed, drives the public surfaces users hit
// (the offline streaming driver, smaserve's HTTP API, the cluster
// coordinator's HTTP API), verifies every output against an oracle, and
// prints one JSON result line.
//
//	perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// With --trace 0 the result carries the end-to-end metrics, measured with
// tracing off. With --trace 1 the run measures untraced first, then
// repeats the workload with spans recorded around every layer call and
// reports the per-layer metrics, span coverage and tracing overhead.
// Progress, the measured Table 2 and per-layer self times go to standard
// error; a stamped result file (and, traced, the spans) go to -out.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// env is what every workload receives.
type env struct {
	seed    int64
	seconds time.Duration
	trace   bool
	quick   bool   // tiny sizes for the benchmark's own tests
	tmp     string // scratch root for data directories
	log     io.Writer
	// corrupt flips one byte of every output before it is checked; the
	// self-tests use it to prove the oracle catches a wrong answer.
	corrupt bool
}

func (e *env) logf(format string, args ...any) {
	if e.log != nil {
		fmt.Fprintf(e.log, format+"\n", args...)
	}
}

// check compares an output with the bytes it must equal.
func (e *env) check(got, want []byte) bool {
	if e.corrupt && len(got) > 0 {
		got = append([]byte(nil), got...)
		got[len(got)-1] ^= 0xff
	}
	return string(got) == string(want)
}

// report is what a workload measured.
type report struct {
	attempted, failed int
	e2e               map[string]metric
	layer             map[string]metric
	notes             map[string]any
	tr                *tracer
}

func newReport() *report {
	return &report{e2e: map[string]metric{}, layer: map[string]metric{}, notes: map[string]any{}}
}

// fail records a failed operation with its reason.
func (r *report) fail(e *env, format string, args ...any) {
	r.failed++
	e.logf("FAIL: "+format, args...)
}

type workload struct {
	name string
	run  func(ctx context.Context, e *env) (*report, error)
}

var workloads = []workload{
	{"pair-semifluid", runPairSemifluid},
	{"serve-mixed", runServeMixed},
	{"cluster-jobs", runClusterJobs},
}

// e2eUnits and layerUnits name every metric the benchmark emits; the
// self-tests hold BENCHMARK.json to these lists.
var e2eUnits = map[string]string{
	"setup_s":        "s",
	"pairs_per_s":    "pairs/s",
	"latency_p50_ms": "ms",
	"truth_rmse_px":  "px",
	"peak_rss_mb":    "MB",
}

var layerUnits = map[string]string{
	"prep.ms_per_frame":             "ms",
	"prep.fits_per_pair":            "count",
	"semimap.ms_per_pair":           "ms",
	"semimap.ns_per_entry":          "ns",
	"match.ms_per_pair":             "ms",
	"match.ns_per_hyp":              "ns",
	"match.hyp_per_px":              "count",
	"match.cpu_util":                "ratio",
	"codec.smf1_encode_us":          "us",
	"codec.smf1_bytes":              "B",
	"codec.pgm_decode_us":           "us",
	"serve.handler_ms_p50":          "ms",
	"serve.transport_ms_p50":        "ms",
	"serve.backoff_ms_per_req":      "ms",
	"serve.retries_per_req":         "count",
	"serve.queue_depth_mean":        "count",
	"serve.job_queue_wait_ms":       "ms",
	"serve.job_run_ms":              "ms",
	"serve.gen_lag_ms_p90":          "ms",
	"serve.track_p90_ms":            "ms",
	"serve.track_goodput_rps":       "1/s",
	"serve.job_p50_s":               "s",
	"journal.records_per_job":       "count",
	"journal.bytes_per_job":         "B",
	"journal.append_us":             "us",
	"store.field_bytes_per_job":     "B",
	"cluster.dispatch_ms_per_shard": "ms",
	"cluster.worker_ms_per_shard":   "ms",
	"cluster.dispatch_overhead_ms":  "ms",
	"cluster.wire_bytes_per_pair":   "B",
	"cluster.dispatch_retries":      "count",
	"cluster.job_queue_wait_ms":     "ms",
	"fail_frac":                     "ratio",
	"trace.coverage":                "ratio",
	"trace.overhead_ms":             "ms",
	"self.prep_ms":                  "ms",
	"self.semimap_ms":               "ms",
	"self.match_ms":                 "ms",
	"self.codec_ms":                 "ms",
	"self.stream_ms":                "ms",
	"self.serve_ms":                 "ms",
	"self.cluster_ms":               "ms",
	"self.client_ms":                "ms",
}

// result is the driver-facing last line of standard output.
type result struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]metricLine `json:"metrics"`
}

type metricLine struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	name := flag.String("workload", "", "workload name")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Float64("seconds", 10, "measurement seconds")
	trace := flag.Int("trace", 0, "1 = traced per-layer run")
	out := flag.String("out", ".bench_out", "directory for result and span files")
	tmp := flag.String("tmp", "", "scratch directory for data dirs (default: under -out)")
	flag.Parse()

	e := &env{seed: *seed, seconds: time.Duration(*seconds * float64(time.Second)), trace: *trace == 1, log: os.Stderr, tmp: *tmp}
	res, err := run(e, *name, *out)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// run executes one workload and returns the driver-facing result,
// writing the stamped result file under out.
func run(e *env, name, out string) (*result, error) {
	var w *workload
	for i := range workloads {
		if workloads[i].name == name {
			w = &workloads[i]
		}
	}
	if w == nil {
		var names []string
		for _, w := range workloads {
			names = append(names, w.name)
		}
		return nil, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(names, ", "))
	}
	if e.seconds <= 0 {
		return nil, errors.New("--seconds must be positive")
	}
	runtime.GOMAXPROCS(runtime.NumCPU())
	if err := os.MkdirAll(out, 0o755); err != nil {
		return nil, err
	}
	if e.tmp == "" {
		e.tmp = filepath.Join(out, "tmp")
	}
	if err := os.MkdirAll(e.tmp, 0o755); err != nil {
		return nil, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), 170*time.Second)
	defer cancel()

	rep, err := w.run(ctx, e)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	rep.e2e["peak_rss_mb"] = scalar("MB", peakRSSMB())
	if rep.attempted > 0 {
		rep.layer["fail_frac"] = scalar("ratio", float64(rep.failed)/float64(rep.attempted))
	}

	want, got := e2eUnits, rep.e2e
	if e.trace {
		want, got = layerUnits, rep.layer
		for k, u := range layerUnits {
			if _, ok := got[k]; !ok {
				got[k] = scalar(u, 0) // the layer is not on this workload's path
			}
		}
	}
	res := &result{Correct: rep.failed == 0 && rep.attempted > 0, Attempted: rep.attempted, Failed: rep.failed, Metrics: map[string]metricLine{}}
	for k, u := range want {
		m, ok := got[k]
		if !ok || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return nil, fmt.Errorf("%s: metric %s was not measured", name, k)
		}
		res.Metrics[k] = metricLine{Value: m.Value, Unit: u}
	}
	if err := writeResult(e, name, out, rep, res); err != nil {
		return nil, err
	}
	return res, nil
}

// stamp describes the host and run a result came from.
type stamp struct {
	Workload   string  `json:"workload"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Trace      bool    `json:"trace"`
	Cores      int     `json:"cores"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	Commit     string  `json:"commit"`
	Time       string  `json:"time"`
}

func writeResult(e *env, name, out string, rep *report, res *result) error {
	kind := "e2e"
	if e.trace {
		kind = "trace"
	}
	base := filepath.Join(out, fmt.Sprintf("%s-seed%d-%s", name, e.seed, kind))
	doc := struct {
		Stamp     stamp             `json:"stamp"`
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		E2E       map[string]metric `json:"end_to_end"`
		Layer     map[string]metric `json:"per_layer,omitempty"`
		Notes     map[string]any    `json:"notes,omitempty"`
	}{
		Stamp: stamp{
			Workload: name, Seed: e.seed, Seconds: e.seconds.Seconds(), Trace: e.trace,
			Cores: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
			Commit: commit(), Time: time.Now().UTC().Format(time.RFC3339),
		},
		Correct: res.Correct, Attempted: rep.attempted, Failed: rep.failed,
		E2E: rep.e2e, Notes: rep.notes,
	}
	if e.trace {
		doc.Layer = rep.layer
		if err := writeSpans(base+"-spans.json", rep.tr); err != nil {
			return err
		}
	}
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(base+".json", data, 0o644)
}

// commit reads the checked-out commit from .git when there is one.
func commit() string {
	head, err := os.ReadFile(".git/HEAD")
	if err != nil {
		return "unknown"
	}
	ref, ok := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !ok {
		return strings.TrimSpace(string(head))
	}
	if id, err := os.ReadFile(filepath.Join(".git", ref)); err == nil {
		return strings.TrimSpace(string(id))
	}
	if packed, err := os.ReadFile(".git/packed-refs"); err == nil {
		for _, line := range strings.Split(string(packed), "\n") {
			if id, r, ok := strings.Cut(line, " "); ok && r == ref {
				return id
			}
		}
	}
	return "unknown"
}

// timeSetups runs set-up n times and returns each duration in seconds;
// fn(last) builds one complete instance, and only the last is kept.
func timeSetups(n int, fn func(last bool) error) ([]float64, error) {
	var xs []float64
	for i := 0; i < n; i++ {
		t0 := time.Now()
		if err := fn(i == n-1); err != nil {
			return nil, err
		}
		xs = append(xs, time.Since(t0).Seconds())
	}
	return xs, nil
}

// summarizeTrace adds the span-derived metrics every traced workload
// shares: per-layer self time per operation and span coverage. Coverage
// below 90% of the root wall time counts as a failure.
func summarizeTrace(e *env, r *report, roots ...string) {
	root := strings.Join(roots, "+")
	layers, uncovered, wall, n := selfTimes(r.tr.spans(), roots...)
	if n == 0 || wall <= 0 {
		r.fail(e, "trace recorded no %s spans", root)
		return
	}
	cov := 1 - float64(uncovered)/float64(wall)
	r.layer["trace.coverage"] = scalar("ratio", cov)
	self := map[string]float64{}
	var names []string
	for l, d := range layers {
		self[l] = ms(d) / float64(n)
		names = append(names, l)
		if _, ok := layerUnits["self."+l+"_ms"]; ok {
			r.layer["self."+l+"_ms"] = scalar("ms", self[l])
		}
	}
	sort.Strings(names)
	e.logf("self time per %s (ms, %d traced): %s", root, n, fmtSelf(names, self))
	e.logf("span coverage of %s wall time: %.1f%%", root, 100*cov)
	r.notes["self_ms_per_op"] = self
	r.notes["coverage"] = cov
	if cov < 0.9 {
		r.fail(e, "spans cover %.1f%% of %s wall time; %.1f%% is unaccounted for", 100*cov, root, 100*(1-cov))
	}
}

func fmtSelf(names []string, self map[string]float64) string {
	var b strings.Builder
	for i, n := range names {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%s %.3f", n, self[n])
	}
	return b.String()
}
