// Command perfbench is the repository's wall-clock benchmark. It times
// calls into the public functions of the real-plane factorization
// (mat, core, blas, checksum), the reliability campaign engine and the
// job daemon from outside, checks every output, and prints one JSON
// result line. README.md in this directory lists the workloads, the
// metrics and which layer moves which metric.
//
//	bash perfbench/run.sh --workload factor-real --seed 1 --seconds 10 --trace 0
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// sample is what one timed step produced. Lat holds one latency per
// op, or one amortized per-op latency when the step's ops are not
// separately observable (a campaign call's trials).
type sample struct {
	Lat    []float64
	Ops    int
	Failed int
}

// workload is one named benchmark input set.
type workload interface {
	// sizes describes the inputs for the result header.
	sizes() map[string]any
	// setup builds every fixture the timed steps use and runs any
	// warm-up; it may be called again after close.
	setup() error
	// prepare readies step i outside the timed region.
	prepare(i int) error
	// step runs timed step i. A nil recorder means an untraced step.
	// The error is reserved for harness faults that void the run
	// (a replay that drifted from the program); wrong outputs are
	// counted in sample.Failed.
	step(rec *recorder, i int) (sample, error)
	// layers turns a traced run's spans and counters into per-layer
	// metrics; ops is the number of ops the traced steps ran.
	layers(rec *recorder, ops int) map[string]float64
	close()
}

// config is one benchmark invocation.
type config struct {
	Workload string
	Seed     int64
	Seconds  int
	Trace    bool
	TraceDir string
	// Tiny shrinks every input so a run finishes in about a second;
	// the benchmark's own tests use it.
	Tiny bool
}

// setupRuns is how many times set-up is repeated; setup_s is the
// median.
const setupRuns = 3

func newWorkload(c config) (workload, error) {
	switch c.Workload {
	case "solve-real":
		return newSolveReal(c), nil
	case "factor-real":
		return newFactorReal(c)
	case "campaign":
		return newCampaignLoad(c), nil
	case "serve-sweep":
		return newServeSweep(c), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want solve-real, factor-real, campaign or serve-sweep)", c.Workload)
}

func main() {
	var c config
	flag.StringVar(&c.Workload, "workload", "", "solve-real, factor-real, campaign or serve-sweep")
	flag.Int64Var(&c.Seed, "seed", 1, "seed every input is derived from")
	flag.IntVar(&c.Seconds, "seconds", 10, "length of the timed region")
	trace := flag.Int("trace", 0, "1: traced run reporting per-layer metrics")
	flag.StringVar(&c.TraceDir, "trace-dir", ".bench_build/trace", "where a traced run writes its spans")
	flag.Parse()
	c.Trace = *trace == 1
	if err := run(c, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// run executes one benchmark invocation and writes the header, a
// details line and the result line to out.
func run(c config, out io.Writer) error {
	w, err := newWorkload(c)
	if err != nil {
		return err
	}
	if err := emit(out, "header", header(c, w)); err != nil {
		return err
	}

	var setups []float64
	for r := 0; r < setupRuns; r++ {
		if r > 0 {
			w.close()
		}
		t0 := time.Now()
		if err := w.setup(); err != nil {
			w.close()
			return fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer w.close()

	var rec *recorder
	if c.Trace {
		rec = newRecorder()
	}
	rss := startRSSSampler()
	defer rss.stop()
	var lat, tracedLat, plainLat, peaks []float64
	attempted, failed, tracedOps := 0, 0, 0
	wall := 0.0 // time spent inside steps
	deadline := time.Now().Add(time.Duration(c.Seconds) * time.Second)
	for i := 0; i == 0 || time.Now().Before(deadline); i++ {
		// Every step starts from a collected heap, so the peak RSS
		// reflects what a step needs rather than where the GC pacer
		// happened to be; the collection is not timed.
		runtime.GC()
		if err := w.prepare(i); err != nil {
			return fmt.Errorf("step %d: %w", i, err)
		}
		// A traced run alternates traced and untraced steps; the
		// difference between the two is the tracing overhead.
		var r *recorder
		if rec != nil && i%2 == 0 {
			r = rec
		}
		rss.reset()
		t0 := time.Now()
		s, err := w.step(r, i)
		wall += time.Since(t0).Seconds()
		peaks = append(peaks, rss.peakMB())
		if err != nil {
			return fmt.Errorf("step %d: %w", i, err)
		}
		lat = append(lat, s.Lat...)
		attempted += s.Ops
		failed += s.Failed
		if r != nil {
			tracedLat = append(tracedLat, s.Lat...)
			tracedOps += s.Ops
		} else {
			plainLat = append(plainLat, s.Lat...)
		}
	}

	pct := tailPercentile(len(lat))
	tail := quantile(lat, pct/100)
	beyond := 0
	if pct == 0 {
		// Too few samples for a tail with ten beyond it: report the
		// maximum and say so in the details line.
		pct, tail = 100, quantile(lat, 1)
	}
	for _, v := range lat {
		if v > tail {
			beyond++
		}
	}
	details := map[string]any{
		"samples":            len(lat),
		"op_tail_percentile": pct,
		"op_tail_beyond":     beyond,
		"fail_ratio":         float64(failed) / float64(attempted),
		"timed_wall_s":       wall,
		"setup_runs_s":       setups,
	}

	res := result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: map[string]metric{}}
	if !c.Trace {
		res.Metrics = map[string]metric{
			"setup_s":     {median(setups), "s"},
			"op_p50_s":    {median(lat), "s"},
			"op_tail_s":   {tail, "s"},
			"ops_per_s":   {float64(attempted) / wall, "1/s"},
			"ok_ratio":    {1 - float64(failed)/float64(attempted), "ratio"},
			"peak_rss_mb": {median(peaks), "MB"},
		}
	} else {
		vals := w.layers(rec, tracedOps)
		if len(plainLat) > 0 && len(tracedLat) > 0 {
			vals["trace.overhead_pct"] = 100 * (median(tracedLat)/median(plainLat) - 1)
		}
		for _, l := range perLayer {
			res.Metrics[l.name] = metric{vals[l.name], l.unit}
		}
		spans := rec.closed()
		path := filepath.Join(c.TraceDir, fmt.Sprintf("%s-seed%d.jsonl", c.Workload, c.Seed))
		if err := writeSpans(path, spans); err != nil {
			return fmt.Errorf("write spans: %w", err)
		}
		details["trace_file"] = path
		details["spans"] = len(spans)
		details["traced_ops"] = tracedOps
		details["layer_self_s"] = selfSummary(spans, tracedOps)
	}
	if err := emit(out, "details", details); err != nil {
		return err
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(out, "%s\n", line)
	return err
}

// perLayer is every per-layer metric a traced run reports, in
// BENCHMARK.json order. A layer a workload never calls reads 0.
var perLayer = []struct{ name, unit string }{
	{"mat.randspd_s", "s"},
	{"mat.residual_s", "s"},
	{"core.run_s", "s"},
	{"core.other_s", "s"},
	{"core.run_magma_s", "s"},
	{"core.abft_overhead_pct", "%"},
	{"core.verified_blocks", "count"},
	{"core.corrections", "count"},
	{"blas.gemm_s", "s"},
	{"blas.syrk_s", "s"},
	{"blas.trsm_s", "s"},
	{"blas.potf2_s", "s"},
	{"blas.gemm_gflops", "GFLOP/s"},
	{"blas.syrk_gflops", "GFLOP/s"},
	{"blas.trsm_gflops", "GFLOP/s"},
	{"blas.gemm_calls", "count"},
	{"blas.syrk_calls", "count"},
	{"blas.trsm_calls", "count"},
	{"blas.potf2_calls", "count"},
	{"checksum.encode_s", "s"},
	{"checksum.update_s", "s"},
	{"checksum.verify_s", "s"},
	{"checksum.update_calls", "count"},
	{"checksum.verify_calls", "count"},
	{"campaign.plan_s", "s"},
	{"campaign.execute_s", "s"},
	{"campaign.classify_s", "s"},
	{"fault.scenarios", "count"},
	{"fault.propagation_events", "count"},
	{"reliability.clean", "count"},
	{"reliability.corrected", "count"},
	{"reliability.uncorrectable", "count"},
	{"reliability.silent", "count"},
	{"hetsim.kernels", "count"},
	{"hetsim.kernels_per_s", "1/s"},
	{"experiments.points_planned", "count"},
	{"experiments.points_submitted", "count"},
	{"server.submit_s", "s"},
	{"server.wait_s", "s"},
	{"server.result_s", "s"},
	{"server.queue_wait_s", "s"},
	{"server.exec_s", "s"},
	{"server.executed_ratio", "ratio"},
	{"server.executed_jobs", "count"},
	{"server.submitted_jobs", "count"},
	{"server.rejected", "count"},
	{"trace.overhead_pct", "%"},
}

// perOp converts span totals into mean seconds per op for the given
// span names; a layer that recorded nothing reads 0.
func perOp(total map[string]time.Duration, ops int, names map[string]string) map[string]float64 {
	out := map[string]float64{}
	for metric, span := range names {
		if ops > 0 {
			out[metric] = total[span].Seconds() / float64(ops)
		}
	}
	return out
}

// selfSummary reports each span name's self time per op.
func selfSummary(spans []span, ops int) map[string]float64 {
	_, self := layerTotals(spans)
	out := map[string]float64{}
	for name, d := range self {
		out[name] = d.Seconds() / float64(max(ops, 1))
	}
	return out
}

// emit writes one {"<key>": v} JSON line.
func emit(out io.Writer, key string, v any) error {
	line, err := json.Marshal(map[string]any{key: v})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(out, "%s\n", line)
	return err
}

// header records what a reader needs to compare two results.
func header(c config, w workload) map[string]any {
	return map[string]any{
		"workload":   c.Workload,
		"seed":       c.Seed,
		"seconds":    c.Seconds,
		"trace":      c.Trace,
		"tiny":       c.Tiny,
		"setup_runs": setupRuns,
		"toolchain":  runtime.Version(),
		"goos":       runtime.GOOS,
		"goarch":     runtime.GOARCH,
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"nproc":      runtime.NumCPU(),
		"cpu_model":  cpuModel(),
		"sizes":      w.sizes(),
	}
}

// cpuModel reads the processor name on Linux ("unknown" elsewhere).
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// splitmix derives the i-th sub-seed of a root seed.
func splitmix(seed int64, i int) int64 {
	z := uint64(seed) + uint64(i+1)*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64(z ^ (z >> 31))
}
