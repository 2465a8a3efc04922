package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
	"time"

	"abftchol/internal/core"
	"abftchol/internal/hetsim"
)

var workloads = []string{"solve-real", "factor-real", "campaign", "serve-sweep"}

// runTiny runs one tiny-size invocation and returns its result line.
func runTiny(t *testing.T, name string, trace bool, seed int64) result {
	t.Helper()
	var out bytes.Buffer
	c := config{Workload: name, Seed: seed, Trace: trace, TraceDir: t.TempDir(), Tiny: true}
	if err := run(c, &out); err != nil {
		t.Fatalf("%s (trace %v): %v", name, trace, err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("%s: want header, details and result lines, got %d lines", name, len(lines))
	}
	var res result
	if err := json.Unmarshal([]byte(lines[2]), &res); err != nil {
		t.Fatalf("%s: result line: %v", name, err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Fatalf("%s (trace %v): correct=%v attempted=%d failed=%d", name, trace, res.Correct, res.Attempted, res.Failed)
	}
	return res
}

// benchmarkSpec is the part of ../BENCHMARK.json the tests check.
type benchmarkSpec struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func loadSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

// TestTinyEmitsEveryMetric runs every workload at tiny size, untraced
// and traced, and checks each result names exactly the metrics
// BENCHMARK.json declares, with their units.
func TestTinyEmitsEveryMetric(t *testing.T) {
	spec := loadSpec(t)
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if strings.Join(names, ",") != strings.Join(workloads, ",") {
		t.Fatalf("BENCHMARK.json workloads %v, benchmark runs %v", names, workloads)
	}
	for _, name := range workloads {
		t.Run(name, func(t *testing.T) {
			for _, tc := range []struct {
				trace bool
				want  []struct{ Name, Unit string }
			}{{false, spec.EndToEnd}, {true, spec.PerLayer}} {
				res := runTiny(t, name, tc.trace, 7)
				if len(res.Metrics) != len(tc.want) {
					t.Errorf("trace %v: %d metrics, BENCHMARK.json declares %d", tc.trace, len(res.Metrics), len(tc.want))
				}
				for _, m := range tc.want {
					got, ok := res.Metrics[m.Name]
					if !ok || got.Unit != m.Unit {
						t.Errorf("trace %v: metric %s = %+v, want unit %q", tc.trace, m.Name, got, m.Unit)
					}
				}
				if !tc.trace {
					for _, m := range spec.EndToEnd {
						if !(res.Metrics[m.Name].Value > 0) {
							t.Errorf("%s = %v, want > 0", m.Name, res.Metrics[m.Name].Value)
						}
					}
				}
			}
		})
	}
}

// TestLayerSplit checks the layer split each workload is built to
// isolate: solve-real is mostly mat, factor-real never calls mat and
// spends most of core.Run in blas and checksum, and the campaign calls
// neither.
func TestLayerSplit(t *testing.T) {
	v := func(res result, name string) float64 { return res.Metrics[name].Value }
	solve := runTiny(t, "solve-real", true, 3)
	if v(solve, "mat.randspd_s") <= 0 || v(solve, "mat.residual_s") <= 0 || v(solve, "core.run_s") <= 0 {
		t.Errorf("solve-real layers: %+v", solve.Metrics)
	}
	factor := runTiny(t, "factor-real", true, 3)
	if v(factor, "mat.randspd_s")+v(factor, "mat.residual_s") > 0 {
		t.Errorf("factor-real spent time in mat")
	}
	if v(factor, "core.corrections") != 2 || v(factor, "checksum.verify_calls") != v(factor, "core.verified_blocks") {
		t.Errorf("factor-real counts: corrections %v, verify calls %v, verified blocks %v",
			v(factor, "core.corrections"), v(factor, "checksum.verify_calls"), v(factor, "core.verified_blocks"))
	}
	camp := runTiny(t, "campaign", true, 3)
	for _, name := range []string{"blas.gemm_s", "blas.syrk_s", "blas.trsm_s", "blas.potf2_s", "checksum.encode_s", "checksum.update_s", "checksum.verify_s", "mat.randspd_s"} {
		if v(camp, name) != 0 {
			t.Errorf("campaign: %s = %v, want 0", name, v(camp, name))
		}
	}
	if v(camp, "campaign.execute_s") <= 0 {
		t.Errorf("campaign.execute_s = %v", v(camp, "campaign.execute_s"))
	}
}

// TestExactCountsRepeat checks that the counts a traced run reports
// are a function of the seed alone.
func TestExactCountsRepeat(t *testing.T) {
	counts := []string{"fault.scenarios", "fault.propagation_events", "reliability.clean", "reliability.corrected",
		"reliability.uncorrectable", "reliability.silent", "hetsim.kernels"}
	a := runTiny(t, "campaign", true, 11)
	b := runTiny(t, "campaign", true, 11)
	total := 0.0
	for _, name := range counts {
		if a.Metrics[name] != b.Metrics[name] {
			t.Errorf("%s: %v then %v", name, a.Metrics[name].Value, b.Metrics[name].Value)
		}
		total += a.Metrics[name].Value
	}
	if total == 0 {
		t.Error("campaign counted nothing")
	}
}

func TestSelfTime(t *testing.T) {
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	spans := []span{
		{ID: 1, Name: "root", Start: ms(0), End: ms(100)},
		// Two overlapping children covering 10..40, one nested inside
		// the first, and one sticking out past the parent's end.
		{ID: 2, Parent: 1, Name: "a", Start: ms(10), End: ms(30)},
		{ID: 3, Parent: 1, Name: "b", Start: ms(20), End: ms(40)},
		{ID: 4, Parent: 2, Name: "c", Start: ms(12), End: ms(18)},
		{ID: 5, Parent: 1, Name: "d", Start: ms(90), End: ms(120)},
		// A disjoint child.
		{ID: 6, Parent: 1, Name: "e", Start: ms(50), End: ms(60)},
	}
	want := map[int]time.Duration{
		1: ms(100 - 30 - 10 - 10), // covered: 10..40, 50..60, 90..100
		2: ms(20 - 6),
		3: ms(20),
		4: ms(6),
		5: ms(30),
		6: ms(10),
	}
	got := selfTimes(spans)
	for id, w := range want {
		if got[id] != w {
			t.Errorf("span %d self time %v, want %v", id, got[id], w)
		}
	}
	total, self := layerTotals(spans)
	if total["root"] != ms(100) || self["root"] != ms(50) {
		t.Errorf("root total %v self %v", total["root"], self["root"])
	}
}

func TestTailPercentile(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
	}{{19, 0}, {20, 50}, {99, 50}, {100, 90}, {999, 90}, {1000, 99}, {10000, 99.9}} {
		if got := tailPercentile(tc.n); got != tc.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", tc.n, got, tc.want)
		}
	}
	xs := []float64{5, 1, 4, 2, 3}
	if quantile(xs, 0.5) != 3 || quantile(xs, 1) != 5 || quantile(xs, 0) != 1 {
		t.Errorf("quantile of %v: %v %v %v", xs, quantile(xs, 0.5), quantile(xs, 1), quantile(xs, 0))
	}
}

// TestCrossCheckCatchesDrift checks that the factor-real replay agrees
// with core.Run's own counts, and that a replay issuing one call more
// than the program fails the check.
func TestCrossCheckCatchesDrift(t *testing.T) {
	w, err := newFactorReal(config{Seed: 5, Tiny: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.setup(); err != nil {
		t.Fatal(err)
	}
	inj := w.injections(0)
	res, err := core.Run(w.options(core.SchemeEnhanced, inj))
	if err != nil {
		t.Fatal(err)
	}
	got, err := w.replay(nil, 1, inj)
	if err != nil {
		t.Fatal(err)
	}
	if err := crossCheck(got, res); err != nil {
		t.Fatalf("replay disagrees with core.Run: %v", err)
	}
	got.classes[hetsim.ClassGEMM]++
	if crossCheck(got, res) == nil {
		t.Error("an extra GEMM launch passed the cross-check")
	}
}
