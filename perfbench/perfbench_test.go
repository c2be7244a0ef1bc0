package main

import (
	"bytes"
	"encoding/json"
	"os"
	"testing"
	"time"
)

// quickEnv runs a workload at tiny sizes for a fraction of a second.
func quickEnv(t *testing.T, trace bool) *env {
	return &env{seed: 3, seconds: 300 * time.Millisecond, trace: trace, quick: true, tmp: t.TempDir()}
}

// TestBenchmarkJSONNamesEveryMetric holds BENCHMARK.json to the metric
// names and units the benchmark emits.
func TestBenchmarkJSONNamesEveryMetric(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, listed []struct{ Name, Unit string }, units map[string]string) {
		if len(listed) != len(units) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the benchmark emits %d", kind, len(listed), len(units))
		}
		for _, m := range listed {
			if u, ok := units[m.Name]; !ok || u != m.Unit {
				t.Errorf("%s: %s [%s] is not emitted with that unit (have %q)", kind, m.Name, m.Unit, u)
			}
		}
	}
	check("end_to_end", b.EndToEnd, e2eUnits)
	check("per_layer", b.PerLayer, layerUnits)
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(b.Workloads), len(workloads))
	}
	for i, w := range b.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, benchmark %q", i, w.Name, workloads[i].name)
		}
	}
}

// TestQuickRunsEmitEveryMetric runs every workload untraced and traced
// at tiny sizes: each must pass its oracle and print every metric of its
// mode with its unit.
func TestQuickRunsEmitEveryMetric(t *testing.T) {
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			e := quickEnv(t, trace)
			res, err := run(e, w.name, t.TempDir())
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", w.name, trace, res.Correct, res.Attempted, res.Failed)
			}
			want := e2eUnits
			if trace {
				want = layerUnits
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, want %d", w.name, trace, len(res.Metrics), len(want))
			}
			for name, unit := range want {
				if m, ok := res.Metrics[name]; !ok || m.Unit != unit {
					t.Errorf("%s trace=%v: metric %s missing or not in %s", w.name, trace, name, unit)
				}
			}
			if !trace && res.Metrics["pairs_per_s"].Value <= 0 {
				t.Errorf("%s: pairs_per_s = %v", w.name, res.Metrics["pairs_per_s"].Value)
			}
		}
	}
}

// TestSameSeedSameInputs: the generated inputs are a function of the
// seed alone.
func TestSameSeedSameInputs(t *testing.T) {
	for _, c := range []offlineCfg{pairSemifluidCfg(true)} {
		a, b, other := genOffline(c, 5), genOffline(c, 5), genOffline(c, 6)
		for i := range a {
			for j := range a[i].frames {
				if !a[i].frames[j].I.Equal(b[i].frames[j].I) || !a[i].frames[j].Surface().Equal(b[i].frames[j].Surface()) {
					t.Fatalf("sequence %d frame %d differs between two generations", i, j)
				}
			}
		}
		if a[0].frames[0].I.Equal(other[0].frames[0].I) {
			t.Error("seeds 5 and 6 generated the same frame")
		}
	}
	sc := serveMixedCfg(true)
	s1, err := genServe(sc, 5, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := genServe(sc, 5, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	for i := range s1.tracks {
		if !bytes.Equal(s1.tracks[i].body, s2.tracks[i].body) {
			t.Fatalf("track upload %d differs between two generations", i)
		}
	}
	for i := range s1.jobs {
		if !bytes.Equal(s1.jobs[i].body, s2.jobs[i].body) {
			t.Fatalf("job spec %d differs between two generations", i)
		}
	}
	if len(s1.arrivals) != len(s2.arrivals) {
		t.Fatal("arrival schedules differ in length")
	}
	for i := range s1.arrivals {
		if s1.arrivals[i] != s2.arrivals[i] {
			t.Fatalf("arrival %d differs: %+v vs %+v", i, s1.arrivals[i], s2.arrivals[i])
		}
	}
	c1, err := genCluster(clusterJobsCfg(true), 5)
	if err != nil {
		t.Fatal(err)
	}
	c2, err := genCluster(clusterJobsCfg(true), 5)
	if err != nil {
		t.Fatal(err)
	}
	for i := range c1.jobs {
		if !bytes.Equal(c1.jobs[i].body, c2.jobs[i].body) {
			t.Fatalf("cluster job spec %d differs between two generations", i)
		}
	}
}

// TestOracleCatchesCorruption: a corrupted output must fail the run, on
// the offline driver and over HTTP.
func TestOracleCatchesCorruption(t *testing.T) {
	for _, name := range []string{"pair-semifluid", "serve-mixed", "cluster-jobs"} {
		e := quickEnv(t, false)
		e.corrupt = true
		res, err := run(e, name, t.TempDir())
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.Correct || res.Failed == 0 {
			t.Errorf("%s: corrupted outputs passed (correct=%v failed=%d of %d)", name, res.Correct, res.Failed, res.Attempted)
		}
	}
}

// TestQuartilesMatchPython pins quartiles to statistics.quantiles(n=4).
func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Fatalf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
}

// TestCoverage: self time subtracts the union of child intervals.
func TestCoverage(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "pair", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "prep", Start: 0, End: 30},
		{ID: 3, Parent: 1, Name: "match", Start: 20, End: 90},
		{ID: 4, Parent: 3, Name: "match", Start: 20, End: 40},
	}
	layers, uncovered, wall, n := selfTimes(spans, "pair")
	if n != 1 || wall != 100 || uncovered != 10 {
		t.Fatalf("roots=%d wall=%v uncovered=%v, want 1, 100, 10", n, wall, uncovered)
	}
	if layers["prep"] != 30 || layers["match"] != 70 {
		t.Fatalf("self times %v, want prep 30, match 70", layers)
	}
}
