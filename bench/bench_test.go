package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"strings"
	"testing"
)

func TestMissingIsNullNeverZero(t *testing.T) {
	for name, m := range map[string]measurement{
		"mean of nothing":      meanOf(nil),
		"ratio over nothing":   ratio(3, 0, "tasks"),
		"not a number":         num(math.NaN()),
		"infinite":             num(math.Inf(1)),
		"p95 of 100 samples":   percentileOf(make([]float64, 100), 0.95),
		"percentile of none":   percentileOf(nil, 0.5),
		"median of no reps":    medianOfReps(nil),
		"per-op without ops":   perOp(1000, 0),
		"absent registry fam.": registryMetric(nil, "vconf_task_phase_ns_total", "phase", "walk"),
	} {
		if m.Value != nil {
			t.Errorf("%s: value %v, want null", name, *m.Value)
		}
		if m.Reason == "" {
			t.Errorf("%s: null without a reason", name)
		}
		b, err := json.Marshal(m)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(string(b), `"value":null`) {
			t.Errorf("%s: encodes as %s, want an explicit null", name, b)
		}
	}
	// A measured zero is a number, not an absence.
	if m := ratio(0, 5, "tasks"); m.Value == nil || *m.Value != 0 {
		t.Errorf("0/5 = %v, want a measured 0", m.Value)
	}
}

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	samples := func(n int) []float64 {
		out := make([]float64, n)
		for i := range out {
			out[i] = float64(n - i) // descending: the percentile must sort
		}
		return out
	}
	for _, tc := range []struct {
		n    int
		q    float64
		want float64 // 0 = missing
	}{
		{199, 0.95, 0}, {200, 0.95, 190}, {1013, 0.95, 963},
		{19, 0.50, 0}, {20, 0.50, 10},
		{99, 0.90, 0}, {100, 0.90, 90},
	} {
		m := percentileOf(samples(tc.n), tc.q)
		switch {
		case tc.want == 0 && m.Value != nil:
			t.Errorf("p%g of %d samples = %v, want null", tc.q*100, tc.n, *m.Value)
		case tc.want != 0 && (m.Value == nil || *m.Value != tc.want):
			t.Errorf("p%g of %d samples = %v (%s), want %v", tc.q*100, tc.n, m.Value, m.Reason, tc.want)
		case tc.want != 0 && m.N != tc.n:
			t.Errorf("p%g of %d samples carries n=%d", tc.q*100, tc.n, m.N)
		}
	}
}

func TestFloorAndWindows(t *testing.T) {
	got := floorOf([][]float64{{5, 2, 9}, {4, 3, 9}, {6, 1, 8}})
	if want := []float64{4, 1, 8}; !reflect.DeepEqual(got, want) {
		t.Errorf("floorOf = %v, want %v", got, want)
	}
	if got, want := windowSums([]float64{1, 2, 3, 4, 5}, 2), []float64{3, 7, 5}; !reflect.DeepEqual(got, want) {
		t.Errorf("windowSums = %v, want %v", got, want)
	}
	m := medianOfReps([]float64{10, 12, 11})
	if *m.Value != 11 || math.Abs(*m.Spread-2.0/11) > 1e-12 {
		t.Errorf("medianOfReps = %v spread %v, want 11 and 2/11", *m.Value, *m.Spread)
	}
}

// benchmarkFile mirrors BENCHMARK.json at the repository root.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// TestBenchmarkJSONMatchesCatalogue keeps the contract file and the
// catalogue in metrics.go and fixture.go saying the same thing.
func TestBenchmarkJSONMatchesCatalogue(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bf); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(bf.Paths, []string{"bench"}) || !reflect.DeepEqual(bf.Command, []string{"bash", "bench/run.sh"}) {
		t.Errorf("paths %v command %v", bf.Paths, bf.Command)
	}
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("%d workloads declared, %d in the battery", len(bf.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if bf.Workloads[i].Name != w.Name || bf.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: declared %+v, battery has %q: %q", i, bf.Workloads[i], w.Name, w.Why)
		}
		if len(w.Why) > 200 {
			t.Errorf("workload %s: why is %d characters", w.Name, len(w.Why))
		}
	}
	var e2e, layers []metricSpec
	for _, m := range bf.EndToEnd {
		e2e = append(e2e, metricSpec{Name: m.Name, Unit: m.Unit, Better: m.Better, Bound: m.Bound})
	}
	for _, m := range bf.PerLayer {
		layers = append(layers, metricSpec{Name: m.Name, Unit: m.Unit, Better: m.Better})
	}
	for _, part := range []struct {
		what     string
		declared []metricSpec
		specs    []metricSpec
	}{{"end_to_end", e2e, endToEndSpecs}, {"per_layer", layers, perLayerSpecs}} {
		var want []metricSpec
		for _, s := range part.specs {
			if !s.Nullable {
				want = append(want, metricSpec{Name: s.Name, Unit: s.Unit, Better: s.Better, Bound: s.Bound})
			}
		}
		if !reflect.DeepEqual(part.declared, want) {
			t.Errorf("%s: BENCHMARK.json declares\n%+v\nthe catalogue's never-null metrics are\n%+v", part.what, part.declared, want)
		}
	}
	for _, s := range endToEndSpecs {
		if s.Bound <= 0 || s.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", s.Name, s.Bound)
		}
	}
}

// TestSmoke runs all four workloads at 1/20 horizon through every pass and
// driver, and checks the report's shape: every catalogued name printed once
// with its unit, each value finite or explicitly null, the budget closed,
// invariants held (runWorkload fails otherwise) and the sync repetitions
// bit-equal.
func TestSmoke(t *testing.T) {
	for _, spec := range workloads {
		t.Run(spec.Name, func(t *testing.T) {
			rep, err := runWorkload(runOpts{spec: spec, seed: 1, scale: 1.0 / 20, parts: partBoth, outDir: t.TempDir()})
			if err != nil {
				t.Fatal(err)
			}
			if !rep.SyncBitEqual {
				t.Error("sync repetitions did not end bit-equal")
			}
			if rep.Reps != minReps || rep.Attempted != 2*minReps*rep.EventsPerPass || rep.Failed != 0 {
				t.Errorf("reps %d attempted %d failed %d for %d events per pass", rep.Reps, rep.Attempted, rep.Failed, rep.EventsPerPass)
			}
			if c := rep.Metrics["trace.closure_frac"]; c.Value == nil || *c.Value < minClosure {
				t.Errorf("trace.closure_frac = %v, want >= %v", c.Value, minClosure)
			}
			var out bytes.Buffer
			printReport(&out, rep)
			for _, s := range append(append([]metricSpec(nil), endToEndSpecs...), perLayerSpecs...) {
				m, ok := rep.Metrics[s.Name]
				if !ok {
					t.Errorf("%s: not measured", s.Name)
					continue
				}
				if m.Unit != s.Unit {
					t.Errorf("%s: unit %q, want %q", s.Name, m.Unit, s.Unit)
				}
				switch {
				case m.Value == nil && m.Reason == "":
					t.Errorf("%s: null without a reason", s.Name)
				case m.Value != nil && (math.IsNaN(*m.Value) || math.IsInf(*m.Value, 0)):
					t.Errorf("%s: not finite: %v", s.Name, *m.Value)
				}
				lines := 0
				for _, line := range strings.Split(out.String(), "\n") {
					if f := strings.Fields(line); len(f) >= 3 && f[0] == s.Name {
						lines++
						if f[2] != s.Unit {
							t.Errorf("%s: printed with unit %q, want %q", s.Name, f[2], s.Unit)
						}
					}
				}
				if lines != 1 {
					t.Errorf("%s: printed %d times, want once", s.Name, lines)
				}
			}
			if spec.Faults {
				if m := rep.Metrics["orchestrator.handle_ns_fault"]; m.Value == nil {
					t.Errorf("chaos workload handled no fault event: %s", m.Reason)
				}
			} else if m := rep.Metrics["heal_p90_ms"]; m.Value != nil {
				t.Errorf("heal_p90_ms = %v on a fault-free workload, want null", *m.Value)
			}
			if _, err := os.Stat(rep.TracePath); err != nil {
				t.Errorf("trace not written: %v", err)
			}
		})
	}
}

// TestDriverLineRefusesMissingDeclaredMetric: the driver's line carries
// numbers only, so a declared metric that is null fails the run instead of
// being printed as 0 or dropped.
func TestDriverLineRefusesMissingDeclaredMetric(t *testing.T) {
	specs := []metricSpec{{Name: "a", Unit: "ms"}, {Name: "b", Unit: "ms", Nullable: true}}
	a := num(1.5)
	a.Unit = "ms"
	rep := &report{Workload: "w", Attempted: 7, Metrics: map[string]measurement{"a": a, "b": missing("no faults")}}
	var out bytes.Buffer
	if err := printDriverLine(&out, rep, specs); err != nil {
		t.Fatal(err)
	}
	var line driverLine
	if err := json.Unmarshal(out.Bytes(), &line); err != nil {
		t.Fatal(err)
	}
	want := driverLine{Correct: true, Attempted: 7, Metrics: map[string]driverMetric{"a": {Value: 1.5, Unit: "ms"}}}
	if !reflect.DeepEqual(line, want) {
		t.Errorf("driver line %+v, want %+v", line, want)
	}
	rep.Metrics["a"] = missing("too few samples")
	if err := printDriverLine(&out, rep, specs); err == nil {
		t.Error("a null declared metric was printed, want an error")
	}
}
