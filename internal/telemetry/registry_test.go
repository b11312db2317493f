package telemetry

import (
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"

	"math/bits"
)

// refHist is the orchestrator's original private latency histogram, copied
// verbatim: the parity oracle for Histogram's bucketing and percentile
// semantics (the promotion must not change a single reading).
type refHist struct {
	counts [256]int
	n      int
}

func (h *refHist) add(d time.Duration) {
	ns := uint64(d.Nanoseconds())
	idx := 0
	if ns > 0 {
		e := bits.Len64(ns) - 1
		frac := 0
		if e >= 2 {
			frac = int((ns >> uint(e-2)) & 3)
		}
		idx = e*4 + frac
		if idx >= len(h.counts) {
			idx = len(h.counts) - 1
		}
	}
	h.counts[idx]++
	h.n++
}

func (h *refHist) percentile(q float64) time.Duration {
	if h.n == 0 {
		return 0
	}
	target := int(q*float64(h.n) + 0.5)
	if target < 1 {
		target = 1
	}
	acc := 0
	for i, c := range h.counts {
		acc += c
		if c > 0 && acc >= target {
			if i == 0 {
				return 0
			}
			e, frac := i/4, uint64(i%4)
			base := uint64(1) << uint(e)
			if e < 2 {
				frac = 0
			}
			return time.Duration(base + base*frac/4)
		}
	}
	return 0
}

func TestHistogramParityWithLegacyLatencyHist(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	h := NewHistogram()
	ref := &refHist{}
	samples := make([]time.Duration, 0, 20000)
	// Mix magnitudes: sub-ns zeros, ns, µs, ms, s.
	for i := 0; i < 20000; i++ {
		var d time.Duration
		switch i % 5 {
		case 0:
			d = 0
		case 1:
			d = time.Duration(rng.Intn(1000))
		case 2:
			d = time.Duration(rng.Intn(1_000_000))
		case 3:
			d = time.Duration(rng.Intn(1_000_000_000))
		default:
			d = time.Duration(rng.Int63n(int64(10 * time.Second)))
		}
		samples = append(samples, d)
		h.ObserveDuration(d)
		ref.add(d)
	}
	if got, want := h.Count(), int64(len(samples)); got != want {
		t.Fatalf("Count = %d, want %d", got, want)
	}
	for _, q := range []float64{0, 0.01, 0.25, 0.50, 0.90, 0.99, 0.999, 1} {
		if got, want := h.PercentileDuration(q), ref.percentile(q); got != want {
			t.Errorf("q=%v: Percentile = %v, legacy = %v", q, got, want)
		}
	}
}

func TestHistogramEmptyAndEdges(t *testing.T) {
	h := NewHistogram()
	if h.PercentileDuration(0.99) != 0 {
		t.Fatalf("empty histogram percentile = %v, want 0", h.PercentileDuration(0.99))
	}
	h.Observe(0)
	h.Observe(-5)
	if got := h.PercentileDuration(0.99); got != 0 {
		t.Fatalf("all-zero histogram percentile = %v, want 0", got)
	}
	if h.Count() != 2 {
		t.Fatalf("Count = %d, want 2", h.Count())
	}
	if h.Sum() != 0 {
		t.Fatalf("Sum = %d, want 0 (non-positive samples don't accumulate)", h.Sum())
	}
	// The legacy single-sample pin: one 100µs sample reads back as the
	// quarter-octave bucket lower bound 98304ns.
	h2 := NewHistogram()
	h2.ObserveDuration(100 * time.Microsecond)
	if got := h2.PercentileDuration(0.50); got != 98304*time.Nanosecond {
		t.Fatalf("single 100µs sample p50 = %v, want 98.304µs", got)
	}
}

// TestRegistryRaceStorm hammers one registry from many goroutines and
// checks the merged readings are exact. Run under -race in CI.
func TestRegistryRaceStorm(t *testing.T) {
	const writers = 16
	const perWriter = 5000
	reg := NewRegistry()
	c := reg.Counter("storm_total", "storm counter")
	g := reg.Gauge("storm_gauge", "storm gauge")
	h := reg.Histogram("storm_hist", "storm histogram")
	labeled := make([]*Counter, 4)
	for i := range labeled {
		labeled[i] = reg.Counter("storm_labeled_total", "labeled storm counter",
			Label{Key: "lane", Value: string(rune('a' + i))})
	}
	var wg sync.WaitGroup
	for wtr := 0; wtr < writers; wtr++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				c.Inc()
				c.Add(2)
				g.Set(float64(id))
				h.Observe(int64(i%1000 + 1))
				labeled[id%len(labeled)].Inc()
			}
		}(wtr)
	}
	wg.Wait()
	if got, want := c.Value(), int64(writers*perWriter*3); got != want {
		t.Fatalf("counter = %d, want %d", got, want)
	}
	if got, want := h.Count(), int64(writers*perWriter); got != want {
		t.Fatalf("histogram count = %d, want %d", got, want)
	}
	var labeledSum int64
	for _, lc := range labeled {
		labeledSum += lc.Value()
	}
	if want := int64(writers * perWriter); labeledSum != want {
		t.Fatalf("labeled counters sum = %d, want %d", labeledSum, want)
	}
	gv := g.Value()
	if gv < 0 || gv >= writers {
		t.Fatalf("gauge = %v, want a writer id", gv)
	}
}

func TestRegistryGetOrCreateIdentityAndMismatch(t *testing.T) {
	reg := NewRegistry()
	a := reg.Counter("dup_total", "dup")
	b := reg.Counter("dup_total", "dup")
	if a != b {
		t.Fatalf("same name+labels returned distinct counters")
	}
	l1 := reg.Counter("dup_total", "dup", Label{Key: "k", Value: "v"})
	if l1 == a {
		t.Fatalf("labeled counter aliased the unlabeled one")
	}
	defer func() {
		if recover() == nil {
			t.Fatalf("re-registering a counter as a gauge did not panic")
		}
	}()
	reg.Gauge("dup_total", "dup")
}

func TestWritePromAndJSON(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("vconf_test_total", "a counter", Label{Key: "region", Value: "0"}).Add(7)
	reg.Counter("vconf_test_total", "a counter", Label{Key: "region", Value: "1"}).Add(3)
	reg.Gauge("vconf_test_gauge", "a gauge").Set(2.5)
	h := reg.Histogram("vconf_test_ns", "a histogram")
	h.Observe(1000)
	h.Observe(1_000_000)

	var sb strings.Builder
	if err := reg.WriteProm(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"# HELP vconf_test_total a counter",
		"# TYPE vconf_test_total counter",
		`vconf_test_total{region="0"} 7`,
		`vconf_test_total{region="1"} 3`,
		"# TYPE vconf_test_gauge gauge",
		"vconf_test_gauge 2.5",
		"# TYPE vconf_test_ns histogram",
		`vconf_test_ns_bucket{le="+Inf"} 2`,
		"vconf_test_ns_count 2",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("prom output missing %q\n%s", want, out)
		}
	}
	if strings.Count(out, "# TYPE vconf_test_total counter") != 1 {
		t.Errorf("TYPE header repeated per label set:\n%s", out)
	}

	sb.Reset()
	if err := WriteJSON(&sb, MetricsDoc{Metrics: reg.Snapshot()}); err != nil {
		t.Fatal(err)
	}
	js := sb.String()
	if !strings.Contains(js, `"vconf_test_total"`) || !strings.Contains(js, `"vconf_test_gauge"`) {
		t.Errorf("json snapshot missing metrics:\n%s", js)
	}
}

func TestHistogramPromBucketsCumulative(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("cum_ns", "cumulative check")
	for i := 0; i < 10; i++ {
		h.Observe(100)
	}
	h.Observe(1 << 30)
	var sb strings.Builder
	if err := reg.WriteProm(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, `cum_ns_bucket{le="+Inf"} 11`) {
		t.Fatalf("+Inf bucket not cumulative:\n%s", out)
	}
	if !strings.Contains(out, "cum_ns_count 11") {
		t.Fatalf("count missing:\n%s", out)
	}
}

// Percentile is the one-quantile bucket walk Quantiles batches: the lower
// bound of the bucket holding the q-quantile, or 0 when the histogram is
// empty. The parity tests hold Quantiles to it.
func (h *Histogram) Percentile(q float64) int64 {
	n := h.n.Load()
	if n == 0 {
		return 0
	}
	target := int64(q*float64(n) + 0.5)
	if target < 1 {
		target = 1
	}
	var acc int64
	for i := range h.counts {
		c := h.counts[i].Load()
		acc += c
		if c > 0 && acc >= target {
			return bucketLowerBound(i)
		}
	}
	return 0
}

// PercentileDuration is Percentile as a time.Duration.
func (h *Histogram) PercentileDuration(q float64) time.Duration {
	return time.Duration(h.Percentile(q))
}
