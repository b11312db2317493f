// Package telemetry is the unified observability layer: a concurrency-safe
// metrics registry (atomic counters, gauges, a reusable log-scale
// histogram), one bounded overwrite-oldest Ring carrying decision records,
// spans and closed health windows, one health monitor on the retire path
// (windowed sampler, burn-rate alerts and incident flight recorder under
// one lock, health.go), and HTTP exposition of one route table
// (Prometheus-style text, JSON snapshots, JSONL rings and a Chrome
// trace-event file, with net/http/pprof wired alongside).
//
// The design contract is zero overhead when disabled and lock-free hot
// paths when enabled:
//
//   - Every instrumented call site goes through a *Sink whose methods are
//     nil-receiver safe; a nil sink reduces each site to a pointer test
//     (no allocation, no atomic, no branch misprediction of note — the
//     alloc-pin tests enforce 0 allocs/op).
//   - A counter is one atomic. Workers write no counter: each
//     re-optimization task fills its own result, and the event's
//     re-optimization stage counts the results once its tasks have all
//     finished (Sink.Task), so the writers are the event stages, not the
//     solver pool.
//   - The histogram is the orchestrator's quarter-octave log-scale
//     latencyHist, promoted: 256 fixed buckets over int64 values
//     (nanoseconds in practice), O(1) atomic adds, constant memory for
//     arbitrarily long runs, bucket-lower-bound percentiles.
package telemetry

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/bits"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Label is one metric dimension (e.g. region="2").
type Label struct {
	Key   string
	Value string
}

// The registry's instrument kinds, by the type names its renderings print.
const (
	counterType   = "counter"
	gaugeType     = "gauge"
	histogramType = "histogram"
)

// Counter is a monotonically increasing counter: one atomic, so adds are
// lock-free and allocation-free.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by d.
func (c *Counter) Add(d int64) { c.v.Add(d) }

// Inc is Add(1).
func (c *Counter) Inc() { c.v.Add(1) }

// Value loads the counter.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a last-write-wins float64 value (atomic bit store).
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Value loads the last stored value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// histBuckets is the fixed bucket count of Histogram: 64 octaves × 4
// quarter-octave sub-buckets over the int64 range.
const histBuckets = 256

// Histogram is the promoted orchestrator latencyHist: a fixed-size
// log-scale histogram with quarter-octave buckets over non-negative int64
// values (nanoseconds in practice). Adds are O(1) atomics; memory is
// constant for arbitrarily long runs; percentiles report the lower bound of
// the holding bucket (≈±12% resolution). Bucket 0 holds the sub-2ns samples
// — including exact zeros — and reads back as 0, not as 1ns.
type Histogram struct {
	counts [histBuckets]atomic.Int64
	n      atomic.Int64
	sum    atomic.Int64
}

// NewHistogram returns an empty histogram.
func NewHistogram() *Histogram { return &Histogram{} }

// bucketIndex maps a sample to its quarter-octave bucket. This is exactly
// the orchestrator's original latencyHist bucketing (the parity test in
// registry_test.go pins it against a verbatim copy).
func bucketIndex(v int64) int {
	if v <= 0 {
		return 0
	}
	ns := uint64(v)
	e := bits.Len64(ns) - 1
	frac := 0
	if e >= 2 {
		frac = int((ns >> uint(e-2)) & 3)
	}
	idx := e*4 + frac
	if idx >= histBuckets {
		idx = histBuckets - 1
	}
	return idx
}

// bucketLowerBound is the inverse mapping: the smallest value landing in
// bucket i (0 for bucket 0).
func bucketLowerBound(i int) int64 {
	if i == 0 {
		return 0
	}
	e, frac := i/4, uint64(i%4)
	base := uint64(1) << uint(e)
	if e < 2 {
		frac = 0
	}
	return int64(base + base*frac/4)
}

// Observe records one sample. Negative samples clamp into bucket 0 (they
// do not occur on the instrumented paths).
func (h *Histogram) Observe(v int64) {
	h.counts[bucketIndex(v)].Add(1)
	h.n.Add(1)
	if v > 0 {
		h.sum.Add(v)
	}
}

// ObserveDuration records a duration sample in nanoseconds.
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(d.Nanoseconds()) }

// Count returns the number of samples recorded.
func (h *Histogram) Count() int64 { return h.n.Load() }

// Sum returns the sum of all positive samples.
func (h *Histogram) Sum() int64 { return h.sum.Load() }

// Quantiles returns the readings for every quantile in qs from a single
// bucket scan: each the lower bound of the bucket holding the q-quantile,
// or 0 when the histogram is empty (a histogram of only zero samples reads
// bucket 0's lower bound, 0). The result aligns with qs (any order).
// Concurrent with writers the answer is a consistent-enough estimate;
// quiesced it is exact (to bucket resolution).
func (h *Histogram) Quantiles(qs []float64) []int64 {
	out := make([]int64, len(qs))
	var counts [histBuckets]int64
	n, _ := h.load(&counts)
	quantilesFromCounts(&counts, n, qs, out)
	return out
}

// load reads the sample count, every bucket count into counts, and the sum.
func (h *Histogram) load(counts *[histBuckets]int64) (n, sum int64) {
	n = h.n.Load()
	for i := range h.counts {
		counts[i] = h.counts[i].Load()
	}
	return n, h.sum.Load()
}

// QuantilesDuration is Quantiles as time.Durations.
func (h *Histogram) QuantilesDuration(qs []float64) []time.Duration {
	vs := h.Quantiles(qs)
	out := make([]time.Duration, len(vs))
	for i, v := range vs {
		out[i] = time.Duration(v)
	}
	return out
}

// quantilesFromCounts resolves every quantile in qs over a quarter-octave
// bucket array in one pass, writing bucket lower bounds into out (aligned
// with qs). n is the authoritative sample count (it may exceed the sum of
// counts when writers race a live histogram; a target past the counted
// samples leaves its entry 0). Shared by Histogram.Quantiles and the health
// stage's per-window delta buckets.
func quantilesFromCounts(counts *[histBuckets]int64, n int64, qs []float64, out []int64) {
	if n <= 0 {
		return
	}
	// Process targets in ascending order so one cumulative walk serves all.
	order := make([]int, len(qs))
	targets := make([]int64, len(qs))
	for i, q := range qs {
		order[i] = i
		t := int64(q*float64(n) + 0.5)
		if t < 1 {
			t = 1
		}
		targets[i] = t
	}
	sort.Slice(order, func(a, b int) bool { return targets[order[a]] < targets[order[b]] })
	var acc int64
	j := 0
	for i := 0; i < histBuckets && j < len(order); i++ {
		c := counts[i]
		if c == 0 {
			continue
		}
		acc += c
		for j < len(order) && acc >= targets[order[j]] {
			out[order[j]] = bucketLowerBound(i)
			j++
		}
	}
}

// metric is one registered instrument with its identity.
type metric struct {
	name   string
	help   string
	labels []Label
	key    string // name + rendered labels
	typ    string // counterType, gaugeType or histogramType

	counter *Counter
	gauge   *Gauge
	hist    *Histogram
}

// labelString renders {k="v",...} (empty string for no labels).
func labelString(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range labels {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", l.Key, l.Value)
	}
	b.WriteByte('}')
	return b.String()
}

// Registry is a get-or-create store of named instruments. Registration
// takes a lock; the returned handles are lock-free. Instruments are
// identified by (name, labels); registering the same identity twice returns
// the same handle, and re-registering it as a different type panics (a
// programmer error, like a duplicate expvar).
type Registry struct {
	mu      sync.Mutex
	metrics []*metric
	byKey   map[string]*metric
}

// NewRegistry builds an empty registry.
func NewRegistry() *Registry {
	return &Registry{byKey: make(map[string]*metric)}
}

func (r *Registry) getOrCreate(name, help, typ string, labels []Label) *metric {
	key := name + labelString(labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	if m, ok := r.byKey[key]; ok {
		if m.typ != typ {
			panic(fmt.Sprintf("telemetry: metric %s re-registered as %s (was %s)", key, typ, m.typ))
		}
		return m
	}
	m := &metric{name: name, help: help, labels: append([]Label(nil), labels...), key: key, typ: typ}
	switch typ {
	case counterType:
		m.counter = &Counter{}
	case gaugeType:
		m.gauge = &Gauge{}
	case histogramType:
		m.hist = NewHistogram()
	}
	r.metrics = append(r.metrics, m)
	r.byKey[key] = m
	return m
}

// Counter returns the counter registered under (name, labels), creating it
// on first use.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	return r.getOrCreate(name, help, counterType, labels).counter
}

// Gauge returns the gauge registered under (name, labels).
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	return r.getOrCreate(name, help, gaugeType, labels).gauge
}

// Histogram returns the histogram registered under (name, labels).
func (r *Registry) Histogram(name, help string, labels ...Label) *Histogram {
	return r.getOrCreate(name, help, histogramType, labels).hist
}

// MetricSnapshot is one instrument's reading: an element of the JSON
// snapshot, and what the text format renders.
type MetricSnapshot struct {
	Name   string            `json:"name"`
	Labels map[string]string `json:"labels,omitempty"`
	Type   string            `json:"type"`
	// Value carries counter and gauge readings.
	Value float64 `json:"value"`
	// Count/Sum/P50/P99 carry histogram readings (native unit). Sum is a
	// float, like Prometheus's _sum, so a document may write it as 6e6.
	Count int64   `json:"count,omitempty"`
	Sum   float64 `json:"sum,omitempty"`
	P50   int64   `json:"p50,omitempty"`
	P99   int64   `json:"p99,omitempty"`

	// What only the text format prints: the family's help, the labels
	// rendered in registration order, a counter's reading or a histogram's
	// sum as an exact integer, and a histogram's bucket counts.
	help    string
	labels  string
	integer int64
	buckets *[histBuckets]int64
}

// Snapshot returns every instrument's current reading, ordered by (name,
// labels) so families are contiguous. It is the registry's one read of its
// instruments: WriteProm and the /metrics.json document render it.
func (r *Registry) Snapshot() []MetricSnapshot {
	r.mu.Lock()
	ms := append([]*metric(nil), r.metrics...)
	r.mu.Unlock()
	sort.Slice(ms, func(i, j int) bool {
		if ms[i].name != ms[j].name {
			return ms[i].name < ms[j].name
		}
		return ms[i].key < ms[j].key
	})
	out := make([]MetricSnapshot, len(ms))
	for i, m := range ms {
		s := &out[i]
		*s = MetricSnapshot{Name: m.name, Type: m.typ, help: m.help, labels: m.key[len(m.name):]}
		if len(m.labels) > 0 {
			s.Labels = make(map[string]string, len(m.labels))
			for _, l := range m.labels {
				s.Labels[l.Key] = l.Value
			}
		}
		switch m.typ {
		case counterType:
			s.integer = m.counter.Value()
			s.Value = float64(s.integer)
		case gaugeType:
			s.Value = m.gauge.Value()
		case histogramType:
			s.buckets = new([histBuckets]int64)
			s.Count, s.integer = m.hist.load(s.buckets)
			s.Sum = float64(s.integer)
			var ps [2]int64
			quantilesFromCounts(s.buckets, s.Count, []float64{0.50, 0.99}, ps[:])
			s.P50, s.P99 = ps[0], ps[1]
		}
	}
	return out
}

// WriteProm renders the snapshot in the Prometheus text exposition format:
// one HELP/TYPE header per family, counters and gauges as plain samples,
// histograms as cumulative {le=...} buckets (non-empty buckets plus +Inf)
// with _sum and _count.
func (r *Registry) WriteProm(w io.Writer) error {
	bw := bufio.NewWriter(w)
	lastName := ""
	for _, m := range r.Snapshot() {
		if m.Name != lastName {
			if m.help != "" {
				fmt.Fprintf(bw, "# HELP %s %s\n", m.Name, m.help)
			}
			fmt.Fprintf(bw, "# TYPE %s %s\n", m.Name, m.Type)
			lastName = m.Name
		}
		switch m.Type {
		case counterType:
			fmt.Fprintf(bw, "%s%s %d\n", m.Name, m.labels, m.integer)
		case gaugeType:
			fmt.Fprintf(bw, "%s%s %g\n", m.Name, m.labels, m.Value)
		case histogramType:
			writePromHistogram(bw, &m)
		}
	}
	return bw.Flush()
}

// writePromHistogram emits the cumulative bucket series of one histogram.
// Bucket le bounds are the quarter-octave upper bounds in the histogram's
// native unit (nanoseconds on the latency series).
func writePromHistogram(w io.Writer, m *MetricSnapshot) {
	inner := strings.TrimSuffix(strings.TrimPrefix(m.labels, "{"), "}")
	withLe := func(le string) string {
		if inner == "" {
			return fmt.Sprintf("{le=%q}", le)
		}
		return fmt.Sprintf("{%s,le=%q}", inner, le)
	}
	var cum int64
	for i, c := range m.buckets {
		if c == 0 {
			continue
		}
		cum += c
		le := fmt.Sprintf("%d", bucketLowerBound(i+1))
		if i == histBuckets-1 {
			le = "+Inf"
		}
		fmt.Fprintf(w, "%s_bucket%s %d\n", m.Name, withLe(le), cum)
	}
	fmt.Fprintf(w, "%s_bucket%s %d\n", m.Name, withLe("+Inf"), m.Count)
	fmt.Fprintf(w, "%s_sum%s %d\n", m.Name, m.labels, m.integer)
	fmt.Fprintf(w, "%s_count%s %d\n", m.Name, m.labels, m.Count)
}

// MetricsDoc is the /metrics.json document (also what vcreport ingests
// offline).
type MetricsDoc struct {
	Metrics []MetricSnapshot `json:"metrics"`
}

// WriteJSON renders doc as indented JSON: the one encoding of every JSON
// document the sink serves and vcsim writes to files.
func WriteJSON(w io.Writer, doc any) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(doc)
}
