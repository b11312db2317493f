// The metric catalogue (names, units, directions, bounds, sources) and the
// measurement type. One rule runs through this file: a number that was not
// measured is null with a reason, never 0.
package main

import (
	"fmt"
	"math"
	"slices"
	"sort"
)

// metricSpec declares one metric of the battery.
type metricSpec struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	// Bound is the share of the parent's median by which an end-to-end
	// metric may worsen before it is a regression (0 for per-layer metrics).
	Bound float64
	// Source names the pass the value comes from.
	Source string
	// Nullable metrics are absent on some workload (no faults, too few
	// samples): they are in the battery's report but not in BENCHMARK.json,
	// whose metrics must be numbers on every workload.
	Nullable bool
}

// endToEndSpecs are what a joining conference and an operator experience.
var endToEndSpecs = []metricSpec{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25, Source: "setup"},
	{Name: "events_per_s", Unit: "events/s", Better: "higher", Bound: 0.25, Source: "stream"},
	{Name: "admit_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25, Source: "sync"},
	{Name: "admit_p95_ms", Unit: "ms", Better: "lower", Bound: 0.25, Source: "sync"},
	{Name: "heal_p90_ms", Unit: "ms", Better: "lower", Bound: 0.25, Source: "sync", Nullable: true},
	{Name: "phi_per_session", Unit: "phi", Better: "lower", Bound: 0.05, Source: "sync"},
	{Name: "delay_ms_mean", Unit: "ms", Better: "lower", Bound: 0.09, Source: "sync"},
	{Name: "traffic_mbps_mean", Unit: "Mbps", Better: "lower", Bound: 0.15, Source: "sync"},
	{Name: "served_frac", Unit: "fraction", Better: "higher", Bound: 0.08, Source: "sync"},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.12, Source: "process"},
}

// perLayerSpecs are the single-layer metrics, layer by layer in the order
// an event crosses them. Source: T traced-pass spans, R registry read in the
// traced pass, S Stats() of a stream pass, Y the sync pass, D stand-alone
// driver on the sync pass's end state.
var perLayerSpecs = []metricSpec{
	{Name: "sim.pull_ns", Unit: "ns", Better: "lower", Source: "T"},
	{Name: "sim.events", Unit: "count", Better: "higher", Source: "T"},
	{Name: "sim.drain_events_per_s", Unit: "events/s", Better: "higher", Source: "D"},

	{Name: "agrank.boot_calls", Unit: "count", Better: "lower", Source: "T"},
	{Name: "agrank.boot_fail", Unit: "count", Better: "lower", Source: "T"},
	{Name: "agrank.boot_ns_p50", Unit: "ns", Better: "lower", Source: "T"},
	{Name: "agrank.boot_ns_p95", Unit: "ns", Better: "lower", Source: "T"},
	{Name: "agrank.boot_busy_frac", Unit: "fraction", Better: "lower", Source: "T"},

	{Name: "core.hop_ns", Unit: "ns", Better: "lower", Source: "D"},
	{Name: "core.hop_moved_frac", Unit: "fraction", Better: "higher", Source: "D"},
	{Name: "core.hop_feasible_mean", Unit: "count", Better: "higher", Source: "D"},

	{Name: "cost.begin_session_ns", Unit: "ns", Better: "lower", Source: "D"},
	{Name: "cost.candidate_phi_ns", Unit: "ns", Better: "lower", Source: "D"},
	{Name: "cost.session_load_sparse_ns", Unit: "ns", Better: "lower", Source: "D"},
	{Name: "cost.objcache_refresh_ns", Unit: "ns", Better: "lower", Source: "D"},
	{Name: "cost.delay_cache_hit_frac", Unit: "fraction", Better: "higher", Source: "R"},

	{Name: "shard.snapshot_route_ns", Unit: "ns", Better: "lower", Source: "D"},
	{Name: "shard.commit_delta_ns", Unit: "ns", Better: "lower", Source: "D"},
	{Name: "shard.conflict_frac", Unit: "fraction", Better: "lower", Source: "S"},

	{Name: "pipeline.submit_retire_ns", Unit: "ns", Better: "lower", Source: "D"},
	{Name: "pipeline.admission_stall_frac", Unit: "fraction", Better: "lower", Source: "S"},
	{Name: "pipeline.reopt_wait_frac", Unit: "fraction", Better: "lower", Source: "S"},
	{Name: "pipeline.in_flight_peak", Unit: "count", Better: "higher", Source: "S"},
	{Name: "pipeline.queue_depth_peak", Unit: "count", Better: "lower", Source: "S"},

	{Name: "orchestrator.handle_ns_arrival", Unit: "ns", Better: "lower", Source: "T"},
	{Name: "orchestrator.handle_ns_departure", Unit: "ns", Better: "lower", Source: "T"},
	{Name: "orchestrator.handle_ns_fault", Unit: "ns", Better: "lower", Source: "T", Nullable: true},
	{Name: "orchestrator.reopt_ns", Unit: "ns", Better: "lower", Source: "T"},
	{Name: "orchestrator.self_ns", Unit: "ns", Better: "lower", Source: "T"},
	{Name: "orchestrator.tasks_per_event", Unit: "count", Better: "lower", Source: "S"},
	{Name: "orchestrator.commit_frac", Unit: "fraction", Better: "higher", Source: "S"},
	{Name: "orchestrator.nochange_frac", Unit: "fraction", Better: "lower", Source: "S"},
	{Name: "orchestrator.reject_frac", Unit: "fraction", Better: "lower", Source: "S"},
	{Name: "orchestrator.evacuated_frac", Unit: "fraction", Better: "higher", Source: "S", Nullable: true},
	{Name: "orchestrator.drop_frac", Unit: "fraction", Better: "lower", Source: "Y"},
	{Name: "orchestrator.task_snapshot_ns", Unit: "ns", Better: "lower", Source: "R"},
	{Name: "orchestrator.task_walk_ns", Unit: "ns", Better: "lower", Source: "R"},
	{Name: "orchestrator.task_commit_ns", Unit: "ns", Better: "lower", Source: "R"},
	{Name: "orchestrator.stream_vs_sync", Unit: "ratio", Better: "higher", Source: "S"},
	{Name: "orchestrator.alloc_bytes_per_event", Unit: "B", Better: "lower", Source: "Y"},
	{Name: "orchestrator.allocs_per_event", Unit: "count", Better: "lower", Source: "Y"},

	{Name: "telemetry.spans_dropped", Unit: "count", Better: "lower", Source: "R"},
	{Name: "telemetry.decisions_dropped", Unit: "count", Better: "lower", Source: "R"},
	{Name: "trace.overhead_frac", Unit: "fraction", Better: "lower", Source: "T"},
	{Name: "trace.closure_frac", Unit: "fraction", Better: "higher", Source: "T"},

	{Name: "host.spin_ns", Unit: "ns", Better: "lower", Source: "host"},
}

// measurement is one metric's value on one workload. Value is nil when the
// source was absent; Reason then says why. N is the sample count behind a
// timing; Reps and Spread keep the per-repetition values and their
// (max−min)/median.
type measurement struct {
	Value  *float64  `json:"value"`
	Unit   string    `json:"unit"`
	N      int       `json:"n,omitempty"`
	Reason string    `json:"reason,omitempty"`
	Reps   []float64 `json:"reps,omitempty"`
	Spread *float64  `json:"spread,omitempty"`
}

func num(v float64) measurement {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return missing(fmt.Sprintf("not finite: %v", v))
	}
	return measurement{Value: &v}
}

func numN(v float64, n int) measurement {
	m := num(v)
	m.N = n
	return m
}

func missing(reason string) measurement { return measurement{Reason: reason} }

// ratio is a/b, missing when there was nothing to divide by.
func ratio(a, b float64, what string) measurement {
	if b == 0 {
		return missing("no " + what)
	}
	return num(a / b)
}

// meanOf is the mean of the samples, missing when there are none.
func meanOf(samples []float64) measurement {
	if len(samples) == 0 {
		return missing("zero samples")
	}
	return numN(sum(samples)/float64(len(samples)), len(samples))
}

func sum(vals []float64) float64 {
	t := 0.0
	for _, v := range vals {
		t += v
	}
	return t
}

// minBeyond is how many samples must lie beyond a percentile for it to be
// reported.
const minBeyond = 10

// percentileOf is the q-th percentile (nearest rank) of the samples,
// missing unless at least minBeyond samples lie beyond it.
func percentileOf(samples []float64, q float64) measurement {
	n := len(samples)
	rank := int(math.Ceil(q * float64(n)))
	if beyond := n - rank; n == 0 || beyond < minBeyond {
		return missing(fmt.Sprintf("p%g needs %d samples beyond it, have %d of %d",
			q*100, minBeyond, max(n-rank, 0), n))
	}
	sorted := append([]float64(nil), samples...)
	sort.Float64s(sorted)
	return numN(sorted[rank-1], n)
}

// median of a non-empty slice.
func median(vals []float64) float64 {
	sorted := append([]float64(nil), vals...)
	sort.Float64s(sorted)
	n := len(sorted)
	if n%2 == 1 {
		return sorted[n/2]
	}
	return (sorted[n/2-1] + sorted[n/2]) / 2
}

// floorOf returns, element by element, the smallest reading any repetition
// took. The repetitions replay the same events, so what differs between
// them is the host: on the shared 2-vCPU reference host whole passes swing
// by up to 1.8x for seconds at a time, which no median over three to five
// passes survives, while the floor repeats within a few percent.
func floorOf(reps [][]float64) []float64 {
	out := append([]float64(nil), reps[0]...)
	for _, r := range reps[1:] {
		for i := range out {
			out[i] = math.Min(out[i], r[i])
		}
	}
	return out
}

// windowSums adds a series up in windows of n elements.
func windowSums(vals []float64, n int) []float64 {
	out := make([]float64, 0, len(vals)/n+1)
	for i := 0; i < len(vals); i += n {
		out = append(out, sum(vals[i:min(i+n, len(vals))]))
	}
	return out
}

func pick(vals []float64, idx []int) []float64 {
	out := make([]float64, len(idx))
	for i, j := range idx {
		out[i] = vals[j]
	}
	return out
}

// withReps attaches the raw per-repetition values and their
// (max−min)/median to a measurement.
func (m measurement) withReps(reps []float64) measurement {
	m.Reps = reps
	if len(reps) > 0 {
		if med := median(reps); med != 0 {
			sp := (slices.Max(reps) - slices.Min(reps)) / med
			m.Spread = &sp
		}
	}
	return m
}

// medianOfReps is the median over repetitions, with the raw values kept.
func medianOfReps(reps []float64) measurement {
	if len(reps) == 0 {
		return missing("zero repetitions")
	}
	return num(median(reps)).withReps(reps)
}

// scaled converts a measurement's unit (ns → ms) without touching absence.
func (m measurement) scaled(k float64) measurement {
	if m.Value != nil {
		v := *m.Value * k
		m.Value = &v
	}
	return m
}

// metricSet collects a workload's measurements by name and stamps units
// from the catalogue, so a name can neither be misspelt nor set twice.
type metricSet struct {
	specs map[string]metricSpec
	vals  map[string]measurement
}

func newMetricSet(specs ...[]metricSpec) *metricSet {
	ms := &metricSet{specs: map[string]metricSpec{}, vals: map[string]measurement{}}
	for _, list := range specs {
		for _, s := range list {
			ms.specs[s.Name] = s
		}
	}
	return ms
}

func (ms *metricSet) set(name string, m measurement) {
	spec, ok := ms.specs[name]
	if !ok {
		panic("bench: metric not in the catalogue: " + name)
	}
	if _, dup := ms.vals[name]; dup {
		panic("bench: metric set twice: " + name)
	}
	m.Unit = spec.Unit
	ms.vals[name] = m
}
