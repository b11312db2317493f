// The traced pass: a sync-style loop owned by bench/ that wraps the three
// things the orchestrator lets a caller inject — the event source, the
// Bootstrapper and the telemetry sink — and records a span at each of those
// boundaries. Spans stay in memory and are written out when the pass ends.
package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"vconf/internal/assign"
	"vconf/internal/core"
	"vconf/internal/cost"
	"vconf/internal/model"
	"vconf/internal/orchestrator"
	"vconf/internal/telemetry"
	"vconf/internal/workload"
)

// span is one timed boundary crossing. Spans of one event share Seq; Parent
// is the ID of the span that caused this one (0 for a root). Times are
// nanoseconds since the pass started.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Seq     int    `json:"seq"`
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
	// Attributes of orchestrator.handle spans (Failed also on agrank.boot).
	Kind      string `json:"kind,omitempty"`
	Admitted  bool   `json:"admitted,omitempty"`
	LatencyNs int64  `json:"latency_ns,omitempty"`
	Failed    bool   `json:"failed,omitempty"`
}

func (s span) dur() float64 { return float64(s.EndNs - s.StartNs) }

const (
	spanPull   = "sim.pull"
	spanHandle = "orchestrator.handle"
	spanBoot   = "agrank.boot"
)

// tracedResult is what the traced pass hands to the per-layer table.
type tracedResult struct {
	wall     time.Duration
	spans    []span
	stats    orchestrator.Stats
	registry []telemetry.MetricSnapshot
}

// runTraced replays the workload once under the wrappers.
func runTraced(f *fixture) (tracedResult, error) {
	var res tracedResult
	eng, err := f.newEngine()
	if err != nil {
		return res, err
	}
	var start time.Time
	since := func() int64 { return time.Since(start).Nanoseconds() }

	// The Bootstrapper wrapper. Admissions are serialized by the scheduler
	// and HandleEvent returns only after its event retired, so boots is
	// only ever touched by one goroutine at a time, in program order.
	var boots []span
	inner := f.bootstrapper()
	var boot core.Bootstrapper = func(a *assign.Assignment, s model.SessionID, ledger cost.LedgerAPI) error {
		t0 := since()
		err := inner(a, s, ledger)
		boots = append(boots, span{Name: spanBoot, StartNs: t0, EndNs: since(), Failed: err != nil})
		return err
	}

	sink := f.newSink()
	orc, err := f.newOrchestrator(boot, sink)
	if err != nil {
		return res, err
	}
	defer orc.Close()

	spans := make([]span, 0, 4096)
	add := func(s span) int {
		s.ID = len(spans) + 1
		spans = append(spans, s)
		return s.ID
	}
	runtime.GC()
	start = time.Now()
	for seq := 0; ; seq++ {
		t0 := since()
		e, ok := eng.Next()
		add(span{Seq: seq, Name: spanPull, StartNs: t0, EndNs: since()})
		if !ok {
			break
		}
		boots = boots[:0]
		t0 = since()
		rep, err := orc.HandleEvent(e)
		t1 := since()
		if err != nil {
			return res, fmt.Errorf("traced pass: event %d (%s): %w", seq, e.Kind, err)
		}
		kind := e.Kind.String()
		if e.Kind.IsFault() {
			kind = "fault"
		}
		id := add(span{Seq: seq, Name: spanHandle, StartNs: t0, EndNs: t1,
			Kind: kind, Admitted: rep.Admitted, LatencyNs: rep.Latency.Nanoseconds()})
		for _, b := range boots {
			b.Parent, b.Seq = id, seq
			add(b)
		}
	}
	res.wall = time.Since(start)
	if err := eng.Err(); err != nil {
		return res, fmt.Errorf("traced pass: %w", err)
	}
	if err := orc.CheckInvariants(); err != nil {
		return res, fmt.Errorf("traced pass: %w", err)
	}
	res.spans = spans
	res.stats = orc.Stats()
	res.registry = sink.Registry().Snapshot()
	return res, nil
}

// writeSpans writes the trace as JSON lines and returns the file's path.
func writeSpans(dir, workload string, spans []span) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, workload+".trace.jsonl")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return "", err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}

// registrySum adds up a family's readings whose labels include want; found
// is false when no such instrument exists (the metric is then null).
func registrySum(snap []telemetry.MetricSnapshot, family string, want map[string]string) (sum float64, found bool) {
next:
	for _, m := range snap {
		if m.Name != family {
			continue
		}
		for k, v := range want {
			if m.Labels[k] != v {
				continue next
			}
		}
		sum += m.Value
		found = true
	}
	return sum, found
}

// registryMetric reads one counter, null when the family is absent.
func registryMetric(snap []telemetry.MetricSnapshot, family, key, value string) measurement {
	v, ok := registrySum(snap, family, map[string]string{key: value})
	if !ok {
		return missing(fmt.Sprintf("registry family %s{%s=%q} not found", family, key, value))
	}
	return num(v)
}

// budgetLine is one row of the per-event time budget: a layer's share of
// the traced wall time.
type budgetLine struct {
	Name       string  `json:"name"`
	NsPerEvent float64 `json:"ns_per_event"`
	Share      float64 `json:"share"`
}

// tracedMetrics turns the traced pass into the T and R rows and the budget
// table. syncWall is the wall time of the untraced sync pass that ran just
// before — the neighbour in time, so the host state the two share cancels —
// and the base of the tracing overhead.
func tracedMetrics(ms *metricSet, tr tracedResult, syncWall time.Duration) []budgetLine {
	var pull, bootNs, self, reopt []float64
	handle := map[string][]float64{}
	bootOf := map[int]float64{}
	bootFail := 0
	for _, s := range tr.spans {
		if s.Name == spanBoot {
			bootNs = append(bootNs, s.dur())
			bootOf[s.Parent] += s.dur()
			if s.Failed {
				bootFail++
			}
		}
	}
	covered := 0.0
	for _, s := range tr.spans {
		switch s.Name {
		case spanPull:
			pull = append(pull, s.dur())
			covered += s.dur()
		case spanHandle:
			handle[s.Kind] = append(handle[s.Kind], s.dur())
			covered += s.dur()
			reopt = append(reopt, float64(s.LatencyNs))
			// Self time: the handle span minus what its children and the
			// re-optimisation barrier cover — apply, touched set, objective
			// refresh and the report.
			self = append(self, s.dur()-bootOf[s.ID]-float64(s.LatencyNs))
		}
	}
	wall := float64(tr.wall.Nanoseconds())

	ms.set("sim.pull_ns", meanOf(pull))
	ms.set("sim.events", num(float64(tr.stats.Events)))
	ms.set("agrank.boot_calls", num(float64(len(bootNs))))
	ms.set("agrank.boot_fail", num(float64(bootFail)))
	ms.set("agrank.boot_ns_p50", percentileOf(bootNs, 0.50))
	ms.set("agrank.boot_ns_p95", percentileOf(bootNs, 0.95))
	ms.set("agrank.boot_busy_frac", ratio(sum(bootNs), wall, "traced wall time"))
	ms.set("orchestrator.handle_ns_arrival", meanOf(handle[workload.EventArrival.String()]))
	ms.set("orchestrator.handle_ns_departure", meanOf(handle[workload.EventDeparture.String()]))
	ms.set("orchestrator.handle_ns_fault", meanOf(handle["fault"]))
	ms.set("orchestrator.reopt_ns", meanOf(reopt))
	ms.set("orchestrator.self_ns", meanOf(self))
	ms.set("trace.closure_frac", ratio(covered, wall, "traced wall time"))
	ms.set("trace.overhead_frac", ratio(wall-float64(syncWall.Nanoseconds()), float64(syncWall.Nanoseconds()), "sync wall time"))

	// The budget: pull + (boot + barrier + self = handle) + the loop's own
	// bookkeeping is the whole traced wall time, so the top-level lines sum
	// to it exactly.
	events := float64(tr.stats.Events)
	budget := []budgetLine{
		{Name: "sim: engine pull", NsPerEvent: sum(pull)},
		{Name: "agrank: bootstrap", NsPerEvent: sum(bootNs)},
		{Name: "orchestrator: re-optimisation barrier", NsPerEvent: sum(reopt)},
	}
	tasks := float64(tr.stats.Tasks)
	for _, ph := range []string{"snapshot", "walk", "commit"} {
		m := registryMetric(tr.registry, "vconf_task_phase_ns_total", "phase", ph)
		if m.Value != nil {
			budget = append(budget, budgetLine{Name: "    task " + ph, NsPerEvent: *m.Value})
			m = ratio(*m.Value, tasks, "tasks")
		}
		ms.set("orchestrator.task_"+ph+"_ns", m)
	}
	budget = append(budget,
		budgetLine{Name: "orchestrator: self (apply, touched set, objective refresh, report)", NsPerEvent: sum(self)},
		budgetLine{Name: "bench: loop and span bookkeeping", NsPerEvent: wall - covered},
		budgetLine{Name: "traced wall time", NsPerEvent: wall})
	for i := range budget {
		budget[i].Share = budget[i].NsPerEvent / wall
		budget[i].NsPerEvent /= events
	}
	hits, okH := registrySum(tr.registry, "vconf_delay_cache_evals_total", map[string]string{"result": "hit"})
	all, okA := registrySum(tr.registry, "vconf_delay_cache_evals_total", nil)
	if okH && okA {
		ms.set("cost.delay_cache_hit_frac", ratio(hits, all, "delay-cache evaluations"))
	} else {
		ms.set("cost.delay_cache_hit_frac", missing("registry family vconf_delay_cache_evals_total not found"))
	}
	ms.set("telemetry.spans_dropped", registryMetric(tr.registry, "vconf_trace_dropped_total", "ring", "spans"))
	ms.set("telemetry.decisions_dropped", registryMetric(tr.registry, "vconf_trace_dropped_total", "ring", "decisions"))
	return budget
}
