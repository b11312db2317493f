// One workload, start to finish: set-up, the alternating stream and sync
// repetitions, the traced pass, the layer drivers, and the checks that make
// the result trustworthy. Any failed check is an error: nothing is printed.
package main

import (
	"fmt"
	"math"
	"time"
)

// Which halves of the catalogue a run measures.
const (
	partEndToEnd = 1 << iota
	partPerLayer
	partBoth = partEndToEnd | partPerLayer
)

const (
	// minReps repetitions are always run; more follow while the measuring
	// time lasts. Every timed end-to-end value is their noise floor.
	minReps = 3
	// setupReps set-ups are timed and the median reported, so that set-up
	// time is as steady as the other metrics.
	setupReps = 7
	// minClosure is the share of the traced wall time the spans must cover.
	minClosure = 0.95
	// spinDriftLimit marks a result noisy when the reference loop changed
	// speed by more than this between the start and the end of the run.
	spinDriftLimit = 0.10
	// setupBudget is how long set-up is repeated for (at least setupReps
	// times), so that a 15 ms set-up is timed some sixty times.
	setupBudget = time.Second
)

type runOpts struct {
	spec workloadSpec
	seed int64
	// seconds is the measuring time of the stream/sync repetitions.
	seconds float64
	// scale shrinks the horizon; 1 except in the smoke test.
	scale  float64
	parts  int
	outDir string
}

// report is one workload's full result.
type report struct {
	Workload   string   `json:"workload"`
	Why        string   `json:"why"`
	Seed       int64    `json:"seed"`
	Seconds    float64  `json:"seconds"`
	Scale      float64  `json:"scale"`
	Host       hostInfo `json:"host"`
	SpinBefore float64  `json:"host_spin_ns_before"`
	SpinAfter  float64  `json:"host_spin_ns_after"`
	// Noisy is set when the reference loop drifted by more than 10 %: the
	// host did not hold still, read the timings accordingly.
	Noisy bool `json:"noisy"`
	Reps  int  `json:"reps"`
	// EventsPerPass is what every stream and sync pass retired.
	EventsPerPass int `json:"events_per_pass"`
	// Attempted counts events handled in the measured passes; Failed the
	// ones that errored (a refused arrival is an answer, not an error, and
	// is what served_frac measures).
	Attempted    int                    `json:"attempted"`
	Failed       int                    `json:"failed"`
	SyncBitEqual bool                   `json:"sync_bit_equal"`
	Metrics      map[string]measurement `json:"metrics"`
	// Budget is the per-event time budget of the traced pass, TracePath
	// where its spans were written.
	Budget    []budgetLine `json:"budget,omitempty"`
	TracePath string       `json:"trace_path,omitempty"`
}

func runWorkload(o runOpts) (*report, error) {
	rep := &report{
		Workload: o.spec.Name, Why: o.spec.Why, Seed: o.seed,
		Seconds: o.seconds, Scale: o.scale, Host: readHost(),
	}
	rep.SpinBefore = spinNs()

	// Set-up, timed from nothing each time.
	// (Once is enough for the per-layer half and for the smoke test.)
	nSetup, budget := 1, time.Duration(0)
	if o.parts&partEndToEnd != 0 && o.scale == 1 {
		nSetup, budget = setupReps, setupBudget
	}
	var f *fixture
	var setupS []float64
	for i, start := 0, time.Now(); i < nSetup || time.Since(start) < budget; i++ {
		fx, d, err := timeSetup(o.spec, o.seed, o.scale)
		if err != nil {
			return nil, err
		}
		f = fx
		setupS = append(setupS, d.Seconds())
	}

	// Alternating [stream, sync] repetitions: one pair when only the layers
	// are measured, otherwise at least minReps and then while the time lasts.
	reps, seconds := 1, 0.0
	if o.parts&partEndToEnd != 0 {
		reps, seconds = minReps, o.seconds
	}
	var streams []streamResult
	var syncs []syncResult
	start := time.Now()
	for i := 0; i < reps || time.Since(start).Seconds() < seconds; i++ {
		st, err := runStream(f)
		if err != nil {
			return nil, err
		}
		sy, err := runSync(f)
		if err != nil {
			return nil, err
		}
		if st.events != sy.events {
			return nil, fmt.Errorf("%s rep %d: stream retired %d events, sync %d", o.spec.Name, i, st.events, sy.events)
		}
		streams = append(streams, st)
		syncs = append(syncs, sy)
		rep.Attempted += st.events + sy.events
	}
	rep.Reps = len(syncs)
	last := syncs[len(syncs)-1]
	rep.EventsPerPass = last.events
	if last.events == 0 {
		return nil, fmt.Errorf("%s: the workload generated no events", o.spec.Name)
	}
	rep.SyncBitEqual = true
	for i, sy := range syncs {
		if sy.events != last.events || len(sy.admitIdx) != len(last.admitIdx) || len(sy.healIdx) != len(last.healIdx) {
			return nil, fmt.Errorf("%s: sync rep %d handled %d events (%d arrivals), rep %d %d (%d)",
				o.spec.Name, i, sy.events, len(sy.admitIdx), len(syncs)-1, last.events, len(last.admitIdx))
		}
		if sy.objective != last.objective {
			rep.SyncBitEqual = false
			if !o.spec.CapacityBinds {
				return nil, fmt.Errorf("%s: sync reps diverged: objective %v in rep %d, %v in rep %d",
					o.spec.Name, sy.objective, i, last.objective, len(syncs)-1)
			}
		}
	}

	fl := floorsOf(streams, syncs)
	ms := newMetricSet(endToEndSpecs, perLayerSpecs)
	if o.parts&partEndToEnd != 0 {
		ms.set("setup_s", medianOfReps(setupS))
		endToEndMetrics(ms, f, streams, syncs, fl)
	}
	if o.parts&partPerLayer != 0 {
		tr, err := runTraced(f)
		if err != nil {
			return nil, err
		}
		if rep.TracePath, err = writeSpans(o.outDir, o.spec.Name, tr.spans); err != nil {
			return nil, fmt.Errorf("%s: writing the trace: %w", o.spec.Name, err)
		}
		rep.Budget = tracedMetrics(ms, tr, last.wall)
		if c := ms.vals["trace.closure_frac"]; c.Value == nil || *c.Value < minClosure {
			return nil, fmt.Errorf("%s: the budget does not close: trace.closure_frac %v < %v (%s)",
				o.spec.Name, c.Value, minClosure, c.Reason)
		}
		statsMetrics(ms, streams[len(streams)-1], last, fl)
		if err := layerMetrics(ms, f, last.end, time.Duration(float64(driverBudget)*o.scale)); err != nil {
			return nil, fmt.Errorf("%s: %w", o.spec.Name, err)
		}
	}

	rep.SpinAfter = spinNs()
	rep.Noisy = math.Abs(rep.SpinAfter-rep.SpinBefore) > spinDriftLimit*rep.SpinBefore
	if o.parts&partPerLayer != 0 {
		ms.set("host.spin_ns", medianOfReps([]float64{rep.SpinBefore, rep.SpinAfter}))
	}
	if o.parts&partEndToEnd != 0 {
		ms.set("peak_rss_mb", peakRSSMB())
	}
	rep.Metrics = ms.vals
	return rep, nil
}

// floors are the noise-floor timings of the repetitions (see floorOf).
type floors struct {
	// streamNs and syncNs are the floor wall times of a stream and a sync
	// pass, both summed over windows of floorWindow events so that the two
	// are comparable; eventNs is the floor of every HandleEvent call.
	streamNs float64
	syncNs   float64
	eventNs  []float64
}

func floorsOf(streams []streamResult, syncs []syncResult) floors {
	var sw, yw, ye [][]float64
	for _, st := range streams {
		sw = append(sw, st.windowNs)
	}
	for _, sy := range syncs {
		yw = append(yw, windowSums(sy.eventNs, floorWindow))
		ye = append(ye, sy.eventNs)
	}
	return floors{streamNs: sum(floorOf(sw)), syncNs: sum(floorOf(yw)), eventNs: floorOf(ye)}
}

// endToEndMetrics fills the rows a user of the system would see. Timings
// are noise floors over the repetitions; the raw per-repetition values and
// their spread are kept beside them.
func endToEndMetrics(ms *metricSet, f *fixture, streams []streamResult, syncs []syncResult, fl floors) {
	last := syncs[len(syncs)-1]
	var eps, p50s []float64
	for _, st := range streams {
		eps = append(eps, float64(st.events)/st.wall.Seconds())
	}
	for _, sy := range syncs {
		if p := percentileOf(pick(sy.eventNs, sy.admitIdx), 0.50); p.Value != nil {
			p50s = append(p50s, *p.Value/1e6)
		}
	}
	ms.set("events_per_s", ratio(float64(last.events)*1e9, fl.streamNs, "stream wall time").withReps(eps))
	admit := pick(fl.eventNs, last.admitIdx)
	ms.set("admit_p50_ms", percentileOf(admit, 0.50).scaled(1e-6).withReps(p50s))
	ms.set("admit_p95_ms", percentileOf(admit, 0.95).scaled(1e-6))
	if f.faults == nil {
		ms.set("heal_p90_ms", missing("the workload injects no faults"))
	} else {
		ms.set("heal_p90_ms", percentileOf(pick(fl.eventNs, last.healIdx), 0.90).scaled(1e-6))
	}

	// Placement quality and refusals: the same number in every repetition
	// where the sync pass is deterministic, the median over them where
	// capacity binds and it is not.
	var phi, delay, traffic, served []float64
	for _, sy := range syncs {
		if sy.phiN > 0 {
			phi = append(phi, sy.phiSum/float64(sy.phiN))
		}
		var d, t float64
		for _, s := range sy.end.active {
			sr := f.ev.ReportSession(sy.end.a, s)
			d += sr.MeanDelayMS
			t += sr.InterTraffic
		}
		if n := float64(len(sy.end.active)); n > 0 {
			delay = append(delay, d/n)
			traffic = append(traffic, t/n)
		}
		if asked, refused := placements(sy); asked > 0 {
			served = append(served, (asked-refused)/asked)
		}
	}
	ms.set("phi_per_session", medianOfReps(phi))
	ms.set("delay_ms_mean", medianOfReps(delay))
	ms.set("traffic_mbps_mean", medianOfReps(traffic))
	ms.set("served_frac", medianOfReps(served))
}

// placements counts the placement requests of a pass: arrivals plus the
// sessions faults orphaned; refused counts the ones that got none.
func placements(sy syncResult) (asked, refused float64) {
	return float64(sy.stats.Arrivals + sy.stats.Orphans), float64(sy.stats.Dropped + sy.stats.EvacRejects)
}

// statsMetrics fills the S rows from a stream pass's Stats() and the Y rows
// from a sync pass.
func statsMetrics(ms *metricSet, st streamResult, sy syncResult, fl floors) {
	s := st.stats
	tasks := float64(s.Tasks)
	churn := float64(s.Arrivals + s.Departures)
	ms.set("shard.conflict_frac", ratio(float64(s.Conflicts), tasks, "tasks"))
	ms.set("pipeline.admission_stall_frac", ratio(float64(s.AdmissionStalls), churn, "churn events"))
	ms.set("pipeline.reopt_wait_frac", ratio(float64(s.ReoptWaits), churn, "churn events"))
	ms.set("pipeline.in_flight_peak", num(float64(s.InFlightPeak)))
	ms.set("pipeline.queue_depth_peak", num(float64(s.QueueDepthPeak)))
	ms.set("orchestrator.tasks_per_event", ratio(tasks, float64(s.Events), "events"))
	ms.set("orchestrator.commit_frac", ratio(float64(s.Commits), tasks, "tasks"))
	ms.set("orchestrator.nochange_frac", ratio(float64(s.NoChange), tasks, "tasks"))
	ms.set("orchestrator.reject_frac", ratio(float64(s.Rejects), tasks, "tasks"))
	ms.set("orchestrator.evacuated_frac", ratio(float64(s.Evacuated), float64(s.Orphans), "orphaned sessions"))
	ms.set("orchestrator.stream_vs_sync", ratio(fl.syncNs, fl.streamNs, "stream wall time"))

	asked, refused := placements(sy)
	ms.set("orchestrator.drop_frac", ratio(refused, asked, "placement requests"))
	ms.set("orchestrator.alloc_bytes_per_event", ratio(float64(sy.allocBytes), float64(sy.events), "events"))
	ms.set("orchestrator.allocs_per_event", ratio(float64(sy.allocs), float64(sy.events), "events"))
}
