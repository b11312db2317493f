package main

import (
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"strings"
	"time"

	"vconf/internal/confsim"
	"vconf/internal/cost"
	"vconf/internal/faults"
	"vconf/internal/orchestrator"
	"vconf/internal/sim"
	"vconf/internal/telemetry"
	"vconf/internal/workload"
)

// eventSource builds the run's one event stream: the replayer of a
// recorded trace, or the sim engine over the churn generator, merged with
// the fault generator in chaos mode. closeSrc releases the trace file.
func eventSource(opts churnOpts) (src sim.EventSource, closeSrc func(), err error) {
	if opts.replayTrace != "" {
		f, err := os.Open(opts.replayTrace)
		if err != nil {
			return nil, nil, fmt.Errorf("replay-trace: %w", err)
		}
		rp, err := sim.NewReplayer(f)
		if err != nil {
			f.Close()
			return nil, nil, fmt.Errorf("replay-trace: %w", err)
		}
		return rp, func() { f.Close() }, nil
	}
	cs, err := workload.NewChurnSource(opts.churnCfg)
	if err != nil {
		return nil, nil, err
	}
	if opts.faultCfg == nil {
		return sim.New(cs), func() {}, nil
	}
	fs, err := faults.NewSource(*opts.faultCfg)
	if err != nil {
		return nil, nil, err
	}
	return sim.New(cs, fs), func() {}, nil
}

// countEvents counts the events of a second instance of the run's source.
// Both generators and a replay file reopen to the same stream, so the
// count is exact without the run ever holding its schedule.
func countEvents(opts churnOpts) (int, error) {
	src, closeSrc, err := eventSource(opts)
	if err != nil {
		return 0, err
	}
	defer closeSrc()
	n := 0
	for _, ok := src.Next(); ok; _, ok = src.Next() {
		n++
	}
	return n, src.Err()
}

// untilSource ends its source's stream after the events at or before
// until, holding the first later event back for the next stream.
type untilSource struct {
	sim.EventSource
	until float64
	held  *workload.Event
}

func (u *untilSource) Next() (workload.Event, bool) {
	if u.held == nil {
		e, ok := u.EventSource.Next()
		if !ok {
			return e, false
		}
		u.held = &e
	}
	if e := *u.held; !(e.TimeS > u.until) {
		u.held = nil
		return e, true
	}
	return workload.Event{}, false
}

// runOnline drives the online orchestrator over the run's event source and
// reports the run's telemetry plus the final drift vs a from-scratch
// re-solve oracle.
func runOnline(w io.Writer, ev *cost.Evaluator, opts churnOpts) error {
	sc := ev.Scenario()
	// The sink stays nil unless asked for: a nil *telemetry.Sink is the
	// zero-overhead disabled state on every orchestrator hot path. Chaos
	// mode always builds one — the heal-phase breakdown reads the span
	// ring.
	wantSink := opts.listen != "" || opts.traceOut != "" || opts.spanOut != "" || opts.chaos || opts.slo ||
		opts.metricsOut != "" || opts.tsOut != "" || opts.alertsOut != "" || opts.flightOut != ""
	// The event count sizes the telemetry rings, so -trace-out stays
	// lossless, and heads the interval log. Counting a replay queues all
	// its digests, so a -virtual run that needs neither skips it.
	events := 0
	if wantSink || !opts.virtual {
		n, err := countEvents(opts)
		if err != nil {
			return err
		}
		events = n
	}
	var sink *telemetry.Sink
	if wantSink {
		cfg := telemetry.Config{
			TraceCapacity: events + 8,
			SessionRegion: opts.homes,
			SpanCapacity:  16 * (events + 8),
			Classes:       workload.SLOClassNames,
			SessionClass:  workload.SessionClasses(sc, 0),
			SampleEveryS:  opts.sampleEvery,
		}
		if opts.slo {
			targets := make(map[string]int64, len(workload.SLOClassNames))
			for _, c := range workload.SLOClassNames {
				targets[c] = int64(opts.sloDelayMS * 1000)
			}
			cfg.SLO = telemetry.DefaultSLORules(workload.SLOClassNames, targets)
		}
		sink = telemetry.New(cfg)
	}
	if opts.listen != "" {
		srv, err := telemetry.Serve(sink, opts.listen)
		if err != nil {
			return err
		}
		defer srv.Close()
		fmt.Fprintf(w, "telemetry: serving %s, /debug/pprof on http://%s\n", strings.Join(telemetry.Documents(), ", "), srv.Addr())
	}

	var (
		rec     *sim.Recorder
		recFile *os.File
	)
	if opts.recordTrace != "" {
		f, err := os.Create(opts.recordTrace)
		if err != nil {
			return fmt.Errorf("record-trace: %w", err)
		}
		// The success path checks the close; this one covers the errors.
		defer f.Close()
		recFile = f
		if rec, err = sim.NewRecorder(f); err != nil {
			return fmt.Errorf("record-trace: %w", err)
		}
	}
	src, closeSrc, err := eventSource(opts)
	if err != nil {
		return err
	}
	defer closeSrc()
	rp, _ := src.(*sim.Replayer)

	ocfg := orchestrator.DefaultConfig(opts.seed)
	ocfg.Core = opts.core
	ocfg.Shards = opts.shards
	ocfg.HopBudget = opts.hopBudget
	ocfg.Telemetry = sink
	ocfg.AgentRegion = opts.agentRegion
	orc, err := orchestrator.New(ev, opts.boot, ocfg)
	if err != nil {
		return err
	}
	defer orc.Close()
	var rt *confsim.Runtime
	if opts.virtual {
		fmt.Fprintf(w, "vcsim virtual: %d sessions pool, %d agents, init=%s, horizon %.0f virtual s (control plane only)\n",
			sc.NumSessions(), sc.NumAgents(), opts.initName, opts.duration)
	} else {
		rt, err = confsim.New(sc, ev.Params(), confsim.DefaultConfig(opts.seed))
		if err != nil {
			return err
		}
		orc.AttachRuntime(rt)
		fmt.Fprintf(w, "vcsim churn: %d sessions pool, %d agents, init=%s, λ=%.3f/s, hold=%.0fs, %d events\n",
			sc.NumSessions(), sc.NumAgents(), opts.initName, opts.churnCfg.ArrivalRatePerS, opts.churnCfg.MeanHoldS, events)
	}

	// Each report is checked against a replay, recorded, and logged
	// outside -virtual.
	onReport := func(rep orchestrator.EventReport) error {
		d := sim.Digest{Phi: rep.Objective, Active: rep.ActiveSessions, Commits: rep.Commits}
		if rp != nil {
			if div := rp.Check(d); div != nil {
				return div
			}
		}
		if rec != nil {
			if err := rec.Record(rep.Event, d); err != nil {
				return err
			}
		}
		e := rep.Event
		switch {
		case opts.virtual:
		case e.Kind.IsFault():
			fmt.Fprintf(w, "t=%7.1fs fault %-13s agent=%d region=%d scale=%.2f orphans=%d evac=%d rej=%d Φ=%.2f live=%d\n",
				e.TimeS, e.Kind, e.Agent, e.Region, e.Scale,
				rep.Orphans, rep.Evacuated, rep.EvacRejects, rep.Objective, rep.ActiveSessions)
		default:
			// An unadmitted arrival was dropped; an unadmitted departure is
			// the benign echo of an earlier drop.
			kind, note := "arrive", " (dropped)"
			if e.Kind == workload.EventDeparture {
				kind, note = "depart", " (skipped)"
			}
			if rep.Admitted {
				note = ""
			}
			fmt.Fprintf(w, "t=%7.1fs %s session %2d%s: reopt=%d commits=%d latency=%s Φ=%.2f live=%d\n",
				e.TimeS, kind, e.Session, note, len(rep.Reopt), rep.Commits,
				rep.Latency.Round(10*time.Microsecond), rep.Objective, rep.ActiveSessions)
		}
		return nil
	}
	// Each RunSource call ends at a print boundary with the data plane
	// ticked to it and the orchestrator quiesced; -virtual has one. The
	// horizon is always the last boundary, so a duration that is not a
	// multiple of the interval still reaches it, and its call takes
	// whatever the source still holds.
	step := opts.interval
	if opts.virtual {
		step = opts.duration
	}
	bounded := &untilSource{EventSource: src}
	start := time.Now()
	for t := math.Min(step, opts.duration); ; t = math.Min(t+step, opts.duration) {
		last := !(t < opts.duration-1e-9)
		bounded.until = t
		if last {
			bounded.until = math.Inf(1)
		}
		if err := orc.RunSource(bounded, t, onReport); err != nil {
			return err
		}
		if rt != nil {
			tel, err := rt.Tick(1e-3)
			if err != nil {
				return err
			}
			fmt.Fprintf(w, "t=%7.1fs traffic=%8.2f Mbps (steady %.2f + overhead %.2f) delay=%6.1f ms live=%d\n",
				t, tel.InterAgentMbps, tel.SteadyMbps, tel.OverheadMbps, tel.MeanDelayMS, tel.ActiveSessions)
		}
		if last {
			break
		}
	}
	wall := time.Since(start)
	if rec != nil {
		if err := errors.Join(rec.Flush(), recFile.Close()); err != nil {
			return fmt.Errorf("record-trace: %w", err)
		}
	}

	// Close the partial tail window so the final series, alert evaluation
	// and file dumps cover the whole horizon.
	sink.Flush()

	st := orc.Stats()
	if opts.virtual {
		virtualS := orc.Now()
		wallS := math.Max(wall.Seconds(), 1e-9)
		fmt.Fprintf(w, "virtual: %d events over %.1f virtual s in %s wall — %.0fx real time, %.0f events/s\n",
			st.Events, virtualS, wall.Round(time.Millisecond), virtualS/wallS, float64(st.Events)/wallS)
	}
	if rec != nil {
		fmt.Fprintf(w, "trace: recorded %d events to %s\n", rec.Recorded(), opts.recordTrace)
	}
	if rp != nil {
		fmt.Fprintf(w, "replay: verified %d decisions, no divergence\n", rp.Checked())
	}
	meanLat := "n/a"
	if st.Events > 0 {
		meanLat = (st.ReoptTotal / time.Duration(st.Events)).Round(10 * time.Microsecond).String()
	}
	reused, across := "n/a", "n/a"
	if st.WalkHops > 0 {
		reused = fmt.Sprintf("%.1f%%", 100*float64(st.WalkReused)/float64(st.WalkHops))
		across = fmt.Sprintf("%.1f%%", 100*float64(st.WalkReusedAcross)/float64(st.WalkHops))
	}
	fmt.Fprintf(w, "churn: %d arrivals (%d dropped), %d departures (%d skipped), %d tasks, %d commits, %d rejects; %d hops walked, %s reused, %s reused across walks\n",
		st.Arrivals, st.Dropped, st.Departures, st.Skipped, st.Tasks, st.Commits, st.Rejects, st.WalkHops, reused, across)
	dataPlane := ""
	if rt != nil {
		rts := rt.Stats()
		dataPlane = fmt.Sprintf("; data plane: %d migrations, overhead %.2f Mbps·s", rts.Migrations, rts.TotalOverheadMbpsS)
	}
	fmt.Fprintf(w, "reopt latency: mean %s, p50 %s, p99 %s, max %s%s\n",
		meanLat, st.ReoptP50.Round(10*time.Microsecond), st.ReoptP99.Round(10*time.Microsecond),
		st.ReoptMax.Round(10*time.Microsecond), dataPlane)
	if opts.chaos || st.Incidents > 0 {
		fmt.Fprintf(w, "incidents: %d (orphans %d, evacuated %d, rejected %d), time-to-recovery p50 %s p99 %s, rejects during degradation %d\n",
			st.Incidents, st.Orphans, st.Evacuated, st.EvacRejects,
			st.RecoverP50.Round(10*time.Microsecond), st.RecoverP99.Round(10*time.Microsecond),
			st.DegradedRejects)
		printHealBreakdown(w, sink, st.Incidents)
	}
	printHealthSummary(w, sink)

	active := orc.ActiveSessions()
	switch {
	case len(active) == 0:
		fmt.Fprintln(w, "final: no live sessions at horizon")
	default:
		// The yardstick re-solves from scratch on the surviving fleet: any
		// capacity still lost to unrecovered incidents degrades the oracle's
		// engine the same way it degrades the live ledger.
		_, oraclePhi, err := orchestrator.OracleDegraded(ev, active, opts.boot, opts.core, 200, orc.CapacityScales())
		if err != nil {
			// The oracle re-bootstraps from scratch; under tight capacity it
			// can fail where the incrementally-built live state is feasible.
			// That is a limitation of the yardstick, not of this run.
			fmt.Fprintf(w, "final: online Φ=%.2f; oracle unavailable (%v)\n", orc.Objective(), err)
			break
		}
		online := orc.Objective()
		drift := 0.0
		if oraclePhi > 0 {
			drift = 100 * (online - oraclePhi) / oraclePhi
		}
		fmt.Fprintf(w, "final: online Φ=%.2f vs oracle Φ=%.2f (drift %+.1f%%) over %d live sessions\n",
			online, oraclePhi, drift, len(active))
	}
	if n, mean, p99 := sink.CounterfactualSummary(); n > 0 {
		fmt.Fprintf(w, "counterfactual-k: %d committed decisions, regret vs 2nd-best mean %.3f p99 %.3f\n",
			n, mean, p99)
	}
	if err := orc.CheckInvariants(); err != nil {
		return fmt.Errorf("final state infeasible: %w", err)
	}
	fmt.Fprintln(w, "final state feasible: capacities and delay caps hold")
	if sink != nil {
		// Each document asked for goes to its file, followed by a line saying
		// what it held.
		recs, spans := sink.Recorder(), sink.Spans()
		ts, alerts, flight := sink.TimeseriesDoc(), sink.AlertsDoc(), sink.FlightDoc()
		for _, out := range []struct {
			flag, path string
			doc        any
			note       string
		}{
			{"trace-out", opts.traceOut, recs, fmt.Sprintf("trace: wrote %d decision records to %s (%d dropped)", recs.Len(), opts.traceOut, recs.Dropped())},
			{"span-out", opts.spanOut, spans, fmt.Sprintf("spans: wrote %d span records to %s (%d dropped)", spans.Len(), opts.spanOut, spans.Dropped())},
			{"metrics-out", opts.metricsOut, telemetry.MetricsDoc{Metrics: sink.Registry().Snapshot()}, "metrics: wrote final snapshot to " + opts.metricsOut},
			{"timeseries-out", opts.tsOut, ts, fmt.Sprintf("timeseries: wrote %d windows to %s", ts.WindowsTotal, opts.tsOut)},
			{"alerts-out", opts.alertsOut, alerts, fmt.Sprintf("alerts: wrote %d transitions to %s", len(alerts.Events), opts.alertsOut)},
			{"flightrec-out", opts.flightOut, flight, fmt.Sprintf("flightrec: wrote %d dumps to %s", len(flight.Dumps), opts.flightOut)},
		} {
			if out.path == "" {
				continue
			}
			if err := writeDoc(out.path, out.doc); err != nil {
				return fmt.Errorf("%s: %w", out.flag, err)
			}
			fmt.Fprintln(w, out.note)
		}
	}
	if opts.listen != "" && opts.linger > 0 {
		// Keep the endpoint alive so an external scraper (e.g. the CI smoke
		// test) can read the finished run's metrics before we exit.
		fmt.Fprintf(w, "telemetry: lingering %.0fs for scrapes\n", opts.linger)
		time.Sleep(time.Duration(opts.linger * float64(time.Second)))
	}
	return nil
}
