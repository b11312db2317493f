// Command vcsim runs the full stack end to end on one random workload: the
// control plane (AgRank bootstrap + Markov approximation) driving the
// simulated data plane (frame relay, transcoding, dual-feed migrations), and
// prints a per-second telemetry log.
//
// Usage:
//
//	vcsim [-seed N] [-duration S] [-beta B] [-init agrank|nrst] [-users N] [-interval S]
//	vcsim -churn [-rate λ] [-hold S] [-shards N] [-hops N] ...
//
// The -churn mode replaces the static solve with the online orchestrator: a
// Poisson arrival/departure schedule drives event-by-event incremental
// re-optimization on a sharded solver pool, and the final objective is
// compared against a from-scratch re-solve oracle. -chaos adds seeded fault
// injection; -virtual drives the control plane from the virtual clock.
// -trace-out and -span-out write the decision and span rings as JSONL and
// print how many records each ring overwrote, so a wrapped ring never reads
// as complete; the other -*-out flags write the JSON documents -listen serves.
package main

import (
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"strings"
	"time"

	"vconf/internal/agrank"
	"vconf/internal/assign"
	"vconf/internal/baseline"
	"vconf/internal/confsim"
	"vconf/internal/core"
	"vconf/internal/cost"
	"vconf/internal/faults"
	"vconf/internal/model"
	"vconf/internal/orchestrator"
	"vconf/internal/sim"
	"vconf/internal/telemetry"
	"vconf/internal/workload"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "vcsim:", err)
		os.Exit(1)
	}
}

func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("vcsim", flag.ContinueOnError)
	// The -churn/-chaos/-virtual knobs land in opts and the fault rates in
	// fc; the remaining flags shape the scenario and the static solve.
	var (
		opts churnOpts
		fc   = faults.Config{DegradeFloor: 0.4}
	)
	fs.Int64Var(&opts.seed, "seed", 1, "random seed")
	fs.Float64Var(&opts.duration, "duration", 120, "virtual seconds to simulate")
	beta := fs.Float64("beta", 400, "Markov approximation β")
	fs.StringVar(&opts.initName, "init", "agrank", "bootstrap policy: agrank or nrst")
	users := fs.Int("users", 38, "number of conferencing users")
	fs.Float64Var(&opts.interval, "interval", 10, "telemetry print interval (virtual seconds)")

	churn := fs.Bool("churn", false, "online mode: Poisson churn through the orchestrator")
	virtual := fs.Bool("virtual", false, "virtual-clock mode: drive the orchestrator from the lazy discrete-event engine (control plane only, decoupled from wall time)")
	fs.StringVar(&opts.recordTrace, "record-trace", "", "virtual: record the merged event stream + decision digests as a versioned JSONL trace (implies -virtual)")
	fs.StringVar(&opts.replayTrace, "replay-trace", "", "virtual: replay a recorded trace and verify every decision digest; scenario flags must match the recording run (implies -virtual)")
	fs.Float64Var(&opts.rate, "rate", 0.05, "churn: session arrival rate λ (per virtual second)")
	fs.Float64Var(&opts.hold, "hold", 120, "churn: mean session hold time (virtual seconds)")
	fs.IntVar(&opts.shards, "shards", 0, "churn: solver pool size (0 = GOMAXPROCS)")
	fs.IntVar(&opts.hopBudget, "hops", 0, "churn: refinement hop budget per task (0 = default)")

	fs.StringVar(&opts.listen, "listen", "", "churn: serve the telemetry documents and pprof on this address (e.g. 127.0.0.1:9464)")
	fs.StringVar(&opts.traceOut, "trace-out", "", "churn: write the per-decision trace as JSONL to this file")
	fs.StringVar(&opts.spanOut, "span-out", "", "churn: write the finished causal spans as JSONL to this file")
	fs.Float64Var(&opts.linger, "linger", 0, "churn: keep the -listen endpoint up this many wall seconds after the run")

	fs.BoolVar(&opts.slo, "slo", false, "churn: evaluate burn-rate SLO alerts over the health sampler windows and print the alert timeline")
	fs.Float64Var(&opts.sloDelayMS, "slo-delay-ms", 400, "churn: per-class p-high session-delay SLO target (ms) for -slo")
	fs.Float64Var(&opts.sampleEvery, "sample-every", 1, "churn: health sampler window length (virtual seconds; 0 disables sampling)")
	fs.StringVar(&opts.metricsOut, "metrics-out", "", "churn: write the final /metrics.json snapshot to this file")
	fs.StringVar(&opts.tsOut, "timeseries-out", "", "churn: write the health sampler windows (/timeseries.json) to this file")
	fs.StringVar(&opts.alertsOut, "alerts-out", "", "churn: write the SLO alert timeline (/alerts.json) to this file")
	fs.StringVar(&opts.flightOut, "flightrec-out", "", "churn: write the flight-recorder dumps (/flightrec.json) to this file")

	fs.BoolVar(&opts.chaos, "chaos", false, "chaos mode: regional fleet churn with seeded fault injection (agent failures, regional outages, degradations, flash crowds)")
	agents := fs.Int("agents", 24, "chaos: fleet size")
	regions := fs.Int("regions", 4, "chaos: fleet regions")
	fs.Float64Var(&fc.AgentMTBFS, "agent-mtbf", 300, "chaos: mean time between per-agent failures (virtual s; 0 disables)")
	fs.Float64Var(&fc.AgentMTTRS, "agent-mttr", 60, "chaos: mean agent repair time (virtual s)")
	fs.Float64Var(&fc.RegionMTBFS, "region-mtbf", 600, "chaos: mean time between per-region outages (virtual s; 0 disables)")
	fs.Float64Var(&fc.RegionMTTRS, "region-mttr", 60, "chaos: mean region repair time (virtual s)")
	fs.Float64Var(&fc.DegradeMTBFS, "degrade-mtbf", 300, "chaos: mean time between partial capacity degradations (virtual s; 0 disables)")
	fs.Float64Var(&fc.DegradeMTTRS, "degrade-mttr", 60, "chaos: mean degradation repair time (virtual s)")
	fs.Float64Var(&fc.FlashMTBFS, "flash-mtbf", 300, "chaos: mean time between per-region flash crowds (virtual s; 0 disables)")
	fs.IntVar(&fc.FlashIntensity, "flash-intensity", 3, "chaos: burst arrivals per flash crowd")
	if err := fs.Parse(args); err != nil {
		return err
	}

	var (
		sc          *model.Scenario
		homes       []int
		agentRegion []int
		err         error
	)
	if opts.chaos {
		fleet := workload.DefaultFleetConfig(opts.seed)
		fleet.NumAgents = *agents
		fleet.NumUsers = *users
		fleet.Regions = *regions
		fleet.AgentBandwidthMbps = 500
		fleet.AgentTranscodeSlots = 16
		sc, homes, err = workload.GenerateSyntheticFleetRegions(fleet)
		if err != nil {
			return err
		}
		agentRegion = workload.AgentRegions(*agents, *regions)
	} else {
		wl := workload.Prototype(opts.seed)
		wl.NumUsers = *users
		sc, err = workload.Generate(wl)
		if err != nil {
			return err
		}
	}
	p := cost.DefaultParams()
	ev, err := cost.NewEvaluator(sc, p)
	if err != nil {
		return err
	}

	var boot core.Bootstrapper
	switch opts.initName {
	case "agrank":
		opts := agrank.DefaultOptions(2)
		boot = func(a *assign.Assignment, s model.SessionID, ledger cost.LedgerAPI) error {
			_, err := agrank.BootstrapSession(a, s, p, ledger, opts)
			return err
		}
	case "nrst":
		boot = func(a *assign.Assignment, s model.SessionID, ledger cost.LedgerAPI) error {
			return baseline.AssignSessionNearest(a, s, p, ledger)
		}
	default:
		return fmt.Errorf("unknown init policy %q", opts.initName)
	}

	coreCfg := core.DefaultConfig(opts.seed)
	coreCfg.Beta = *beta
	virtualMode := *virtual || opts.recordTrace != "" || opts.replayTrace != ""
	if *churn || opts.chaos || virtualMode {
		opts.params = p
		opts.boot = boot
		opts.core = coreCfg
		opts.agentRegion = agentRegion
		opts.homes = homes
		opts.churnCfg = workload.ChurnConfig{
			Seed:            opts.seed,
			HorizonS:        opts.duration,
			ArrivalRatePerS: opts.rate,
			MeanHoldS:       opts.hold,
			NumSessions:     sc.NumSessions(),
		}
		if opts.chaos {
			// Churn draws from the front of the session pool; flash crowds
			// burst from the remaining sessions, grouped by home region, so
			// the two generators can never double-arrive a session.
			nChurn := len(homes) * 3 / 5
			opts.churnCfg.NumSessions = nChurn
			fc.FlashSessions = make([][]int, *regions)
			for s := nChurn; s < len(homes); s++ {
				fc.FlashSessions[homes[s]] = append(fc.FlashSessions[homes[s]], s)
			}
			fc.Seed = opts.seed + 1
			fc.HorizonS = opts.duration
			fc.NumAgents = *agents
			fc.AgentRegion = agentRegion
			fc.FlashHoldS = opts.hold / 2
			opts.faultCfg = &fc
		}
		src, closeSrc, err := eventSource(opts)
		if err != nil {
			return err
		}
		defer closeSrc()
		if virtualMode {
			return runVirtual(w, sc, ev, src, opts)
		}
		return runChurn(w, sc, ev, src, opts)
	}
	eng, err := core.NewEngine(ev, coreCfg)
	if err != nil {
		return err
	}
	rt, err := confsim.New(sc, p, confsim.DefaultConfig(opts.seed))
	if err != nil {
		return err
	}
	eng.OnHop = func(timeS float64, s model.SessionID, r core.HopResult) {
		if r.Moved {
			_ = rt.Migrate(timeS, r.Decision)
			fmt.Fprintf(w, "t=%7.1fs session %2d migrates: %s (Φ %.2f → %.2f)\n",
				timeS, s, r.Decision, r.PhiBefore, r.PhiAfter)
		}
	}
	for s := 0; s < sc.NumSessions(); s++ {
		if err := eng.ActivateSession(model.SessionID(s), boot); err != nil {
			return err
		}
	}

	fmt.Fprintf(w, "vcsim: %d users, %d sessions, %d agents, init=%s, β=%.0f\n",
		sc.NumUsers(), sc.NumSessions(), sc.NumAgents(), opts.initName, *beta)
	init := ev.ReportSystem(eng.Assignment())
	fmt.Fprintf(w, "t=    0.0s traffic=%8.2f Mbps delay=%6.1f ms objective=%.2f\n",
		init.InterTraffic, init.MeanDelayMS, init.Objective)

	for t := opts.interval; t <= opts.duration+1e-9; t += opts.interval {
		if _, err := eng.Run(t, 0); err != nil {
			return err
		}
		rt.SetAssignment(eng.Assignment())
		tel, err := rt.Tick(opts.interval)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "t=%7.1fs traffic=%8.2f Mbps (steady %.2f + overhead %.2f) delay=%6.1f ms frames=%d\n",
			t, tel.InterAgentMbps, tel.SteadyMbps, tel.OverheadMbps, tel.MeanDelayMS, tel.FramesRelayed)
	}

	final := ev.ReportSystem(eng.Assignment())
	hops, moves := eng.Hops()
	st := rt.Stats()
	fmt.Fprintf(w, "final: traffic %.2f→%.2f Mbps, delay %.1f→%.1f ms, hops=%d moves=%d migrations=%d overhead=%.2f Mbps·s\n",
		init.InterTraffic, final.InterTraffic, init.MeanDelayMS, final.MeanDelayMS,
		hops, moves, st.Migrations, st.TotalOverheadMbpsS)
	if err := ev.CheckFeasible(eng.Assignment()); err != nil {
		return fmt.Errorf("final assignment infeasible: %w", err)
	}
	fmt.Fprintln(w, "final assignment feasible: constraints (1)-(8) hold")
	return nil
}

// printHealBreakdown attributes healing wall time phase by phase from the
// span ring: degrade (scale application), evict (teardown), re-home
// (re-bootstrap) and re-balance (post-recovery reopt selection), printed
// as per-incident means next to the TTR percentiles so a slow recovery
// points at its slow phase.
func printHealBreakdown(w io.Writer, sink *telemetry.Sink, incidents int) {
	if sink == nil || incidents == 0 {
		return
	}
	sums := map[string]time.Duration{}
	for _, sp := range sink.Spans().Items() {
		switch sp.Name {
		case "heal", "degrade", "evict", "re-home", "re-balance":
			sums[sp.Name] += time.Duration(sp.DurNs)
		}
	}
	per := func(name string) time.Duration {
		return (sums[name] / time.Duration(incidents)).Round(time.Microsecond)
	}
	fmt.Fprintf(w, "heal phases (mean/incident): total %s = degrade %s + evict %s + re-home %s; re-balance %s across recoveries\n",
		per("heal"), per("degrade"), per("evict"), per("re-home"),
		sums["re-balance"].Round(time.Microsecond))
}

// printHealthSummary prints the SLO alert timeline, per-rule burn-rate
// status and the flight-recorder activity — the human-readable face of
// /alerts.json and /flightrec.json. All virtual-time, so the block is
// byte-identical across same-seed runs.
func printHealthSummary(w io.Writer, sink *telemetry.Sink) {
	alerts := sink.AlertsDoc()
	for _, ev := range alerts.Events {
		inc := ""
		if ev.Incident != 0 {
			inc = fmt.Sprintf(" incident=%d(%s)", ev.Incident, ev.IncidentKind)
		}
		fmt.Fprintf(w, "slo: t=%7.1fs %-7s %-18s fast burn %.1f slow burn %.1f%s\n",
			ev.TimeS, ev.State, ev.Rule, ev.FastBurn, ev.SlowBurn, inc)
	}
	for _, rs := range alerts.Status {
		fmt.Fprintf(w, "slo: rule %-18s fires=%d resolves=%d firing %.0fs (%d windows), max fast burn %.1f\n",
			rs.Rule, rs.Fires, rs.Resolves, rs.FiringS, rs.FiringWindows, rs.MaxFastBurn)
	}
	if fl := sink.FlightDoc(); len(fl.Dumps) > 0 || fl.Dropped > 0 {
		fmt.Fprintf(w, "flightrec: %d dumps frozen (%d dropped)\n", len(fl.Dumps), fl.Dropped)
	}
}

// writeDoc writes one exposition document to a file: a ring as JSONL, any
// other document as indented JSON.
func writeDoc(path string, doc any) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	var werr error
	if ring, ok := doc.(interface{ WriteJSONL(io.Writer) error }); ok {
		werr = ring.WriteJSONL(f)
	} else {
		werr = telemetry.WriteJSON(f, doc)
	}
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	return werr
}

// churnOpts bundles the -churn mode knobs (the flag surface of runChurn).
type churnOpts struct {
	params    cost.Params
	boot      core.Bootstrapper
	core      core.Config
	seed      int64
	duration  float64
	interval  float64
	rate      float64
	hold      float64
	shards    int
	hopBudget int
	initName  string
	listen    string
	traceOut  string
	spanOut   string
	linger    float64
	// Health monitoring: slo enables the stock burn-rate rule set with
	// sloDelayMS as the per-class delay target; sampleEvery sizes the
	// sampler windows; the *Out paths dump the exposition documents.
	slo         bool
	sloDelayMS  float64
	sampleEvery float64
	metricsOut  string
	tsOut       string
	alertsOut   string
	flightOut   string
	// chaos mode: agentRegion maps agent → region for the orchestrator's
	// regional healing, homes maps session → home region for per-region
	// telemetry labels.
	chaos       bool
	agentRegion []int
	homes       []int
	// churnCfg/faultCfg are the generator specs of the event source
	// (faultCfg nil outside chaos mode); recordTrace/replayTrace are the
	// virtual mode's sim-trace file paths.
	churnCfg    workload.ChurnConfig
	faultCfg    *faults.Config
	recordTrace string
	replayTrace string
}

// runChurn drives the online orchestrator over the drained event source and
// reports per-interval telemetry plus the final drift vs a from-scratch
// re-solve oracle.
func runChurn(w io.Writer, sc *model.Scenario, ev *cost.Evaluator, src sim.EventSource, opts churnOpts) error {
	// The whole schedule is drained up front: its length sizes the
	// telemetry rings.
	var events []workload.Event
	for e, ok := src.Next(); ok; e, ok = src.Next() {
		events = append(events, e)
	}
	if err := src.Err(); err != nil {
		return err
	}

	// The sink stays nil unless asked for: a nil *telemetry.Sink is the
	// zero-overhead disabled state on every orchestrator hot path. Chaos
	// mode always builds one — the heal-phase breakdown reads the span
	// ring.
	var sink *telemetry.Sink
	if opts.listen != "" || opts.traceOut != "" || opts.spanOut != "" || opts.chaos || opts.slo ||
		opts.metricsOut != "" || opts.tsOut != "" || opts.alertsOut != "" || opts.flightOut != "" {
		cfg := telemetry.Config{
			TraceCapacity: len(events) + 8,
			SessionRegion: opts.homes,
			SpanCapacity:  16 * (len(events) + 8),
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
	rt, err := confsim.New(sc, opts.params, confsim.DefaultConfig(opts.seed))
	if err != nil {
		return err
	}
	orc.AttachRuntime(rt)

	fmt.Fprintf(w, "vcsim churn: %d sessions pool, %d agents, init=%s, λ=%.3f/s, hold=%.0fs, %d events\n",
		sc.NumSessions(), sc.NumAgents(), opts.initName, opts.rate, opts.hold, len(events))

	// Process events interval by interval so the telemetry log interleaves
	// churn with data-plane measurements. The horizon itself is always the
	// last boundary, so a duration that is not a multiple of the interval
	// still processes the tail events and ticks the data plane to the end.
	i := 0
	for t := math.Min(opts.interval, opts.duration); ; t = math.Min(t+opts.interval, opts.duration) {
		for i < len(events) && events[i].TimeS <= t {
			e := events[i]
			if dt := e.TimeS - rt.Now(); dt > 1e-9 {
				if _, err := rt.Tick(dt); err != nil {
					return err
				}
			}
			rep, err := orc.HandleEvent(e)
			if err != nil {
				return err
			}
			if e.Kind.IsFault() {
				fmt.Fprintf(w, "t=%7.1fs fault %-13s agent=%d region=%d scale=%.2f orphans=%d evac=%d rej=%d Φ=%.2f live=%d\n",
					e.TimeS, e.Kind, e.Agent, e.Region, e.Scale,
					rep.Orphans, rep.Evacuated, rep.EvacRejects, rep.Objective, rep.ActiveSessions)
				i++
				continue
			}
			kind := "arrive"
			if e.Kind == workload.EventDeparture {
				kind = "depart"
			}
			note := ""
			if !rep.Admitted {
				// An unadmitted arrival was dropped; an unadmitted departure
				// is the benign echo of an earlier drop.
				if e.Kind == workload.EventArrival {
					note = " (dropped)"
				} else {
					note = " (skipped)"
				}
			}
			fmt.Fprintf(w, "t=%7.1fs %s session %2d%s: reopt=%d commits=%d latency=%s Φ=%.2f live=%d\n",
				e.TimeS, kind, e.Session, note, len(rep.Reopt), rep.Commits,
				rep.Latency.Round(10*time.Microsecond), rep.Objective, rep.ActiveSessions)
			i++
		}
		if dt := t - rt.Now(); dt > 1e-9 {
			if _, err := rt.Tick(dt); err != nil {
				return err
			}
		}
		tel, err := rt.Tick(1e-3)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "t=%7.1fs traffic=%8.2f Mbps (steady %.2f + overhead %.2f) delay=%6.1f ms live=%d\n",
			t, tel.InterAgentMbps, tel.SteadyMbps, tel.OverheadMbps, tel.MeanDelayMS, tel.ActiveSessions)
		if t >= opts.duration-1e-9 {
			break
		}
	}

	// Close the partial tail window so the final series, alert evaluation
	// and file dumps cover the whole horizon.
	sink.Flush()

	st := orc.Stats()
	rts := rt.Stats()
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
	fmt.Fprintf(w, "reopt latency: mean %s, p50 %s, p99 %s, max %s; data plane: %d migrations, overhead %.2f Mbps·s\n",
		meanLat, st.ReoptP50.Round(10*time.Microsecond), st.ReoptP99.Round(10*time.Microsecond),
		st.ReoptMax.Round(10*time.Microsecond), rts.Migrations, rts.TotalOverheadMbpsS)
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
