// Command vcsim runs the full stack end to end on one random workload: the
// control plane (AgRank bootstrap + Markov approximation) driving the
// simulated data plane (frame relay, transcoding, dual-feed migrations), and
// prints a per-second telemetry log.
//
// Usage:
//
//	vcsim [-seed N] [-duration S] [-beta B] [-init agrank|nrst] [-users N] [-interval S]
//	vcsim -churn|-chaos [-virtual] [-rate λ] [-hold S] [-shards N] [-hops N] ...
//	vcsim -virtual [-record-trace F] [-replay-trace F] ...
//
// The online modes replace the static solve with one driver: a lazy Poisson
// arrival/departure source (merged with seeded fault injection under
// -chaos, or a recorded trace under -replay-trace) streams through
// Orchestrator.RunSource, re-optimized event by event on a sharded solver
// pool, and the final objective is compared against a from-scratch re-solve
// oracle. The stream stops at each -interval boundary to print the data
// plane beside the per-event log; -virtual streams the whole horizon at
// once with no data plane and reports the virtual/wall rate.
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
	"time"

	"vconf/internal/agrank"
	"vconf/internal/assign"
	"vconf/internal/baseline"
	"vconf/internal/confsim"
	"vconf/internal/core"
	"vconf/internal/cost"
	"vconf/internal/faults"
	"vconf/internal/model"
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
	// The online-mode knobs land in opts and the fault rates in
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
	fs.Float64Var(&opts.interval, "interval", 10, "telemetry print interval (virtual seconds, finite and > 0)")

	churn := fs.Bool("churn", false, "online mode: Poisson churn through the orchestrator")
	fs.BoolVar(&opts.virtual, "virtual", false, "virtual-clock mode: stream the whole horizon through the orchestrator at once (control plane only, no per-event log, decoupled from wall time)")
	fs.StringVar(&opts.recordTrace, "record-trace", "", "virtual: record the merged event stream + decision digests as a versioned JSONL trace (implies -virtual)")
	fs.StringVar(&opts.replayTrace, "replay-trace", "", "virtual: replay a recorded trace and verify every decision digest; scenario flags must match the recording run (implies -virtual)")
	fs.Float64Var(&opts.churnCfg.ArrivalRatePerS, "rate", 0.05, "session arrival rate λ (per virtual second)")
	fs.Float64Var(&opts.churnCfg.MeanHoldS, "hold", 120, "mean session hold time (virtual seconds)")
	fs.IntVar(&opts.shards, "shards", 0, "solver pool size (0 = GOMAXPROCS)")
	fs.IntVar(&opts.hopBudget, "hops", 0, "refinement hop budget per task (0 = default)")

	fs.StringVar(&opts.listen, "listen", "", "serve the telemetry documents and pprof on this address (e.g. 127.0.0.1:9464)")
	fs.StringVar(&opts.traceOut, "trace-out", "", "write the per-decision trace as JSONL to this file")
	fs.StringVar(&opts.spanOut, "span-out", "", "write the finished causal spans as JSONL to this file")
	fs.Float64Var(&opts.linger, "linger", 0, "keep the -listen endpoint up this many wall seconds after the run")

	fs.BoolVar(&opts.slo, "slo", false, "evaluate burn-rate SLO alerts over the health sampler windows and print the alert timeline")
	fs.Float64Var(&opts.sloDelayMS, "slo-delay-ms", 400, "per-class p-high session-delay SLO target (ms) for -slo")
	fs.Float64Var(&opts.sampleEvery, "sample-every", 1, "health sampler window length (virtual seconds; 0 disables sampling)")
	fs.StringVar(&opts.metricsOut, "metrics-out", "", "write the final /metrics.json snapshot to this file")
	fs.StringVar(&opts.tsOut, "timeseries-out", "", "write the health sampler windows (/timeseries.json) to this file")
	fs.StringVar(&opts.alertsOut, "alerts-out", "", "write the SLO alert timeline (/alerts.json) to this file")
	fs.StringVar(&opts.flightOut, "flightrec-out", "", "write the flight-recorder dumps (/flightrec.json) to this file")

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
	if !(opts.interval > 0) || math.IsInf(opts.interval, 1) {
		return fmt.Errorf("-interval must be finite and greater than 0, got %v", opts.interval)
	}

	var (
		sc  *model.Scenario
		err error
	)
	if opts.chaos {
		fleet := workload.DefaultFleetConfig(opts.seed)
		fleet.NumAgents = *agents
		fleet.NumUsers = *users
		fleet.Regions = *regions
		fleet.AgentBandwidthMbps = 500
		fleet.AgentTranscodeSlots = 16
		sc, opts.homes, err = workload.GenerateSyntheticFleetRegions(fleet)
		if err != nil {
			return err
		}
		opts.agentRegion = workload.AgentRegions(*agents, *regions)
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
	opts.virtual = opts.virtual || opts.recordTrace != "" || opts.replayTrace != ""
	if *churn || opts.chaos || opts.virtual {
		opts.boot, opts.core = boot, coreCfg
		opts.churnCfg.Seed, opts.churnCfg.HorizonS = opts.seed, opts.duration
		opts.churnCfg.NumSessions = sc.NumSessions()
		if opts.chaos {
			// Churn draws from the front of the session pool; flash crowds
			// burst from the remaining sessions, grouped by home region, so
			// the two generators can never double-arrive a session.
			homes := opts.homes
			nChurn := len(homes) * 3 / 5
			opts.churnCfg.NumSessions = nChurn
			fc.FlashSessions = make([][]int, *regions)
			for s := nChurn; s < len(homes); s++ {
				fc.FlashSessions[homes[s]] = append(fc.FlashSessions[homes[s]], s)
			}
			fc.Seed = opts.seed + 1
			fc.HorizonS = opts.duration
			fc.NumAgents = *agents
			fc.AgentRegion = opts.agentRegion
			fc.FlashHoldS = opts.churnCfg.MeanHoldS / 2
			opts.faultCfg = &fc
		}
		return runOnline(w, ev, opts)
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
// points at its slow phase. A wrapped ring has dropped the oldest spans:
// the line before says how many incidents' heal spans are gone, and each
// mean covers the spans of its phase still in the ring.
func printHealBreakdown(w io.Writer, sink *telemetry.Sink, incidents int) {
	if sink == nil || incidents == 0 {
		return
	}
	sums, counts := map[string]time.Duration{}, map[string]int{}
	for _, sp := range sink.Spans().Items() {
		sums[sp.Name] += time.Duration(sp.DurNs)
		counts[sp.Name]++
	}
	if kept := counts["heal"]; kept < incidents {
		fmt.Fprintf(w, "heal phases: %d of %d incidents dropped from the span ring\n", incidents-kept, incidents)
		if kept == 0 {
			return
		}
	}
	per := func(name string) string {
		if counts[name] == 0 {
			return "n/a"
		}
		return (sums[name] / time.Duration(counts[name])).Round(time.Microsecond).String()
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

// churnOpts bundles the online-mode knobs (the flag surface of runOnline).
type churnOpts struct {
	boot      core.Bootstrapper
	core      core.Config
	seed      int64
	duration  float64
	interval  float64
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
	// churnCfg/faultCfg specify the event source (faultCfg nil outside
	// chaos mode); virtual runs it in one pass without a data plane.
	virtual     bool
	churnCfg    workload.ChurnConfig
	faultCfg    *faults.Config
	recordTrace string
	replayTrace string
}
