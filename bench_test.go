// Benchmarks regenerating every table and figure of the paper's evaluation
// (§V), one testing.B target per artifact, plus micro-benchmarks of the hot
// paths and ablation benches for the design choices called out in DESIGN.md.
//
// The figure/table benches run internal/experiments at a reduced scale so
// `go test -bench=. -benchmem` stays fast. Domain results (traffic
// reduction, success rates, optimality gaps) are attached to each bench via
// b.ReportMetric, so the bench output doubles as a results table. The
// end-to-end battery of the online control plane is bench/ (its own module).
package vconf_test

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"vconf"
	"vconf/internal/agrank"
	"vconf/internal/assign"
	"vconf/internal/baseline"
	"vconf/internal/core"
	"vconf/internal/cost"
	"vconf/internal/exact"
	"vconf/internal/experiments"
	"vconf/internal/model"
	"vconf/internal/orchestrator"
	"vconf/internal/workload"
)

// benchWorkload shrinks the Internet-scale workload for bench time budgets.
func benchWorkload(seed int64) workload.Config {
	wl := workload.LargeScale(seed)
	wl.NumUsers = 40
	wl.NumUserNodes = 64
	return wl
}

// ---------------------------------------------------------------------------
// Figure / table benches

func BenchmarkFig2Motivation(b *testing.B) {
	var last *experiments.Fig2Result
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunFig2()
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	b.ReportMetric(last.NearestRep.InterTraffic, "nrst-traffic-mbps")
	b.ReportMetric(last.OptimalRep.InterTraffic, "opt-traffic-mbps")
}

func BenchmarkFig3Chain(b *testing.B) {
	var last *experiments.Fig3Result
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunFig3(400, 0.01)
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	b.ReportMetric(float64(last.NumStates), "states")
}

func BenchmarkFig4Evolution(b *testing.B) {
	var last *experiments.Fig4Result
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunFig4(1, 100)
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	b.ReportMetric(last.Beta400.Initial.TrafficMbps, "init-traffic-mbps")
	b.ReportMetric(last.Beta400.Final.TrafficMbps, "final-traffic-mbps")
}

func BenchmarkFig5Dynamics(b *testing.B) {
	var last *experiments.EvolutionResult
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunFig5(1, 120)
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	b.ReportMetric(float64(last.Moves), "migrations")
}

func BenchmarkFig6AgRankInit(b *testing.B) {
	var last *experiments.EvolutionResult
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunFig6(1, 100)
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	b.ReportMetric(last.Initial.TrafficMbps, "agrank-init-traffic-mbps")
	b.ReportMetric(last.Final.TrafficMbps, "final-traffic-mbps")
}

func BenchmarkFig7PerSession(b *testing.B) {
	var last *experiments.Fig7Result
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunFig7(1, 100)
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	b.ReportMetric(float64(len(last.Sessions)), "sessions-traced")
}

func BenchmarkTable2AlphaSweep(b *testing.B) {
	cfg := experiments.SweepConfig{Seed: 1, NumScenarios: 2, DurationS: 60, Workload: benchWorkload}
	var last *experiments.AlphaSweepResult
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunAlphaSweep(cfg)
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	nrstInit := meanOf(last.Cell("Nrst", "Init").Traffic)
	opt := meanOf(last.Cell("AgRank#2", "a1=a2").Traffic)
	if nrstInit > 0 {
		b.ReportMetric(100*(1-opt/nrstInit), "traffic-reduction-pct")
	}
}

func BenchmarkFig8DelayBoxplot(b *testing.B) {
	cfg := experiments.SweepConfig{Seed: 2, NumScenarios: 2, DurationS: 60, Workload: benchWorkload}
	var rows []string
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunAlphaSweep(cfg)
		if err != nil {
			b.Fatal(err)
		}
		rows = res.Fig8Rows()
	}
	b.ReportMetric(float64(len(rows)), "boxplots")
}

func BenchmarkFig9SuccessRate(b *testing.B) {
	cfg := experiments.Fig9Config{
		Seed:                1,
		NumScenarios:        4,
		BandwidthPointsMbps: []float64{60, 120, 1000},
		TranscodePoints:     []int{1, 8},
		Workload:            benchWorkload,
	}
	var last *experiments.Fig9Result
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunFig9(cfg)
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	// Success share of AgRank#3 at the tightest bandwidth point.
	b.ReportMetric(100*last.BandwidthSuccess[0][0], "agrank3-success-pct")
	b.ReportMetric(100*last.BandwidthSuccess[0][2], "nrst-success-pct")
}

func BenchmarkFig10Nngbr(b *testing.B) {
	cfg := experiments.Fig10Config{
		Seed:         1,
		NumScenarios: 3,
		NNgbrValues:  []int{1, 2, 4, 7},
		Workload:     benchWorkload,
	}
	var last *experiments.Fig10Result
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunFig10(cfg)
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	b.ReportMetric(last.TrafficMbps[0], "nngbr1-traffic-mbps")
	b.ReportMetric(last.TrafficMbps[1], "nngbr2-traffic-mbps")
}

// BenchmarkBetaSweep runs the β sensitivity sweep (§IV-A-4: larger β is
// more accurate but converges more slowly) on two prototype scenarios.
func BenchmarkBetaSweep(b *testing.B) {
	cfg := experiments.DefaultBetaSweepConfig(1)
	cfg.Betas = []float64{100, 400}
	cfg.NumScenarios = 2
	cfg.DurationS = 100
	var last *experiments.BetaSweepResult
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunBetaSweep(cfg)
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	b.ReportMetric(last.Rows_[0].FinalPhi, "phi-beta100")
	b.ReportMetric(last.Rows_[1].FinalPhi, "phi-beta400")
}

func BenchmarkThm1Gap(b *testing.B) {
	cfg := experiments.DefaultThm1Config(1)
	cfg.Betas = []float64{10, 50}
	cfg.HorizonS = 3000
	var last *experiments.Thm1Result
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunThm1(cfg)
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	b.ReportMetric(last.Entries[0].AnalyticGap, "gap-beta10")
	b.ReportMetric(last.Entries[1].AnalyticGap, "gap-beta50")
}

// ---------------------------------------------------------------------------
// Micro-benchmarks of the hot paths

func benchScenario(b *testing.B, seed int64) (*cost.Evaluator, *assign.Assignment, *cost.Ledger) {
	b.Helper()
	sc, err := workload.Generate(benchWorkload(seed))
	if err != nil {
		b.Fatal(err)
	}
	p := cost.DefaultParams()
	ev, err := cost.NewEvaluator(sc, p)
	if err != nil {
		b.Fatal(err)
	}
	a := assign.New(sc)
	ledger := cost.NewLedger(sc)
	if err := baseline.Assign(a, p, ledger); err != nil {
		b.Fatal(err)
	}
	return ev, a, ledger
}

// fleetScenario builds the ≥100-agent synthetic fleet the hop-pipeline
// acceptance benchmarks run on.
func fleetScenario(b *testing.B, seed int64) (*cost.Evaluator, *assign.Assignment, *cost.Ledger) {
	b.Helper()
	sc, err := workload.GenerateSyntheticFleet(workload.DefaultFleetConfig(seed))
	if err != nil {
		b.Fatal(err)
	}
	p := cost.DefaultParams()
	ev, err := cost.NewEvaluator(sc, p)
	if err != nil {
		b.Fatal(err)
	}
	a := assign.New(sc)
	ledger := cost.NewLedger(sc)
	if err := baseline.Assign(a, p, ledger); err != nil {
		b.Fatal(err)
	}
	return ev, a, ledger
}

// BenchmarkHopSession measures one HOP of Alg. 1 on a 100-agent fleet,
// walking each session for walkHops hops back to back as an orchestrator
// worker does: "sparse-warm" is the production delta pipeline, whose
// BeginSession starts from the state the scratch last prepared (target:
// 0 allocs/op), "sparse-rebuild" the same pipeline rebuilding the delay base
// every hop (a scratch with reuse off), and "sparse-7agents" the classic
// paper-scale workload for continuity with older baselines (the dense
// reference lives in internal/core's tests). The "warm-hop"/"rebuild-hop"
// pair runs the N_ngbr = 1 candidate window (Fig. 10's tightest pruning),
// where the once-per-hop BeginSession is a large share of the hop and reuse
// pays off most.
func BenchmarkHopSession(b *testing.B) {
	run := func(b *testing.B, ev *cost.Evaluator, a *assign.Assignment, ledger *cost.Ledger, rebuild bool, window int) {
		cfg := core.DefaultConfig(1)
		cfg.NeighborWindow = window
		rng := rand.New(rand.NewSource(1))
		scr := core.NewHopScratch(ev)
		scr.Eval().SetDelayCacheEnabled(!rebuild)
		sessions := ev.Scenario().NumSessions()
		b.ReportAllocs()
		b.ResetTimer()
		const walkHops = 12
		for i := 0; i < b.N; i++ {
			if _, err := core.HopSessionWith(a, model.SessionID(i/walkHops%sessions), ev, ledger, cfg, rng, scr); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("sparse-warm", func(b *testing.B) {
		ev, a, ledger := fleetScenario(b, 1)
		run(b, ev, a, ledger, false, 0)
	})
	b.Run("sparse-rebuild", func(b *testing.B) {
		ev, a, ledger := fleetScenario(b, 1)
		run(b, ev, a, ledger, true, 0)
	})
	// The acceptance pair: the N_ngbr = 1 windowed chain (Fig. 10's
	// tightest pruning), where a hop's BeginSession after the walk's first
	// lands on the state its previous commit advanced the scratch to — a hit.
	b.Run("warm-hop", func(b *testing.B) {
		ev, a, ledger := fleetScenario(b, 1)
		run(b, ev, a, ledger, false, 1)
	})
	b.Run("rebuild-hop", func(b *testing.B) {
		ev, a, ledger := fleetScenario(b, 1)
		run(b, ev, a, ledger, true, 1)
	})
	b.Run("sparse-7agents", func(b *testing.B) {
		ev, a, ledger := benchScenario(b, 1)
		run(b, ev, a, ledger, false, 0)
	})
}

func BenchmarkSessionLoad(b *testing.B) {
	ev, a, _ := benchScenario(b, 2)
	p := ev.Params()
	sessions := ev.Scenario().NumSessions()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = p.SessionLoadOf(a, model.SessionID(i%sessions))
	}
}

// BenchmarkSessionObjective compares the dense Φ_s evaluation (fresh load
// vectors + from-scratch delays) against the sparse scratch-based one, with
// and without reuse: the "warm" series re-evaluates the unchanged session the
// scratch holds, so it isolates what reuse saves on the once-per-hop
// BeginSession term (a compare of the session's variables vs a full
// delay-base rebuild).
func BenchmarkSessionObjective(b *testing.B) {
	b.Run("dense", func(b *testing.B) {
		ev, a, _ := benchScenario(b, 3)
		sessions := ev.Scenario().NumSessions()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			_ = ev.SessionObjective(a, model.SessionID(i%sessions))
		}
	})
	b.Run("sparse", func(b *testing.B) {
		ev, a, _ := benchScenario(b, 3)
		sessions := ev.Scenario().NumSessions()
		scr := ev.NewScratch()
		scr.SetDelayCacheEnabled(false)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			_ = ev.BeginSession(a, model.SessionID(i%sessions), scr).Phi
		}
	})
	b.Run("sparse-warm", func(b *testing.B) {
		ev, a, _ := benchScenario(b, 3)
		scr := ev.NewScratch()
		_ = ev.BeginSession(a, 0, scr).Phi
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			_ = ev.BeginSession(a, 0, scr).Phi
		}
	})
}

func BenchmarkAgRankBootstrap(b *testing.B) {
	sc, err := workload.Generate(benchWorkload(4))
	if err != nil {
		b.Fatal(err)
	}
	p := cost.DefaultParams()
	opts := agrank.DefaultOptions(2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a := assign.New(sc)
		ledger := cost.NewLedger(sc)
		if err := agrank.Bootstrap(a, p, ledger, opts); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkNearestBootstrap(b *testing.B) {
	sc, err := workload.Generate(benchWorkload(5))
	if err != nil {
		b.Fatal(err)
	}
	p := cost.DefaultParams()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a := assign.New(sc)
		ledger := cost.NewLedger(sc)
		if err := baseline.Assign(a, p, ledger); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEnumerateFig3(b *testing.B) {
	sc, err := experiments.BuildFig3Scenario()
	if err != nil {
		b.Fatal(err)
	}
	ev, err := cost.NewEvaluator(sc, cost.DefaultParams())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := exact.Enumerate(ev, 0); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkWorkloadGenerate(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := workload.Generate(workload.LargeScale(int64(i))); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFleetSetup times bringing a fleet up from nothing — sites and
// delay synthesis, the evaluator, and an orchestrator with the 4-agent
// candidate window and AgRank admission — at 96 to 768 agents with 8 users
// per agent, so the fleet-width slope of set-up reads off ns/pair (per
// agent-user and agent-agent delay) and ns/user.
func BenchmarkFleetSetup(b *testing.B) {
	for _, agents := range []int{96, 192, 384, 768} {
		b.Run(fmt.Sprintf("agents=%d", agents), func(b *testing.B) {
			fc := workload.DefaultFleetConfig(1)
			fc.NumAgents, fc.NumUsers = agents, 8*agents
			fc.MinSessionSize, fc.MaxSessionSize = 4, 6
			fc.Regions = 8
			opts := agrank.DefaultOptions(3)
			cfg := orchestrator.DefaultConfig(1)
			cfg.Core.NeighborWindow = 4
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sc, _, err := workload.GenerateSyntheticFleetRegions(fc)
				if err != nil {
					b.Fatal(err)
				}
				p := cost.DefaultParams()
				ev, err := cost.NewEvaluator(sc, p)
				if err != nil {
					b.Fatal(err)
				}
				orc, err := orchestrator.New(ev, func(a *assign.Assignment, s model.SessionID, ledger cost.LedgerAPI) error {
					_, err := agrank.BootstrapSession(a, s, p, ledger, opts)
					return err
				}, cfg)
				if err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
				orc.Close()
				b.StartTimer()
			}
			perSetup := float64(b.Elapsed().Nanoseconds()) / float64(b.N)
			users := float64(fc.NumUsers)
			b.ReportMetric(perSetup/(float64(agents)*users+float64(agents*(agents-1)/2)), "ns/pair")
			b.ReportMetric(perSetup/users, "ns/user")
		})
	}
}

func BenchmarkSolverOptimize(b *testing.B) {
	sc, err := vconf.GenerateWorkload(benchWorkload(6))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var res *vconf.Result
	for i := 0; i < b.N; i++ {
		solver, err := vconf.NewSolver(sc, vconf.WithSeed(int64(i)))
		if err != nil {
			b.Fatal(err)
		}
		res, err = solver.Optimize(60)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.Initial.InterTraffic-res.Report.InterTraffic, "traffic-saved-mbps")
}

// ---------------------------------------------------------------------------
// Ablation benches (DESIGN.md §3 design choices)

// BenchmarkAblationTrafficModel compares the paper-strict μ formula against
// the flow-conserving variant on the configuration where they diverge:
// source and destination co-located at agent A while a remote agent B
// transcodes. The strict formula's (1−λ_lu) factor drops the transcoded
// return edge B→A; the conserving variant counts it.
func BenchmarkAblationTrafficModel(b *testing.B) {
	builder := model.NewBuilder(nil)
	rs := builder.Reps()
	r360, _ := rs.ByName("360p")
	r1080, _ := rs.ByName("1080p")
	for i := 0; i < 2; i++ {
		builder.AddAgent(model.Agent{Upload: 1000, Download: 1000, TranscodeSlots: 4})
	}
	s := builder.AddSession("s")
	src := builder.AddUser("src", s, r1080, nil)
	dst := builder.AddUser("dst", s, r1080, nil)
	builder.DemandFrom(dst, src, r360)
	sc, err := builder.Build()
	if err != nil {
		b.Fatal(err)
	}
	a := assign.New(sc)
	a.SetUserAgent(src, 0)
	a.SetUserAgent(dst, 0)
	if err := a.SetFlowAgent(model.Flow{Src: src, Dst: dst}, 1); err != nil {
		b.Fatal(err)
	}
	strict := cost.DefaultParams()
	loose := cost.DefaultParams()
	loose.StrictPaperTraffic = false
	var strictT, looseT float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		strictT = strict.SessionLoadOf(a, 0).TotalInterTraffic()
		looseT = loose.SessionLoadOf(a, 0).TotalInterTraffic()
	}
	b.ReportMetric(strictT, "strict-traffic-mbps")
	b.ReportMetric(looseT, "conserving-traffic-mbps")
}

// BenchmarkAblationAgRankIteration compares the damped personalized rank
// iteration (default) against the paper's literal normalized power
// iteration: bootstrap quality on the same workloads.
func BenchmarkAblationAgRankIteration(b *testing.B) {
	sc, err := workload.Generate(benchWorkload(8))
	if err != nil {
		b.Fatal(err)
	}
	p := cost.DefaultParams()
	ev, err := cost.NewEvaluator(sc, p)
	if err != nil {
		b.Fatal(err)
	}
	run := func(damping float64) float64 {
		opts := agrank.DefaultOptions(2)
		opts.Damping = damping
		a := assign.New(sc)
		if err := agrank.Bootstrap(a, p, cost.NewLedger(sc), opts); err != nil {
			b.Fatal(err)
		}
		return ev.ReportSystem(a).InterTraffic
	}
	var damped, plain float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		damped = run(0.85)
		plain = run(0)
	}
	b.ReportMetric(damped, "damped-traffic-mbps")
	b.ReportMetric(plain, "plain-traffic-mbps")
}

// BenchmarkAblationHopMode compares PaperHop and ExactCTMC timing on the
// same instance.
func BenchmarkAblationHopMode(b *testing.B) {
	for _, mode := range []struct {
		name string
		mode core.HopMode
	}{{"paper", core.PaperHop}, {"exact-ctmc", core.ExactCTMC}} {
		b.Run(mode.name, func(b *testing.B) {
			sc, err := experiments.BuildFig3Scenario()
			if err != nil {
				b.Fatal(err)
			}
			ev, err := cost.NewEvaluator(sc, cost.DefaultParams())
			if err != nil {
				b.Fatal(err)
			}
			cfg := core.Config{Beta: 20, ObjectiveScale: 0.01, MeanCountdownS: 1, Mode: mode.mode, Seed: 1}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				eng, err := core.NewEngine(ev, cfg)
				if err != nil {
					b.Fatal(err)
				}
				boot := func(a *assign.Assignment, s model.SessionID, ledger cost.LedgerAPI) error {
					return baseline.AssignSessionNearest(a, s, cost.DefaultParams(), ledger)
				}
				if err := eng.ActivateSession(0, boot); err != nil {
					b.Fatal(err)
				}
				if _, err := eng.Run(100, 0); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// ---------------------------------------------------------------------------
// Online churn orchestrator benches

// churnFixture builds the orchestrator stack and a seeded Poisson schedule.
func churnFixture(b *testing.B, seed int64) (*vconf.Solver, []vconf.ChurnEvent) {
	b.Helper()
	sc, err := vconf.GenerateWorkload(vconf.PrototypeWorkload(seed))
	if err != nil {
		b.Fatal(err)
	}
	solver, err := vconf.NewSolver(sc, vconf.WithSeed(seed))
	if err != nil {
		b.Fatal(err)
	}
	events, err := vconf.GenerateChurn(vconf.ChurnConfig{
		Seed:            seed,
		HorizonS:        300,
		ArrivalRatePerS: 0.1,
		MeanHoldS:       90,
		NumSessions:     sc.NumSessions(),
	})
	if err != nil {
		b.Fatal(err)
	}
	return solver, events
}

// BenchmarkOrchestratorChurn drives the online orchestrator over a seeded
// churn schedule: events/sec throughput, mean re-optimization latency per
// event, and final-objective drift vs a from-scratch re-solve oracle on the
// same live session set.
func BenchmarkOrchestratorChurn(b *testing.B) {
	solver, events := churnFixture(b, 1)
	var drift, meanLatencyMS float64
	var processed int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		orc, err := solver.NewOrchestrator(vconf.DefaultOrchestratorConfig(1))
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		// Only the event-processing loop is timed; construction and the
		// oracle yardstick below are setup/measurement, not throughput.
		if _, err := orc.Run(events, 300); err != nil {
			orc.Close()
			b.Fatal(err)
		}
		b.StopTimer()
		st := orc.Stats()
		processed += st.Events
		if st.Events > 0 {
			meanLatencyMS = float64(st.ReoptTotal.Microseconds()) / float64(st.Events) / 1e3
		}
		active := orc.ActiveSessions()
		online := orc.Objective()
		orc.Close()
		if len(active) > 0 {
			_, oraclePhi, err := solver.FullResolve(active, 200)
			if err != nil {
				b.Fatal(err)
			}
			if oraclePhi > 0 {
				drift = 100 * (online - oraclePhi) / oraclePhi
			}
		}
		b.StartTimer()
	}
	b.StopTimer()
	b.ReportMetric(float64(processed)/b.Elapsed().Seconds(), "events/sec")
	b.ReportMetric(meanLatencyMS, "reopt-latency-ms")
	b.ReportMetric(drift, "oracle-drift-pct")
}

// BenchmarkOrchestratorEvent isolates the per-event hot path (admission +
// sharded incremental re-optimization) at steady state.
func BenchmarkOrchestratorEvent(b *testing.B) {
	solver, events := churnFixture(b, 2)
	orc, err := solver.NewOrchestrator(vconf.DefaultOrchestratorConfig(2))
	if err != nil {
		b.Fatal(err)
	}
	defer orc.Close()
	// Cyclic replay desyncs the schedule from the live set; flip desynced
	// arrivals into departures so every event stays valid.
	active := make(map[int]bool)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := events[i%len(events)]
		if e.Kind == vconf.ChurnArrival && active[e.Session] {
			e.Kind = vconf.ChurnDeparture
		}
		if _, err := orc.HandleEvent(e); err != nil {
			b.Fatal(err)
		}
		active[e.Session] = e.Kind == vconf.ChurnArrival
	}
}

// BenchmarkEventPipeline drives the event scheduler over a seeded churn
// schedule through the facade with several events in flight, reporting
// events/sec and the scheduler's overlap telemetry — the overlapping
// counterpart of BenchmarkOrchestratorChurn's one event at a time.
func BenchmarkEventPipeline(b *testing.B) {
	solver, events := churnFixture(b, 3)
	cfg := vconf.DefaultOrchestratorConfig(3)
	cfg.MaxInFlight = 4
	cfg.Core.NeighborWindow = 4
	var processed, inFlightPeak int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		orc, err := solver.NewOrchestrator(cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if _, err := orc.Run(events, 300); err != nil {
			orc.Close()
			b.Fatal(err)
		}
		b.StopTimer()
		st := orc.Stats()
		orc.Close()
		processed += st.Events
		if st.InFlightPeak > inFlightPeak {
			inFlightPeak = st.InFlightPeak
		}
		b.StartTimer()
	}
	b.StopTimer()
	b.ReportMetric(float64(processed)/b.Elapsed().Seconds(), "events/sec")
	b.ReportMetric(float64(inFlightPeak), "in-flight-peak")
}

// BenchmarkChaosRecovery drives the orchestrator, four events in flight,
// over Poisson churn merged with a seeded fault schedule (agent failures, a
// regional outage process, partial degradations, flash crowds) on a
// regional fleet:
// events/sec with healing barriers in the stream, incidents and orphans
// healed per run, and the p99 time-to-recovery across incidents.
func BenchmarkChaosRecovery(b *testing.B) {
	const agents, regions = 24, 4
	fc := workload.DefaultFleetConfig(11)
	fc.NumAgents = agents
	fc.NumUsers = 4 * agents
	fc.Regions = regions
	fc.AgentBandwidthMbps = 500
	fc.AgentTranscodeSlots = 16
	sc, homes, err := workload.GenerateSyntheticFleetRegions(fc)
	if err != nil {
		b.Fatal(err)
	}
	solver, err := vconf.NewSolver(sc, vconf.WithSeed(11))
	if err != nil {
		b.Fatal(err)
	}
	// Churn draws from the front of the session pool; flash crowds burst
	// from per-region reserves at the back so the two never double-arrive.
	nChurn := len(homes) * 3 / 5
	churn, err := vconf.GenerateChurn(vconf.ChurnConfig{
		Seed:            11,
		HorizonS:        200,
		ArrivalRatePerS: 0.3,
		MeanHoldS:       90,
		NumSessions:     nChurn,
	})
	if err != nil {
		b.Fatal(err)
	}
	pools := make([][]int, regions)
	for s := nChurn; s < len(homes); s++ {
		pools[homes[s]] = append(pools[homes[s]], s)
	}
	flt, err := vconf.GenerateFaults(vconf.FaultConfig{
		Seed:           12,
		HorizonS:       200,
		NumAgents:      agents,
		AgentRegion:    vconf.AgentRegions(agents, regions),
		AgentMTBFS:     400,
		AgentMTTRS:     50,
		RegionMTBFS:    500,
		RegionMTTRS:    40,
		DegradeMTBFS:   300,
		DegradeMTTRS:   50,
		DegradeFloor:   0.4,
		FlashMTBFS:     250,
		FlashIntensity: 3,
		FlashHoldS:     40,
		FlashSessions:  pools,
	})
	if err != nil {
		b.Fatal(err)
	}
	events := vconf.MergeSchedules(churn, flt)

	cfg := vconf.DefaultOrchestratorConfig(11)
	cfg.MaxInFlight = 4
	cfg.Core.NeighborWindow = 4
	cfg.AgentRegion = vconf.AgentRegions(agents, regions)
	var processed, incidents, orphans int
	var recoverP99 time.Duration
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		orc, err := solver.NewOrchestrator(cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if _, err := orc.Run(events, 300); err != nil {
			orc.Close()
			b.Fatal(err)
		}
		b.StopTimer()
		if err := orc.CheckInvariants(); err != nil {
			orc.Close()
			b.Fatal(err)
		}
		st := orc.Stats()
		orc.Close()
		processed += st.Events
		incidents += st.Incidents
		orphans += st.Orphans
		if st.RecoverP99 > recoverP99 {
			recoverP99 = st.RecoverP99
		}
		b.StartTimer()
	}
	b.StopTimer()
	if incidents == 0 {
		b.Fatal("fault schedule injected no incidents")
	}
	b.ReportMetric(float64(processed)/b.Elapsed().Seconds(), "events/sec")
	b.ReportMetric(float64(incidents)/float64(b.N), "incidents/run")
	b.ReportMetric(float64(orphans)/float64(b.N), "orphans/run")
	b.ReportMetric(float64(recoverP99)/1e6, "recover-p99-ms")
}

// BenchmarkDeltaVsFullObjective compares delta-evaluated objective queries
// (the orchestrator hot path) against full-scenario re-evaluation.
func BenchmarkDeltaVsFullObjective(b *testing.B) {
	ev, a, _ := benchScenario(b, 7)
	cache := cost.NewObjectiveCache(ev)
	sessions := ev.Scenario().NumSessions()
	for s := 0; s < sessions; s++ {
		cache.SetActive(model.SessionID(s), true)
	}
	cache.TotalObjective(a)
	b.Run("delta", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			cache.Invalidate(model.SessionID(i % sessions))
			_ = cache.TotalObjective(a)
		}
	})
	b.Run("full", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = ev.TotalObjective(a)
		}
	})
}

func meanOf(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// BenchmarkSolverCompare runs the §IV-A-3 comparator panel (greedy descent,
// simulated annealing, Markov approximation, single-agent topology control)
// on identical Nrst starts.
func BenchmarkSolverCompare(b *testing.B) {
	cfg := experiments.SolverCompareConfig{
		Seed:             1,
		NumScenarios:     1,
		DurationS:        60,
		AnnealIterations: 4000,
		Workload:         benchWorkload,
	}
	var last *experiments.SolverCompareResult
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunSolverCompare(cfg)
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	b.ReportMetric(meanOf(last.Objective[0]), "nrst-phi")
	b.ReportMetric(meanOf(last.Objective[3]), "markov-phi")
}

// ---------------------------------------------------------------------------
// Sim-core bench (the virtual-clock engine over the lazy generators)

// simCoreBenchConfigs is a scenario-independent virtual-hour chaos mix:
// Poisson churn plus the full fault processes, sized to a few thousand
// merged events per iteration.
func simCoreBenchConfigs() (vconf.ChurnConfig, vconf.FaultConfig) {
	const (
		regions = 4
		agents  = 60
		pool    = 300
	)
	ccfg := vconf.ChurnConfig{
		Seed:            1,
		HorizonS:        1800,
		ArrivalRatePerS: 2,
		MeanHoldS:       60,
		NumSessions:     pool,
	}
	pools := make([][]int, regions)
	for s := pool; s < pool+8*regions; s++ {
		pools[s%regions] = append(pools[s%regions], s)
	}
	fcfg := vconf.FaultConfig{
		Seed:           2,
		HorizonS:       1800,
		NumAgents:      agents,
		AgentRegion:    vconf.AgentRegions(agents, regions),
		AgentMTBFS:     600,
		AgentMTTRS:     60,
		RegionMTBFS:    1200,
		RegionMTTRS:    90,
		DegradeMTBFS:   900,
		DegradeMTTRS:   90,
		DegradeFloor:   0.4,
		FlashMTBFS:     600,
		FlashIntensity: 3,
		FlashHoldS:     60,
		FlashSessions:  pools,
	}
	return ccfg, fcfg
}

// BenchmarkSimCoreLazyEngine streams the churn+fault mix through the
// virtual-clock engine: O(in-flight) memory, no sort.
func BenchmarkSimCoreLazyEngine(b *testing.B) {
	ccfg, fcfg := simCoreBenchConfigs()
	total := 0
	for i := 0; i < b.N; i++ {
		cs, err := vconf.NewChurnEventSource(ccfg)
		if err != nil {
			b.Fatal(err)
		}
		fs, err := vconf.NewFaultEventSource(fcfg)
		if err != nil {
			b.Fatal(err)
		}
		eng := vconf.NewSimEngine(cs, fs)
		for {
			if _, ok := eng.Next(); !ok {
				break
			}
			total++
		}
		if err := eng.Err(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(total)/b.Elapsed().Seconds(), "events/s")
}
