// Micro-benchmark mode: `vcbench -run micro [-format json]` measures the hop
// pipeline's hot paths before/after the sparse rewrite and emits the
// ns/op + allocs/op table the repo's BENCH_<n>.json perf-trajectory files
// record. "before" numbers run the dense reference implementation that is
// kept behind core.Config.DenseEval; "after" numbers run the production
// sparse pipeline — same binary, same fixtures, so the comparison is exact.
package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"sync"
	"testing"
	"time"

	"vconf"
	"vconf/internal/assign"
	"vconf/internal/baseline"
	"vconf/internal/core"
	"vconf/internal/cost"
	"vconf/internal/model"
	"vconf/internal/orchestrator"
	"vconf/internal/telemetry"
	"vconf/internal/workload"
)

// microResult is one benchmark measurement.
type microResult struct {
	Name        string  `json:"name"`
	Agents      int     `json:"agents"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	Iterations  int     `json:"iterations"`
}

// shardSweepPoint is one events/sec measurement of the orchestrator at a
// fixed worker count and a varying capacity-ledger stripe count.
type shardSweepPoint struct {
	Name    string `json:"name"`
	Shards  int    `json:"shards"`
	Workers int    `json:"workers"`
	Agents  int    `json:"agents"`
	Events  int    `json:"events"`
	// EventsPerSec is the headline throughput: churn events fully processed
	// (admission + incremental re-optimization barrier) per wall second.
	EventsPerSec float64 `json:"events_per_sec"`
	NsPerEvent   float64 `json:"ns_per_event"`
	Commits      int     `json:"commits"`
	Conflicts    int     `json:"conflicts"`
	Rejects      int     `json:"rejects"`
	Dropped      int     `json:"dropped"`
}

// microReport is the BENCH_<n>.json payload.
type microReport struct {
	GeneratedBy string `json:"generated_by"`
	// SchemaVersion is benchSchemaVersion at write time; vcreport refuses
	// mismatched versions.
	SchemaVersion int    `json:"schema_version"`
	Description   string `json:"description"`
	// Meta records the toolchain, host shape and flag surface of the run.
	Meta       runMeta       `json:"meta"`
	Benchmarks []microResult `json:"benchmarks"`
	// ShardSweep is the OrchestratorEvent events/sec-vs-shard-count sweep:
	// identical fleet and schedule, shard count n = n workers over an
	// n-stripe ledger.
	ShardSweep []shardSweepPoint `json:"shard_sweep,omitempty"`
	// HardwareParallelCeiling is the host's measured raw 2-way CPU speedup
	// (2 × serial-time / dual-goroutine-time of a pure spin loop). Shared
	// or throttled vCPUs push it well below 2; the shard sweep's scaling
	// is bounded by it, so read the two together (their ratio is the
	// sweep's parallel efficiency, also recorded under Speedups).
	HardwareParallelCeiling float64 `json:"hardware_parallel_ceiling,omitempty"`
	// Speedups maps benchmark family → dense-ns / sparse-ns (and the shard
	// sweep's max-shards / 1-shard throughput ratio).
	Speedups map[string]float64 `json:"speedups"`
}

func record(name string, agents int, r testing.BenchmarkResult) microResult {
	return microResult{
		Name:        name,
		Agents:      agents,
		NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
		AllocsPerOp: r.AllocsPerOp(),
		BytesPerOp:  r.AllocedBytesPerOp(),
		Iterations:  r.N,
	}
}

// hopBench measures HopSession over the synthetic fleet. window > 0
// applies the N_ngbr candidate window; rebuild selects the per-hop
// delay-base rebuild instead of the persistent delay cache.
func hopBench(fleetAgents int, seed int64, dense, rebuild bool, window int) (testing.BenchmarkResult, error) {
	fc := workload.DefaultFleetConfig(seed)
	fc.NumAgents = fleetAgents
	sc, err := workload.GenerateSyntheticFleet(fc)
	if err != nil {
		return testing.BenchmarkResult{}, err
	}
	p := cost.DefaultParams()
	ev, err := cost.NewEvaluator(sc, p)
	if err != nil {
		return testing.BenchmarkResult{}, err
	}
	a := assign.New(sc)
	ledger := cost.NewLedger(sc)
	if err := baseline.Assign(a, p, ledger); err != nil {
		return testing.BenchmarkResult{}, err
	}
	cfg := core.DefaultConfig(seed)
	cfg.DenseEval = dense
	cfg.RebuildDelayBase = rebuild
	cfg.NeighborWindow = window
	rng := rand.New(rand.NewSource(seed))
	scr := core.NewHopScratch(ev)
	sessions := sc.NumSessions()
	// Warm-up pass: sizes every buffer and, on the cached path, populates
	// every session's delay entry, so the measurement is steady state.
	for s := 0; s < sessions; s++ {
		if _, err := core.HopSessionWith(a, model.SessionID(s), ev, ledger, cfg, rng, scr); err != nil {
			return testing.BenchmarkResult{}, err
		}
	}
	var benchErr error
	res := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := core.HopSessionWith(a, model.SessionID(i%sessions), ev, ledger, cfg, rng, scr); err != nil {
				benchErr = err
				return
			}
		}
	})
	return res, benchErr
}

// objectiveMode selects the Φ_s evaluation path objectiveBench measures.
type objectiveMode int

const (
	objectiveDense  objectiveMode = iota // fresh load vectors + from-scratch delays
	objectiveSparse                      // sparse scratch, per-call delay-base rebuild
	objectiveWarm                        // sparse scratch, persistent delay cache (warm hits)
)

// objectiveBench measures Φ_s evaluation on the paper-scale workload. The
// warm mode cycles unchanged sessions, so it isolates what the persistent
// delay cache saves on the once-per-hop BeginSession term.
func objectiveBench(seed int64, mode objectiveMode) (testing.BenchmarkResult, int, error) {
	wl := workload.LargeScale(seed)
	wl.NumUsers = 40
	wl.NumUserNodes = 64
	sc, err := workload.Generate(wl)
	if err != nil {
		return testing.BenchmarkResult{}, 0, err
	}
	ev, err := cost.NewEvaluator(sc, cost.DefaultParams())
	if err != nil {
		return testing.BenchmarkResult{}, 0, err
	}
	a := assign.New(sc)
	if err := baseline.Assign(a, ev.Params(), cost.NewLedger(sc)); err != nil {
		return testing.BenchmarkResult{}, 0, err
	}
	sessions := sc.NumSessions()
	scr := ev.NewScratch()
	scr.SetDelayCacheEnabled(mode == objectiveWarm)
	if mode == objectiveWarm {
		for s := 0; s < sessions; s++ {
			_ = ev.BeginSession(a, model.SessionID(s), scr).Phi
		}
	}
	res := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			s := model.SessionID(i % sessions)
			if mode == objectiveDense {
				_ = ev.SessionObjective(a, s)
			} else {
				_ = ev.BeginSession(a, s, scr).Phi
			}
		}
	})
	return res, sc.NumAgents(), nil
}

// orchestratorBench measures the per-event hot path of the online churn
// orchestrator (admission + sharded incremental re-optimization).
func orchestratorBench(seed int64, dense bool) (testing.BenchmarkResult, int, error) {
	sc, err := vconf.GenerateWorkload(vconf.PrototypeWorkload(seed))
	if err != nil {
		return testing.BenchmarkResult{}, 0, err
	}
	solver, err := vconf.NewSolver(sc, vconf.WithSeed(seed))
	if err != nil {
		return testing.BenchmarkResult{}, 0, err
	}
	events, err := vconf.GenerateChurn(vconf.ChurnConfig{
		Seed:            seed,
		HorizonS:        300,
		ArrivalRatePerS: 0.1,
		MeanHoldS:       90,
		NumSessions:     sc.NumSessions(),
	})
	if err != nil {
		return testing.BenchmarkResult{}, 0, err
	}
	cfg := vconf.DefaultOrchestratorConfig(seed)
	cfg.Core.DenseEval = dense
	orc, err := solver.NewOrchestrator(cfg)
	if err != nil {
		return testing.BenchmarkResult{}, 0, err
	}
	defer orc.Close()
	active := make(map[int]bool)
	var benchErr error
	res := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			e := events[i%len(events)]
			if e.Kind == vconf.ChurnArrival && active[e.Session] {
				e.Kind = vconf.ChurnDeparture
			}
			if _, err := orc.HandleEvent(e); err != nil {
				benchErr = err
				return
			}
			active[e.Session] = e.Kind == vconf.ChurnArrival
		}
	})
	return res, sc.NumAgents(), benchErr
}

// measureParallelCeiling measures this machine's raw 2-way CPU speedup: the
// wall-clock ratio of one spin worker to two concurrent ones. Cloud
// containers frequently expose vCPUs that share execution resources, so the
// achievable parallel speedup can sit well below the vCPU count; the shard
// sweep reports its scaling next to this ceiling so the curve is
// interpretable on any host.
func measureParallelCeiling() float64 {
	burn := func(n int) float64 {
		x := 1.0001
		for i := 0; i < n; i++ {
			x = x*1.0000001 + 0.000001
			if x > 2 {
				x -= 1
			}
		}
		return x
	}
	const work = 100_000_000
	start := time.Now()
	burn(work)
	serial := time.Since(start)
	start = time.Now()
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			burn(work)
		}()
	}
	wg.Wait()
	par := time.Since(start)
	return 2 * serial.Seconds() / par.Seconds()
}

// shardSweepStack builds the contention workload the shard sweep runs: a
// regional synthetic fleet whose clustered sessions overlap heavily on
// their home regions' agents (re-optimization sets near the cap) with
// transcoding slots as the scarce resource, plus a dense churn schedule.
func shardSweepStack(fleetAgents int, seed int64) (*cost.Evaluator, core.Bootstrapper, []workload.Event, error) {
	fc := workload.DefaultFleetConfig(seed)
	fc.NumAgents = fleetAgents
	fc.NumUsers = 12 * fleetAgents
	fc.MinSessionSize = 4
	fc.MaxSessionSize = 6
	fc.Regions = 4
	fc.AgentBandwidthMbps = 5000
	fc.AgentTranscodeSlots = 6
	sc, err := workload.GenerateSyntheticFleet(fc)
	if err != nil {
		return nil, nil, nil, err
	}
	p := cost.DefaultParams()
	ev, err := cost.NewEvaluator(sc, p)
	if err != nil {
		return nil, nil, nil, err
	}
	boot := func(a *assign.Assignment, s model.SessionID, ledger cost.LedgerAPI) error {
		return baseline.AssignSessionNearest(a, s, p, ledger)
	}
	events, err := workload.PoissonSchedule(workload.ChurnConfig{
		Seed:            seed,
		HorizonS:        300,
		ArrivalRatePerS: 1.2,
		MeanHoldS:       80,
		NumSessions:     sc.NumSessions(),
	})
	return ev, boot, events, err
}

// runShardSweep measures OrchestratorEvent throughput (full churn events
// per wall second, admission + re-optimization barrier included) as a
// function of the orchestrator's shard count: n solver workers over an
// n-stripe capacity ledger. Fleet and schedule are identical across
// points.
func runShardSweep(shardCounts []int, fleetAgents int, seed int64, sink *telemetry.Sink) ([]shardSweepPoint, error) {
	ev, boot, events, err := shardSweepStack(fleetAgents, seed)
	if err != nil {
		return nil, err
	}
	run := func(name string, shards int) (shardSweepPoint, error) {
		cfg := orchestrator.DefaultConfig(seed)
		cfg.Shards = shards
		cfg.LedgerShards = shards
		cfg.HopBudget = 8
		cfg.MaxReoptSessions = 16
		cfg.Core.NeighborWindow = 4
		cfg.Telemetry = sink
		best := shardSweepPoint{}
		// Two repetitions, keep the higher throughput (fresh orchestrator
		// each time: the schedule replays identically).
		for rep := 0; rep < 2; rep++ {
			orc, err := orchestrator.New(ev, boot, cfg)
			if err != nil {
				return best, err
			}
			start := time.Now()
			if _, err := orc.Run(events, 0); err != nil {
				orc.Close()
				return best, err
			}
			elapsed := time.Since(start)
			st := orc.Stats()
			orc.Close()
			eps := float64(st.Events) / elapsed.Seconds()
			if eps > best.EventsPerSec {
				best = shardSweepPoint{
					Name:         name,
					Shards:       shards,
					Workers:      shards,
					Agents:       fleetAgents,
					Events:       st.Events,
					EventsPerSec: eps,
					NsPerEvent:   float64(elapsed.Nanoseconds()) / float64(st.Events),
					Commits:      st.Commits,
					Conflicts:    st.Conflicts,
					Rejects:      st.Rejects,
					Dropped:      st.Dropped,
				}
			}
		}
		return best, nil
	}
	points := make([]shardSweepPoint, 0, len(shardCounts))
	for _, shards := range shardCounts {
		pt, err := run(fmt.Sprintf("OrchestratorEvent/shards=%d", shards), shards)
		if err != nil {
			return nil, err
		}
		points = append(points, pt)
	}
	return points, nil
}

// runMicro executes the micro-benchmark suite. fleetAgents sizes the
// HopSession fleet (≥100 for the acceptance numbers; -quick shrinks it).
func runMicro(w io.Writer, format string, fleetAgents int, seed int64, meta runMeta, sink *telemetry.Sink) error {
	rep := microReport{
		GeneratedBy:   "vcbench -run micro",
		SchemaVersion: benchSchemaVersion,
		Meta:          meta,
		Description: "Hop-pipeline hot paths (dense reference vs sparse pipeline, and the persistent " +
			"per-session delay cache vs the per-hop delay-base rebuild: HopSession/warm-hop runs the " +
			"N_ngbr=1 windowed chain where each hop's BeginSession is a pure warm hit re-synchronized by " +
			"the previous commit, and SessionObjective/warm evaluates unchanged sessions) plus the sharded-ledger " +
			"orchestrator sweep: events/sec vs shard count, where n shards = n solver workers over an " +
			"n-stripe capacity ledger. Wall-clock scaling is bounded by hardware_parallel_ceiling — on shared-vCPU " +
			"hosts that ceiling sits well below the vCPU count, so judge the sweep by its parallel " +
			"efficiency (scaling/ceiling), not by the shard count.",
		Speedups: map[string]float64{},
	}
	add := func(family string, agents int, denseRes, sparseRes testing.BenchmarkResult) {
		d := record(family+"/dense", agents, denseRes)
		s := record(family+"/sparse", agents, sparseRes)
		rep.Benchmarks = append(rep.Benchmarks, d, s)
		if s.NsPerOp > 0 {
			rep.Speedups[family] = d.NsPerOp / s.NsPerOp
		}
	}

	hopDense, err := hopBench(fleetAgents, seed, true, false, 0)
	if err != nil {
		return fmt.Errorf("micro: hop dense: %w", err)
	}
	hopSparse, err := hopBench(fleetAgents, seed, false, false, 0)
	if err != nil {
		return fmt.Errorf("micro: hop sparse: %w", err)
	}
	add("HopSession", fleetAgents, hopDense, hopSparse)

	// Warm-hop acceptance series: the N_ngbr = 1 windowed chain, persistent
	// delay cache vs per-hop delay-base rebuild — the BeginSession term the
	// cache removes is a large share of a windowed hop.
	hopRebuild, err := hopBench(fleetAgents, seed, false, true, 1)
	if err != nil {
		return fmt.Errorf("micro: hop rebuild: %w", err)
	}
	hopWarm, err := hopBench(fleetAgents, seed, false, false, 1)
	if err != nil {
		return fmt.Errorf("micro: hop warm: %w", err)
	}
	rb := record("HopSession/rebuild-hop", fleetAgents, hopRebuild)
	wm := record("HopSession/warm-hop", fleetAgents, hopWarm)
	rep.Benchmarks = append(rep.Benchmarks, rb, wm)
	if wm.NsPerOp > 0 {
		rep.Speedups["HopSession/warm-hop"] = rb.NsPerOp / wm.NsPerOp
	}

	objDense, agents, err := objectiveBench(seed, objectiveDense)
	if err != nil {
		return fmt.Errorf("micro: objective dense: %w", err)
	}
	objSparse, _, err := objectiveBench(seed, objectiveSparse)
	if err != nil {
		return fmt.Errorf("micro: objective sparse: %w", err)
	}
	add("SessionObjective", agents, objDense, objSparse)
	objWarm, _, err := objectiveBench(seed, objectiveWarm)
	if err != nil {
		return fmt.Errorf("micro: objective warm: %w", err)
	}
	ow := record("SessionObjective/warm", agents, objWarm)
	rep.Benchmarks = append(rep.Benchmarks, ow)
	if sparseNs := float64(objSparse.T.Nanoseconds()) / float64(objSparse.N); ow.NsPerOp > 0 {
		rep.Speedups["SessionObjective/warm"] = sparseNs / ow.NsPerOp
	}

	orcDense, agents, err := orchestratorBench(seed, true)
	if err != nil {
		return fmt.Errorf("micro: orchestrator dense: %w", err)
	}
	orcSparse, _, err := orchestratorBench(seed, false)
	if err != nil {
		return fmt.Errorf("micro: orchestrator sparse: %w", err)
	}
	add("OrchestratorEvent", agents, orcDense, orcSparse)

	shardCounts := []int{1, 2, 4, 8}
	sweepAgents := fleetAgents
	if sweepAgents < 100 {
		shardCounts = []int{1, 2}
	}
	sweep, err := runShardSweep(shardCounts, sweepAgents, seed, sink)
	if err != nil {
		return fmt.Errorf("micro: shard sweep: %w", err)
	}
	rep.ShardSweep = sweep
	rep.HardwareParallelCeiling = measureParallelCeiling()
	if n := len(sweep); n > 0 && sweep[0].EventsPerSec > 0 {
		scaling := sweep[n-1].EventsPerSec / sweep[0].EventsPerSec
		rep.Speedups["OrchestratorEvent/shards"] = scaling
		if rep.HardwareParallelCeiling > 0 {
			rep.Speedups["OrchestratorEvent/shards-parallel-efficiency"] =
				scaling / rep.HardwareParallelCeiling
		}
	}

	if format == "json" {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(rep)
	}
	for _, r := range rep.Benchmarks {
		fmt.Fprintf(w, "micro | %-24s | agents %3d | %12.0f ns/op | %6d allocs/op | %8d B/op\n",
			r.Name, r.Agents, r.NsPerOp, r.AllocsPerOp, r.BytesPerOp)
	}
	for _, p := range rep.ShardSweep {
		fmt.Fprintf(w, "micro | %-28s | agents %3d | %8.1f events/sec | %4d commits | %4d conflicts | %4d rejects\n",
			p.Name, p.Agents, p.EventsPerSec, p.Commits, p.Conflicts, p.Rejects)
	}
	for fam, sp := range rep.Speedups {
		fmt.Fprintf(w, "micro | speedup %-16s | %.2fx\n", fam, sp)
	}
	return nil
}
