// Stand-alone layer drivers: each times one layer's public functions on the
// placement the workload's own synchronous pass ended in, so the numbers
// describe the layer under this workload's session sizes, fleet width and
// occupancy rather than under a synthetic micro-fixture.
package main

import (
	"fmt"
	"math/rand"
	"time"

	"vconf/internal/assign"
	"vconf/internal/core"
	"vconf/internal/cost"
	"vconf/internal/model"
	"vconf/internal/pipeline"
	"vconf/internal/shard"
)

// driverBudget is how long each driver keeps repeating whole rounds over
// the active sessions (scaled down with the horizon in the smoke test); the
// reported value is total time over operations.
const driverBudget = 150 * time.Millisecond

// loopRounds calls round until the budget is spent (at least once) and
// returns the elapsed nanoseconds.
func loopRounds(budget time.Duration, round func()) float64 {
	start := time.Now()
	for {
		round()
		if d := time.Since(start); d >= budget {
			return float64(d.Nanoseconds())
		}
	}
}

// perOp is total/ops with the operation count kept, missing without ops.
func perOp(totalNs float64, ops int) measurement {
	if ops == 0 {
		return missing("zero operations")
	}
	return numN(totalNs/float64(ops), ops)
}

// fillLedger loads the end state's capacity scales and session loads into
// an empty ledger.
func fillLedger(l cost.LedgerAPI, f *fixture, st endState) error {
	for i, k := range st.scales {
		if k != 1 {
			if err := l.SetCapacityScale(model.AgentID(i), k); err != nil {
				return err
			}
		}
	}
	for _, s := range st.active {
		l.Add(f.params.SessionLoadOf(st.a, s))
	}
	return nil
}

// layerMetrics runs every driver and fills the D rows.
func layerMetrics(ms *metricSet, f *fixture, st endState, budget time.Duration) error {
	if err := driveSim(ms, f, budget); err != nil {
		return err
	}
	if err := drivePipeline(ms, budget); err != nil {
		return err
	}
	if len(st.active) == 0 {
		// The remaining D rows all run over the active sessions.
		for _, spec := range perLayerSpecs {
			if _, done := ms.vals[spec.Name]; spec.Source == "D" && !done {
				ms.set(spec.Name, missing("no active sessions at the end of the sync pass"))
			}
		}
		return nil
	}
	if err := driveCore(ms, f, st, budget); err != nil {
		return err
	}
	ix := assign.NewProximityIndex(f.sc, neighborWindow)
	if err := driveCost(ms, f, st, ix, budget); err != nil {
		return err
	}
	return driveShard(ms, f, st, ix, budget)
}

// driveSim drains the workload's own sources with no consumer.
func driveSim(ms *metricSet, f *fixture, budget time.Duration) error {
	events := 0
	var err error
	ns := loopRounds(budget, func() {
		eng, e := f.newEngine()
		if e != nil {
			err = e
			return
		}
		for {
			if _, ok := eng.Next(); !ok {
				break
			}
			events++
		}
		if e := eng.Err(); e != nil {
			err = e
		}
	})
	if err != nil {
		return fmt.Errorf("sim driver: %w", err)
	}
	ms.set("sim.drain_events_per_s", ratio(float64(events)*1e9, ns, "drain time"))
	return nil
}

// driveCore walks every active session HopBudget hops with a reused
// scratch, exactly the call a solver worker makes.
func driveCore(ms *metricSet, f *fixture, st endState, budget time.Duration) error {
	a := st.a.Clone()
	ledger := cost.NewLedger(f.sc)
	if err := fillLedger(ledger, f, st); err != nil {
		return err
	}
	cfg := core.DefaultConfig(f.seed)
	cfg.NeighborWindow = neighborWindow
	scr := core.NewHopScratch(f.ev)
	rng := rand.New(rand.NewSource(f.seed))
	hops, moved, feasible := 0, 0, 0
	var err error
	ns := loopRounds(budget, func() {
		for _, s := range st.active {
			for i := 0; i < hopBudget; i++ {
				res, e := core.HopSessionWith(a, s, f.ev, ledger, cfg, rng, scr)
				if e != nil {
					err = e
					return
				}
				hops++
				feasible += res.Feasible
				if !res.Moved {
					break
				}
				moved++
			}
		}
	})
	if err != nil {
		return fmt.Errorf("core driver: %w", err)
	}
	ms.set("core.hop_ns", perOp(ns, hops))
	ms.set("core.hop_moved_frac", ratio(float64(moved), float64(hops), "hops"))
	ms.set("core.hop_feasible_mean", ratio(float64(feasible), float64(hops), "hops"))
	return nil
}

// driveCost times the evaluator's steps one by one.
func driveCost(ms *metricSet, f *fixture, st endState, ix *assign.ProximityIndex, budget time.Duration) error {
	a := st.a.Clone()
	scr := f.ev.NewScratch()

	// A cold BeginSession: the O(n²) delay-base rebuild.
	ops := 0
	ns := loopRounds(budget, func() {
		for _, s := range st.active {
			scr.InvalidateDelay(s)
			f.ev.BeginSession(a, s, scr)
			ops++
		}
	})
	ms.set("cost.begin_session_ns", perOp(ns, ops))

	ops = 0
	ns = loopRounds(budget, func() {
		for _, s := range st.active {
			f.ev.SessionLoadSparse(a, s, scr)
			ops++
		}
	})
	ms.set("cost.session_load_sparse_ns", perOp(ns, ops))

	// CandidatePhi over every windowed neighbour of every session, timed
	// per call (two clock reads are inside the figure).
	opts := assign.NeighborOptions{Window: neighborWindow, Index: ix}
	var ds []assign.Decision
	ops = 0
	phiNs := 0.0
	var err error
	loopRounds(budget, func() {
		for _, s := range st.active {
			f.ev.BeginSession(a, s, scr)
			ds = a.AppendSessionNeighborDecisionsOpts(ds[:0], s, opts)
			for _, d := range ds {
				inv, e := a.Apply(d)
				if e != nil {
					err = e
					return
				}
				f.ev.CandidateLoad(a, s, scr)
				t0 := time.Now()
				f.ev.CandidatePhi(a, s, d, scr)
				phiNs += float64(time.Since(t0).Nanoseconds())
				ops++
				if _, e := a.Apply(inv); e != nil {
					err = e
					return
				}
			}
		}
	})
	if err != nil {
		return fmt.Errorf("cost driver: %w", err)
	}
	ms.set("cost.candidate_phi_ns", perOp(phiNs, ops))

	// The objective cache's refresh after a commit: Invalidate, then the
	// lazy recompute the next objective read pays.
	cache := cost.NewObjectiveCache(f.ev)
	for _, s := range st.active {
		cache.SetActive(s, true)
	}
	cache.TotalObjective(a)
	ops = 0
	ns = loopRounds(budget, func() {
		for _, s := range st.active {
			cache.Invalidate(s)
			cache.SessionObjective(a, s)
			ops++
		}
	})
	ms.set("cost.objcache_refresh_ns", perOp(ns, ops))
	return nil
}

// driveShard times a task's snapshot step and a commit on the striped
// ledger, routed the way a solver worker routes them.
func driveShard(ms *metricSet, f *fixture, st endState, ix *assign.ProximityIndex, budget time.Duration) error {
	shl := shard.New(f.sc, solverShards)
	if err := fillLedger(shl, f, st); err != nil {
		return err
	}
	snap := cost.NewLedger(f.sc)
	var epochs shard.Epochs
	var route shard.Route
	var agents []model.AgentID
	ops := 0
	ns := loopRounds(budget, func() {
		for _, s := range st.active {
			agents = agents[:0]
			for _, u := range f.sc.Session(s).Users {
				agents = append(agents, st.a.UserAgent(u))
				agents = append(agents, ix.UserWindow(u)...)
			}
			agents = append(agents, st.a.SessionFlowAgents(s)...)
			shl.ResetRoute(&route)
			shl.RouteAgents(&route, agents)
			epochs = shl.SnapshotRoute(snap, epochs, &route)
			ops++
		}
	})
	ms.set("shard.snapshot_route_ns", perOp(ns, ops))

	// Commit each session's load over itself: route, lock, validate, swap
	// and bump epochs, with nothing for the validation to refuse.
	scr := f.ev.NewScratch()
	loads := make([]*cost.SparseLoad, len(st.active))
	for i, s := range st.active {
		loads[i] = cost.NewSparseLoad(f.sc.NumAgents())
		loads[i].CopyFrom(f.ev.SessionLoadSparse(st.a, s, scr))
	}
	epochs = shl.SnapshotInto(snap, epochs[:0])
	ops = 0
	refused := 0
	ns = loopRounds(budget, func() {
		for _, load := range loads {
			if shl.CommitDelta(load, load, epochs, &route) != shard.Committed {
				refused++
			}
			ops++
		}
	})
	if refused > 0 {
		return fmt.Errorf("shard driver: %d of %d identity commits refused", refused, ops)
	}
	ms.set("shard.commit_delta_ns", perOp(ns, ops))
	return nil
}

// drivePipeline pushes no-op events with disjoint footprints through the
// scheduler at the battery's in-flight cap: the scheduler's own cost per
// event.
func drivePipeline(ms *metricSet, budget time.Duration) error {
	sch, err := pipeline.New(pipeline.Config{MaxInFlight: maxInFlight})
	if err != nil {
		return err
	}
	defer sch.Close()
	const batch = 2000
	ops := 0
	ns := loopRounds(budget, func() {
		for i := 0; i < batch; i++ {
			trig := int32(i)
			_, e := sch.Submit(pipeline.Exec{
				Trigger: trig,
				Admit:   func() (pipeline.Footprint, error) { return pipeline.Footprint{Sessions: []int32{trig}}, nil },
				Reopt:   func() error { return nil },
				Retire:  func() {},
			})
			if e != nil {
				err = e
				return
			}
			ops++
		}
		if e := sch.Drain(); e != nil {
			err = e
		}
	})
	if err != nil {
		return fmt.Errorf("pipeline driver: %w", err)
	}
	ms.set("pipeline.submit_retire_ns", perOp(ns, ops))
	return nil
}
