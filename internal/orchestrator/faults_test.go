package orchestrator

import (
	"math"
	"testing"

	"vconf/internal/agrank"
	"vconf/internal/assign"
	"vconf/internal/core"
	"vconf/internal/cost"
	"vconf/internal/faults"
	"vconf/internal/model"
	"vconf/internal/workload"
)

// chaosFleet is the shared regional fleet the fault tests run against:
// finite capacities with per-region skew, so whole-region outages force real
// evacuations into the surviving regions.
func chaosFleet(seed int64) workload.FleetConfig {
	fc := workload.DefaultFleetConfig(seed)
	fc.NumAgents = 16
	fc.NumUsers = 64
	fc.Regions = 4
	fc.AgentBandwidthMbps = 500
	fc.AgentTranscodeSlots = 16
	return fc
}

// chaosStack builds the evaluator and AgRank bootstrapper for a regional
// fleet and returns each session's home region alongside.
func chaosStack(t testing.TB, fc workload.FleetConfig) (*cost.Evaluator, core.Bootstrapper, []int) {
	t.Helper()
	sc, homes, err := workload.GenerateSyntheticFleetRegions(fc)
	if err != nil {
		t.Fatal(err)
	}
	p := cost.DefaultParams()
	ev, err := cost.NewEvaluator(sc, p)
	if err != nil {
		t.Fatal(err)
	}
	opts := agrank.DefaultOptions(3)
	boot := func(a *assign.Assignment, s model.SessionID, ledger cost.LedgerAPI) error {
		_, err := agrank.BootstrapSession(a, s, p, ledger, opts)
		return err
	}
	return ev, boot, homes
}

// chaosSchedule interleaves Poisson churn over the first ~60% of the session
// pool with a fault schedule (agent failures, regional outages, partial
// degradations, flash crowds drawing from the remaining per-region reserved
// pools). The two generators draw from disjoint session pools so a burst
// session can never double-arrive.
func chaosSchedule(t testing.TB, seed int64, fc workload.FleetConfig, homes []int, horizonS, rate float64) []workload.Event {
	t.Helper()
	nChurn := len(homes) * 3 / 5
	ch, err := workload.PoissonSchedule(workload.ChurnConfig{
		Seed:            seed,
		HorizonS:        horizonS,
		ArrivalRatePerS: rate,
		MeanHoldS:       120,
		NumSessions:     nChurn,
	})
	if err != nil {
		t.Fatal(err)
	}
	pools := make([][]int, fc.Regions)
	for s := nChurn; s < len(homes); s++ {
		pools[homes[s]] = append(pools[homes[s]], s)
	}
	fl, err := faults.Schedule(faults.Config{
		Seed:           seed + 1,
		HorizonS:       horizonS,
		NumAgents:      fc.NumAgents,
		AgentRegion:    workload.AgentRegions(fc.NumAgents, fc.Regions),
		AgentMTBFS:     600,
		AgentMTTRS:     80,
		RegionMTBFS:    500,
		RegionMTTRS:    60,
		DegradeMTBFS:   400,
		DegradeMTTRS:   70,
		DegradeFloor:   0.4,
		FlashMTBFS:     300,
		FlashIntensity: 3,
		FlashHoldS:     60,
		FlashSessions:  pools,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(fl) == 0 {
		t.Fatal("fault schedule drew no events; lower the MTBFs")
	}
	return faults.Merge(ch, fl)
}

// runChaos drives one fresh orchestrator over a merged churn+fault schedule
// against a fresh copy of the regional fleet.
func runChaos(t *testing.T, fc workload.FleetConfig, events []workload.Event, cfg Config) (string, float64, Stats) {
	t.Helper()
	ev, boot, _ := chaosStack(t, fc)
	o, err := New(ev, boot, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer o.Close()
	if _, err := o.Run(events, 1e18); err != nil {
		t.Fatal(err)
	}
	if err := o.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	return o.Assignment().Encode(), o.Objective(), o.Stats()
}

// chaosConfig is the common single-worker configuration of the fault tests.
func chaosConfig(seed int64, fc workload.FleetConfig) Config {
	cfg := DefaultConfig(seed)
	cfg.Shards = 1
	cfg.AgentRegion = workload.AgentRegions(fc.NumAgents, fc.Regions)
	return cfg
}

// TestFaultHealingInvariants steps a merged schedule event by event and runs
// the full invariant checker — capacity (zero-cap agents hold zero load),
// session completeness, delay feasibility, exact ledger reconciliation —
// after every single event, so each incident is validated in its immediate
// aftermath, not just at the horizon. At the end the healed objective must
// sit within the standard oracle drift bound of a from-scratch re-solve on
// the surviving (degraded) fleet.
func TestFaultHealingInvariants(t *testing.T) {
	fc := chaosFleet(43)
	ev, boot, homes := chaosStack(t, fc)
	events := chaosSchedule(t, 43, fc, homes, 400, 0.15)

	cfg := chaosConfig(43, fc)
	o, err := New(ev, boot, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer o.Close()

	for _, e := range events {
		rep, err := o.HandleEvent(e)
		if err != nil {
			t.Fatalf("event %+v: %v", e, err)
		}
		if err := o.CheckInvariants(); err != nil {
			t.Fatalf("after event %+v: %v", e, err)
		}
		if rep.Evacuated+rep.EvacRejects != rep.Orphans {
			t.Fatalf("event %+v: %d evacuated + %d rejected != %d orphans",
				e, rep.Evacuated, rep.EvacRejects, rep.Orphans)
		}
	}

	st := o.Stats()
	if st.Incidents == 0 || st.Orphans == 0 || st.Evacuated == 0 {
		t.Fatalf("schedule exercised no healing: %+v", st)
	}
	if st.Evacuated+st.EvacRejects != st.Orphans {
		t.Fatalf("orphan accounting broken: %+v", st)
	}
	if st.DegradedRejects > st.Dropped {
		t.Fatalf("degraded rejects %d exceed total drops %d", st.DegradedRejects, st.Dropped)
	}
	if st.RecoverP99 < st.RecoverP50 || st.RecoverP50 <= 0 {
		t.Fatalf("time-to-recovery percentiles malformed: p50 %v p99 %v", st.RecoverP50, st.RecoverP99)
	}

	active := o.ActiveSessions()
	if len(active) == 0 {
		t.Fatal("no active sessions at horizon; pick a longer hold time")
	}
	// The yardstick re-solves from scratch on the *surviving* fleet: the
	// oracle engine is degraded with the orchestrator's effective capacity
	// scales before bootstrapping.
	_, oraclePhi, err := OracleDegraded(ev, active, boot, core.DefaultConfig(43), 200, o.CapacityScales())
	if err != nil {
		t.Fatal(err)
	}
	online := o.Objective()
	if online > oraclePhi*1.10 {
		t.Fatalf("healed objective %.2f exceeds 110%% of degraded oracle %.2f", online, oraclePhi)
	}
	t.Logf("healing: %d incidents, %d orphans (%d evacuated, %d rejected), ttr p50 %v p99 %v, online/oracle %.4f",
		st.Incidents, st.Orphans, st.Evacuated, st.EvacRejects, st.RecoverP50, st.RecoverP99, online/oraclePhi)
}

// TestDelayCacheFaultDifferential is the failure-path extension of the
// reuse-vs-rebuild differential: across a schedule full of agent failures,
// regional outages and recoveries, reusing each scratch's prepared state must
// produce bit-identical results to the per-hop delay-base rebuild. Evictions
// are exactly what is under test — a prepared state that outlived its
// session's eviction and re-homing without the diff catching every moved
// variable would resurface a stale delay base and diverge here.
func TestDelayCacheFaultDifferential(t *testing.T) {
	fc := chaosFleet(47)
	_, _, homes := chaosStack(t, fc)
	events := chaosSchedule(t, 47, fc, homes, 400, 0.15)

	cached := chaosConfig(47, fc)
	encC, phiC, stC := runChaos(t, fc, events, cached)
	if stC.Incidents == 0 || stC.Orphans == 0 {
		t.Fatalf("schedule exercised no healing: %+v", stC)
	}

	rebuild := cached
	rebuild.rebuildDelayBase = true
	encR, phiR, stR := runChaos(t, fc, events, rebuild)

	if encC != encR {
		t.Fatal("cached and rebuild delay paths diverged under faults")
	}
	if math.Float64bits(phiC) != math.Float64bits(phiR) {
		t.Fatalf("objectives diverged: %v vs %v", phiC, phiR)
	}
	if coreStats(stC) != coreStats(stR) {
		t.Fatalf("stats diverged:\n cached  %+v\n rebuild %+v", coreStats(stC), coreStats(stR))
	}
}

// TestOrchestratorChaosStorm is the concurrency storm for the fault engine:
// a regional fleet with six workers overlapping arrivals and
// departures while agent failures, regional outages, degradations and flash
// crowds land as drain barriers between them. Chunked execution runs the
// full invariant checker repeatedly mid-flight; CI runs this under -race.
func TestOrchestratorChaosStorm(t *testing.T) {
	fc := chaosFleet(53)
	fc.NumAgents = 24
	fc.NumUsers = 90
	ev, boot, homes := chaosStack(t, fc)
	events := chaosSchedule(t, 53, fc, homes, 300, 0.4)

	cfg := DefaultConfig(53)
	cfg.Shards = 8
	cfg.ledgerShards = fc.NumAgents
	cfg.HopBudget = 12
	cfg.MaxReoptSessions = 8
	cfg.Core.NeighborWindow = 6
	cfg.MaxInFlight = 6
	cfg.AgentRegion = workload.AgentRegions(fc.NumAgents, fc.Regions)
	o, err := New(ev, boot, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer o.Close()

	const chunk = 40
	for i := 0; i < len(events); i += chunk {
		end := i + chunk
		if end > len(events) {
			end = len(events)
		}
		if _, err := o.Run(events[i:end], 0); err != nil {
			t.Fatalf("chunk [%d,%d): %v", i, end, err)
		}
		if err := o.CheckInvariants(); err != nil {
			t.Fatalf("after chunk [%d,%d): %v", i, end, err)
		}
	}
	st := o.Stats()
	if st.Events != len(events) {
		t.Fatalf("processed %d events, want %d", st.Events, len(events))
	}
	if st.Incidents == 0 || st.Orphans == 0 || st.Commits == 0 {
		t.Fatalf("storm exercised no healing or commits: %+v", st)
	}
	t.Logf("chaos storm: %d events, %d incidents, %d orphans (%d evacuated), %d commits, %d conflicts, in-flight peak %d",
		st.Events, st.Incidents, st.Orphans, st.Evacuated, st.Commits, st.Conflicts, st.InFlightPeak)
}
