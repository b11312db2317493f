package orchestrator

import (
	"math"
	"testing"

	"vconf/internal/agrank"
	"vconf/internal/assign"
	"vconf/internal/cost"
	"vconf/internal/model"
	"vconf/internal/workload"
)

// runSchedule drives one fresh orchestrator over a schedule and returns the
// final assignment encoding, objective and stats.
func runSchedule(t *testing.T, wl workload.Config, events []workload.Event, cfg Config) (string, float64, Stats) {
	t.Helper()
	ev, boot := testStack(t, wl)
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

// coreStats strips the wall-clock fields (and the scheduler telemetry
// derived from timing), which legitimately differ across runs.
func coreStats(s Stats) Stats {
	s.ReoptTotal = 0
	s.ReoptMax = 0
	s.ReoptP50 = 0
	s.ReoptP99 = 0
	s.RecoverP50 = 0
	s.RecoverP99 = 0
	s.AdmissionStalls = 0
	s.ReoptWaits = 0
	s.QueueDepthPeak = 0
	s.InFlightPeak = 0
	return s
}

// TestShardedShardCountInvariant pins that on capacity-unconstrained
// workloads (where commit validation never depends on interleaving) the
// final state is independent of the ledger stripe count with four workers
// racing.
func TestShardedShardCountInvariant(t *testing.T) {
	wl := func() workload.Config { return workload.Prototype(21) }
	ev, _ := testStack(t, wl())
	events := churn(t, ev, 21, 250, 0.1, 90)

	ref := DefaultConfig(21)
	ref.Shards = 4
	ref.ledgerShards = 1
	encWant, phiWant, stWant := runSchedule(t, wl(), events, ref)

	for _, shards := range []int{2, 6} {
		cfg := DefaultConfig(21)
		cfg.Shards = 4
		cfg.ledgerShards = shards
		enc, phi, st := runSchedule(t, wl(), events, cfg)
		if enc != encWant {
			t.Fatalf("ledger shards=%d diverged from the one-stripe assignment", shards)
		}
		if math.Float64bits(phi) != math.Float64bits(phiWant) {
			t.Fatalf("ledger shards=%d objective %v, want %v", shards, phi, phiWant)
		}
		if got, want := coreStats(st), coreStats(stWant); got.Commits != want.Commits ||
			got.Rejects != want.Rejects || got.NoChange != want.NoChange ||
			got.Dropped != want.Dropped || got.Migrations != want.Migrations {
			t.Fatalf("ledger shards=%d stats %+v, want %+v", shards, got, want)
		}
	}
}

// TestOrchestratorRegionalConflictStorm is the end-to-end concurrency
// storm: ≥8 workers re-optimizing against a finite-capacity regional fleet
// whose clustered sessions overlap heavily on hot regions (same-shard
// conflicts) while spanning many ID ranges (cross-shard commits). The full
// invariant checker — capacity, completeness, delay, and exact ledger
// reconciliation against the live assignment — runs after every event.
func TestOrchestratorRegionalConflictStorm(t *testing.T) {
	fc := workload.DefaultFleetConfig(31)
	fc.NumAgents = 24
	fc.NumUsers = 90
	fc.Regions = 4
	fc.AgentBandwidthMbps = 260
	fc.AgentTranscodeSlots = 10
	sc, err := workload.GenerateSyntheticFleet(fc)
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
	events := []workload.Event{}
	evs, err := workload.PoissonSchedule(workload.ChurnConfig{
		Seed: 31, HorizonS: 300, ArrivalRatePerS: 0.3, MeanHoldS: 80,
		NumSessions: sc.NumSessions(),
	})
	if err != nil {
		t.Fatal(err)
	}
	events = append(events, evs...)

	cfg := DefaultConfig(31)
	cfg.Shards = 8
	cfg.ledgerShards = 6
	cfg.HopBudget = 12
	cfg.MaxReoptSessions = 12
	// Candidate windows switch workers onto route-restricted snapshots, so
	// the storm also exercises partial-snapshot commits under -race.
	cfg.Core.NeighborWindow = 6
	o, err := New(ev, boot, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer o.Close()

	for _, e := range events {
		if _, err := o.HandleEvent(e); err != nil {
			t.Fatalf("event %+v: %v", e, err)
		}
		if err := o.CheckInvariants(); err != nil {
			t.Fatalf("after event %+v: %v", e, err)
		}
	}
	st := o.Stats()
	if st.Tasks == 0 || st.Commits == 0 {
		t.Fatalf("storm did no re-optimization work: %+v", st)
	}
	t.Logf("storm: %d events, %d tasks, %d commits, %d conflicts, %d rejects, %d drops",
		st.Events, st.Tasks, st.Commits, st.Conflicts, st.Rejects, st.Dropped)
}
