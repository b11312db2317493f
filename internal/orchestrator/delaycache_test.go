package orchestrator

import (
	"testing"

	"vconf/internal/agrank"
	"vconf/internal/assign"
	"vconf/internal/cost"
	"vconf/internal/model"
	"vconf/internal/workload"
)

// TestDelayCacheConcurrentInvalidationStorm races the workers' prepared
// states against commits and departures: overlapping events on a
// churn-heavy regional fleet (short holds, so departures tear sessions down
// and re-arrivals bootstrap them afresh while a worker's scratch may still
// hold the session's old state, which only its diff against the variables
// can catch). Chunked execution drains the scheduler repeatedly and the full
// invariant checker must pass after every chunk; CI runs this under -race,
// which would flag any cross-goroutine access to a scratch.
func TestDelayCacheConcurrentInvalidationStorm(t *testing.T) {
	fc := workload.DefaultFleetConfig(67)
	fc.NumAgents = 24
	fc.NumUsers = 90
	fc.Regions = 4
	fc.AgentBandwidthMbps = 300
	fc.AgentTranscodeSlots = 10
	sc, err := workload.GenerateSyntheticFleet(fc)
	if err != nil {
		t.Fatal(err)
	}
	p := cost.DefaultParams()
	evv, err := cost.NewEvaluator(sc, p)
	if err != nil {
		t.Fatal(err)
	}
	opts := agrank.DefaultOptions(3)
	boot := func(a *assign.Assignment, s model.SessionID, ledger cost.LedgerAPI) error {
		_, err := agrank.BootstrapSession(a, s, p, ledger, opts)
		return err
	}
	// High arrival rate + short holds: the schedule is dominated by
	// arrival/departure pairs, so sessions are constantly torn down and
	// re-bootstrapped while worker scratches may hold their old state.
	events, err := workload.PoissonSchedule(workload.ChurnConfig{
		Seed: 67, HorizonS: 300, ArrivalRatePerS: 0.5, MeanHoldS: 40,
		NumSessions: sc.NumSessions(),
	})
	if err != nil {
		t.Fatal(err)
	}

	cfg := DefaultConfig(67)
	cfg.Shards = 8
	cfg.ledgerShards = fc.NumAgents
	cfg.HopBudget = 12
	cfg.MaxReoptSessions = 8
	cfg.Core.NeighborWindow = 6
	cfg.MaxInFlight = 6
	o, err := New(evv, boot, cfg)
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
	if st.Departures == 0 || st.Commits == 0 {
		t.Fatalf("storm exercised no departures or commits: %+v", st)
	}
	t.Logf("storm: %d events (%d departures), %d tasks, %d commits, %d conflicts, in-flight peak %d",
		st.Events, st.Departures, st.Tasks, st.Commits, st.Conflicts, st.InFlightPeak)
}
