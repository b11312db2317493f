package orchestrator

import (
	"math"
	"reflect"
	"testing"

	"vconf/internal/agrank"
	"vconf/internal/assign"
	"vconf/internal/cost"
	"vconf/internal/model"
	"vconf/internal/workload"
)

// TestPipelineStorm is the pipelined concurrency storm: overlapping events
// on a finite-capacity regional fleet whose clustered sessions share their
// home regions' agents, several events in flight (admissions running beside
// the current re-optimization, whose sibling tasks commit concurrently),
// candidate windows ON. The schedule runs in chunks; after
// every chunk the orchestrator is drained and the full invariant checker —
// capacity, completeness, delay cap, and exact ledger-vs-assignment
// reconciliation — must pass. Run under -race in CI.
func TestPipelineStorm(t *testing.T) {
	fc := workload.DefaultFleetConfig(51)
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
	evv, err := cost.NewEvaluator(sc, p)
	if err != nil {
		t.Fatal(err)
	}
	opts := agrank.DefaultOptions(3)
	boot := func(a *assign.Assignment, s model.SessionID, ledger cost.LedgerAPI) error {
		_, err := agrank.BootstrapSession(a, s, p, ledger, opts)
		return err
	}
	events, err := workload.PoissonSchedule(workload.ChurnConfig{
		Seed: 51, HorizonS: 300, ArrivalRatePerS: 0.3, MeanHoldS: 80,
		NumSessions: sc.NumSessions(),
	})
	if err != nil {
		t.Fatal(err)
	}

	cfg := DefaultConfig(51)
	cfg.Shards = 8
	cfg.ledgerShards = fc.NumAgents // per-agent stripes: the most disjoint commit routes
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
	if st.Tasks == 0 || st.Commits == 0 {
		t.Fatalf("storm did no re-optimization work: %+v", st)
	}
	t.Logf("storm: %d events, %d tasks, %d commits, %d conflicts, %d rejects, "+
		"in-flight peak %d, queue peak %d, stalls %d, reopt waits %d, p50 %v, p99 %v",
		st.Events, st.Tasks, st.Commits, st.Conflicts, st.Rejects,
		st.InFlightPeak, st.QueueDepthPeak, st.AdmissionStalls, st.ReoptWaits,
		st.ReoptP50, st.ReoptP99)
}

// TestPipelineOverlapHappens asserts the scheduler actually admits events
// ahead of the running re-optimization on a low-conflict workload (disjoint
// regional sessions, windows on): the in-flight high-water mark must exceed
// 1 and the latency percentiles must be populated.
func TestPipelineOverlapHappens(t *testing.T) {
	fc := workload.DefaultFleetConfig(52)
	fc.NumAgents = 32
	fc.NumUsers = 120
	fc.Regions = 8
	fc.CrossRegionFrac = -1 // explicit zero: purely intra-region sessions
	fc.AgentBandwidthMbps = 2000
	fc.AgentTranscodeSlots = 16
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
	events, err := workload.PoissonSchedule(workload.ChurnConfig{
		Seed: 52, HorizonS: 400, ArrivalRatePerS: 0.5, MeanHoldS: 60,
		NumSessions: sc.NumSessions(),
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(52)
	cfg.Shards = 4
	cfg.ledgerShards = fc.NumAgents
	cfg.HopBudget = 24
	cfg.Core.NeighborWindow = 4
	cfg.MaxInFlight = 4
	o, err := New(evv, boot, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer o.Close()
	if _, err := o.Run(events, 0); err != nil {
		t.Fatal(err)
	}
	if err := o.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	st := o.Stats()
	if st.InFlightPeak < 2 {
		t.Fatalf("run never overlapped events: %+v", st)
	}
	if st.ReoptP99 == 0 || st.ReoptP99 < st.ReoptP50 {
		t.Fatalf("latency percentiles unpopulated or inverted: p50 %v p99 %v", st.ReoptP50, st.ReoptP99)
	}
}

// TestPipelineConfigValidation pins the event-path config contract: a
// negative in-flight cap is refused, and the deprecated Pipeline flag is
// accepted and ignored.
func TestPipelineConfigValidation(t *testing.T) {
	ev, boot := testStack(t, workload.Prototype(53))
	bad := DefaultConfig(53)
	bad.MaxInFlight = -1
	if _, err := New(ev, boot, bad); err == nil {
		t.Fatal("negative max in-flight accepted")
	}
	ok := DefaultConfig(53)
	ok.Pipeline = true
	o, err := New(ev, boot, ok)
	if err != nil {
		t.Fatal(err)
	}
	defer o.Close()
	if o.cfg.MaxInFlight != 1 {
		t.Fatalf("default max in-flight %d, want 1", o.cfg.MaxInFlight)
	}
}

// TestPipelinedDropsAndSkips replays the admission edge cases through the
// scheduler at two events in flight: an infeasible arrival is dropped with
// clean state, and its echo departure is skipped — both producing empty
// footprints that claim no session.
func TestPipelinedDropsAndSkips(t *testing.T) {
	wl := workload.Prototype(54)
	wl.MeanBandwidthMbps = 30
	wl.MeanTranscodeSlots = 1
	ev, boot := testStack(t, wl)
	cfg := DefaultConfig(54)
	cfg.Shards = 2
	cfg.MaxInFlight = 2
	o, err := New(ev, boot, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer o.Close()

	rep, err := o.HandleEvent(workload.Event{TimeS: 1, Kind: workload.EventArrival, Session: 0})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Admitted {
		t.Skipf("session 0 admitted under tight capacity; drop path covered elsewhere")
	}
	if st := o.Stats(); st.Dropped != 1 {
		t.Fatalf("dropped = %d, want 1", st.Dropped)
	}
	if err := o.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	rep, err = o.HandleEvent(workload.Event{TimeS: 2, Kind: workload.EventDeparture, Session: 0})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Admitted {
		t.Fatal("skipped departure reported as live")
	}
	if st := o.Stats(); st.Skipped != 1 {
		t.Fatalf("skipped = %d, want 1", st.Skipped)
	}
	// Scheduler-level validation errors surface synchronously.
	if _, err := o.HandleEvent(workload.Event{TimeS: 3, Kind: workload.EventArrival, Session: -1}); err == nil {
		t.Fatal("negative session accepted")
	}
	if _, err := o.HandleEvent(workload.Event{TimeS: 3, Session: 0}); err == nil {
		t.Fatal("invalid event kind accepted")
	}
}

// TestRunReportsMatchHandleEvent pins the per-event report stream of Run's
// ingestion loop, which submits the next event without waiting for the
// previous one to retire, against one HandleEvent call per event, which
// does wait: at one event in flight every report field but the wall-clock
// ones must match — event order, admission outcomes, re-optimization sets,
// per-event commit/reject/no-change tallies, a fault's orphans, evacuations
// and evacuation rejects, and objective bits. The inputs are a tight churn
// fixture and the chaos fixture, whose faults take the same scheduler path.
func TestRunReportsMatchHandleEvent(t *testing.T) {
	for _, fx := range goldenFixtures() {
		if fx.name != "reports-p46-tight" && fx.name != "chaos-f41" {
			continue
		}
		t.Run(fx.name, func(t *testing.T) {
			events := fx.events(t)
			build := func() *Orchestrator {
				ev, boot := fx.stack(t)
				o, err := New(ev, boot, fx.config())
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(o.Close)
				return o
			}
			repsR, err := build().Run(events, 1e18)
			if err != nil {
				t.Fatal(err)
			}
			o := build()
			var repsH []EventReport
			for _, e := range events {
				rep, err := o.HandleEvent(e)
				if err != nil {
					t.Fatal(err)
				}
				repsH = append(repsH, rep)
			}

			if len(repsR) != len(repsH) {
				t.Fatalf("report counts diverged: Run %d, HandleEvent %d", len(repsR), len(repsH))
			}
			var evacuated, evacRejects int
			for i := range repsR {
				r, h := normalizeReport(repsR[i]), normalizeReport(repsH[i])
				if !reflect.DeepEqual(r, h) {
					t.Fatalf("event %d diverged:\n Run         %+v\n HandleEvent %+v", i, r, h)
				}
				if math.Float64bits(r.Objective) != math.Float64bits(h.Objective) {
					t.Fatalf("event %d objective diverged: %v vs %v", i, r.Objective, h.Objective)
				}
				evacuated += r.Evacuated
				evacRejects += r.EvacRejects
			}
			if fx.name == "chaos-f41" && (evacuated == 0 || evacRejects == 0) {
				t.Fatalf("chaos fixture re-homed %d and rejected %d orphans: the fault reports compared too little",
					evacuated, evacRejects)
			}
		})
	}
}

// TestPipelinedRecoversAfterAdmissionError pins error recovery: an
// admission error (double arrival) surfaces once, the orchestrator keeps
// processing subsequent events instead of staying wedged, and the failed
// event releases its event index — so the stream ends bit-identical to one
// that never contained the duplicate.
func TestPipelinedRecoversAfterAdmissionError(t *testing.T) {
	ev, _ := testStack(t, workload.Prototype(55))
	tail := churn(t, ev, 56, 200, 0.1, 90)
	first := workload.Event{TimeS: 0.1, Kind: workload.EventArrival, Session: 0}
	dup := workload.Event{TimeS: 0.2, Kind: workload.EventArrival, Session: 0}

	run := func(sequence []workload.Event) (string, float64, int) {
		evv, boot := testStack(t, workload.Prototype(55))
		cfg := DefaultConfig(55)
		cfg.Shards = 1
		o, err := New(evv, boot, cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer o.Close()
		errs := 0
		for _, e := range sequence {
			// Duplicates of an already-live session error and are skipped;
			// the stream continues either way.
			if e.Kind == workload.EventArrival && o.cache.Active(model.SessionID(e.Session)) {
				if _, err := o.HandleEvent(e); err == nil {
					t.Fatal("double arrival accepted")
				}
				errs++
				continue
			}
			if _, err := o.HandleEvent(e); err != nil {
				t.Fatalf("wedged after admission error: %v", err)
			}
		}
		if err := o.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
		return o.Assignment().Encode(), o.Objective(), errs
	}
	encD, phiD, errsD := run(append([]workload.Event{first, dup}, tail...))
	encC, phiC, errsC := run(append([]workload.Event{first}, tail...))
	if errsD != errsC+1 {
		t.Fatalf("the duplicate raised %d errors beyond the clean stream's %d, want 1", errsD-errsC, errsC)
	}
	if encD != encC {
		t.Fatal("recovered stream's assignment diverged from the clean stream's")
	}
	if math.Float64bits(phiD) != math.Float64bits(phiC) {
		t.Fatalf("recovered stream's objective diverged: %v vs %v", phiD, phiC)
	}
}
