package vconf

import (
	"math"
	"testing"
)

func TestGenerateChurnDeterministic(t *testing.T) {
	cfg := ChurnConfig{
		Seed:            3,
		HorizonS:        200,
		ArrivalRatePerS: 0.1,
		MeanHoldS:       60,
		NumSessions:     8,
	}
	a, err := GenerateChurn(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := GenerateChurn(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) == 0 || len(a) != len(b) {
		t.Fatalf("schedules diverge: %d vs %d events", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("event %d diverges: %+v vs %+v", i, a[i], b[i])
		}
	}
	last := 0.0
	for _, e := range a {
		if e.TimeS < last {
			t.Fatalf("events out of order at %v", e.TimeS)
		}
		last = e.TimeS
		if e.Kind != ChurnArrival && e.Kind != ChurnDeparture {
			t.Fatalf("invalid kind %v", e.Kind)
		}
	}
	if _, err := GenerateChurn(ChurnConfig{}); err == nil {
		t.Fatal("zero config accepted")
	}
}

// TestRunTicksDataPlaneBehindMigrations pins what the attached data plane
// sees of the examples/churn run. Run may tick the runtime to an event's
// time only once the earlier events' re-optimizations — and so their
// dual-feed migrations — have run; ticking at submission instead lets the
// clock pass a migration before it starts, and its redundant feed is
// counted for a fraction of its window. 33 migrations and 4.2300 Mbps·s
// are the one-event-at-a-time numbers the example prints.
func TestRunTicksDataPlaneBehindMigrations(t *testing.T) {
	sc, err := GenerateWorkload(PrototypeWorkload(5))
	if err != nil {
		t.Fatal(err)
	}
	solver, err := NewSolver(sc, WithSeed(5))
	if err != nil {
		t.Fatal(err)
	}
	const horizonS = 300
	events, err := GenerateChurn(ChurnConfig{
		Seed:            5,
		HorizonS:        horizonS,
		ArrivalRatePerS: 0.08,
		MeanHoldS:       100,
		NumSessions:     sc.NumSessions(),
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultOrchestratorConfig(5)
	cfg.MaxInFlight = 1
	orc, err := solver.NewOrchestrator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer orc.Close()
	rt, err := solver.NewRuntime(DefaultRuntimeConfig(5))
	if err != nil {
		t.Fatal(err)
	}
	orc.AttachRuntime(rt)
	if _, err := orc.Run(events, horizonS); err != nil {
		t.Fatal(err)
	}
	st := rt.Stats()
	if st.Migrations != 33 || math.Abs(st.TotalOverheadMbpsS-4.23) > 1e-6 {
		t.Fatalf("data plane saw %d migrations, %.6f Mbps·s overhead; want 33, 4.230000",
			st.Migrations, st.TotalOverheadMbpsS)
	}
	if rt.Now() != horizonS {
		t.Fatalf("data plane ticked to %v, want the horizon %v", rt.Now(), float64(horizonS))
	}
}

func TestTelemetryViaFacade(t *testing.T) {
	sc := smallScenario(t, 21)
	solver, err := NewSolver(sc, WithSeed(21))
	if err != nil {
		t.Fatal(err)
	}
	events, err := GenerateChurn(ChurnConfig{
		Seed:            21,
		HorizonS:        150,
		ArrivalRatePerS: 0.1,
		MeanHoldS:       80,
		NumSessions:     sc.NumSessions(),
	})
	if err != nil {
		t.Fatal(err)
	}
	sink := NewTelemetry(TelemetryConfig{TraceCapacity: len(events) + 1})
	cfg := DefaultOrchestratorConfig(21)
	cfg.Telemetry = sink
	orc, err := solver.NewOrchestrator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer orc.Close()
	if _, err := orc.Run(events, 150); err != nil {
		t.Fatal(err)
	}
	recs := sink.Recorder().Items()
	if len(recs) != len(events) {
		t.Fatalf("%d trace records for %d events", len(recs), len(events))
	}
	srv, err := ServeTelemetry(sink, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if srv.Addr() == "" {
		t.Fatal("server reported no address")
	}
}

func TestOrchestratorViaFacade(t *testing.T) {
	sc := smallScenario(t, 9)
	solver, err := NewSolver(sc, WithSeed(9))
	if err != nil {
		t.Fatal(err)
	}
	events, err := GenerateChurn(ChurnConfig{
		Seed:            9,
		HorizonS:        150,
		ArrivalRatePerS: 0.1,
		MeanHoldS:       80,
		NumSessions:     sc.NumSessions(),
	})
	if err != nil {
		t.Fatal(err)
	}
	orc, err := solver.NewOrchestrator(DefaultOrchestratorConfig(9))
	if err != nil {
		t.Fatal(err)
	}
	defer orc.Close()
	rt, err := solver.NewRuntime(DefaultRuntimeConfig(9))
	if err != nil {
		t.Fatal(err)
	}
	orc.AttachRuntime(rt)

	reports, err := orc.Run(events, 150)
	if err != nil {
		t.Fatal(err)
	}
	if len(reports) != len(events) {
		t.Fatalf("%d reports for %d events", len(reports), len(events))
	}
	if err := orc.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	st := orc.Stats()
	if st.Arrivals == 0 || st.Tasks == 0 {
		t.Fatalf("facade run did no work: %+v", st)
	}

	active := orc.ActiveSessions()
	if len(active) == 0 {
		t.Skip("no live sessions at horizon for this seed")
	}
	_, oraclePhi, err := solver.FullResolve(active, 150)
	if err != nil {
		t.Fatal(err)
	}
	if online := orc.Objective(); online > oraclePhi*1.10 {
		t.Fatalf("online objective %.2f exceeds 110%% of oracle %.2f", online, oraclePhi)
	}
}
