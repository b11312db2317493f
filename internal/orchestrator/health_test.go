package orchestrator

import (
	"bytes"
	"regexp"
	"testing"

	"vconf/internal/model"
	"vconf/internal/telemetry"
	"vconf/internal/workload"
)

// healthConfig wires a sink with the windowed sampler and a tight
// availability rule into a chaos-capable orchestrator config.
func healthConfig(seed int64, fc workload.FleetConfig, nEvents int) (Config, *telemetry.Sink) {
	sink := telemetry.New(telemetry.Config{
		TraceCapacity: nEvents + 8,
		SpanCapacity:  16 * (nEvents + 8),
		SampleEveryS:  5,
		SLO: []telemetry.SLORule{{
			Name: "availability", Kind: telemetry.RuleAvailability,
			Budget: 0.01, FastWindows: 2, SlowWindows: 6, FireBurn: 5,
		}},
	})
	cfg := chaosConfig(seed, fc)
	cfg.Telemetry = sink
	return cfg, sink
}

// healthDocs renders the health windows and alert timeline of one chaos
// run.
func healthDocs(t *testing.T, fc workload.FleetConfig, events []workload.Event, cfg Config, sink *telemetry.Sink) (string, string) {
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
	sink.Flush()
	var ts, al bytes.Buffer
	if err := telemetry.WriteJSON(&ts, sink.TimeseriesDoc()); err != nil {
		t.Fatal(err)
	}
	if err := telemetry.WriteJSON(&al, sink.AlertsDoc()); err != nil {
		t.Fatal(err)
	}
	return ts.String(), al.String()
}

// stalledWindow matches a health window that counted an admission stall.
var stalledWindow = regexp.MustCompile(`"stalls": [1-9]`)

// TestHealthWindowsDeterministic pins the sampler's central claim: windows
// are filled from the serialized decision-record stream, so repeated runs
// of one schedule produce byte-identical /timeseries.json and /alerts.json
// documents. At one event in flight that includes the stalls counter,
// since RunSource pulls each event only once the one before it retired.
func TestHealthWindowsDeterministic(t *testing.T) {
	fc := chaosFleet(31)
	_, _, homes := chaosStack(t, fc)
	events := chaosSchedule(t, 31, fc, homes, 400, 0.10)

	cfgA, sinkA := healthConfig(31, fc, len(events))
	tsA, alA := healthDocs(t, fc, events, cfgA, sinkA)
	cfgB, sinkB := healthConfig(31, fc, len(events))
	tsB, alB := healthDocs(t, fc, events, cfgB, sinkB)
	if tsA != tsB || alA != alB {
		t.Fatal("same seed produced different health documents")
	}
	if stalledWindow.MatchString(tsA) {
		t.Fatal("an admission stalled at one event in flight")
	}
}

// TestFaultsFreezeCorrelatedFlightDumps pins the orchestrator→flight
// recorder wiring: capacity-reducing incidents freeze dumps carrying the
// schedule's deterministic incident ids and kinds.
func TestFaultsFreezeCorrelatedFlightDumps(t *testing.T) {
	fc := chaosFleet(32)
	_, _, homes := chaosStack(t, fc)
	events := chaosSchedule(t, 32, fc, homes, 400, 0.10)
	cfg, sink := healthConfig(32, fc, len(events))
	_, _ = healthDocs(t, fc, events, cfg, sink)

	// Index the schedule's incident ids → kinds.
	kinds := map[int]string{}
	for _, e := range events {
		if e.Incident != 0 {
			kinds[e.Incident] = e.Kind.String()
		}
	}
	if len(kinds) == 0 {
		t.Fatal("schedule carries no incident ids")
	}
	dumps := sink.FlightDoc().Dumps
	if len(dumps) == 0 {
		t.Fatal("chaos run froze no flight dumps")
	}
	faultDumps, withTail := 0, 0
	for _, d := range dumps {
		switch d.Trigger {
		case "fault", "evac-reject":
			faultDumps++
			if d.Incident == 0 {
				t.Fatalf("fault dump without incident id: %+v", d)
			}
			if want := kinds[d.Incident]; d.IncidentKind != want {
				t.Fatalf("dump incident %d kind = %q, schedule says %q", d.Incident, d.IncidentKind, want)
			}
		case "alert":
			if len(d.ActiveAlerts) == 0 {
				t.Fatalf("alert dump without active alerts: %+v", d)
			}
		}
		// Dumps frozen before the first sampling window closes carry an
		// empty tail; later ones must not.
		if len(d.Windows) > 0 {
			withTail++
		}
	}
	if faultDumps == 0 {
		t.Fatal("no fault-triggered dumps across a chaos run")
	}
	if withTail == 0 {
		t.Fatal("no dump carried a closed-window tail")
	}
}

// TestInvariantFailureTriggersFlight pins the CheckInvariants wiring: a
// failing check freezes an "invariant" dump before returning the error.
func TestInvariantFailureTriggersFlight(t *testing.T) {
	fc := chaosFleet(33)
	_, _, homes := chaosStack(t, fc)
	events := chaosSchedule(t, 33, fc, homes, 200, 0.12)
	cfg, sink := healthConfig(33, fc, len(events))
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
		t.Fatalf("healthy state flagged: %v", err)
	}
	before := len(sink.FlightDoc().Dumps)

	// Sabotage the ledger out from under the live sessions: shrinking a
	// loaded agent's capacity to (effectively) zero makes Fits fail.
	sessions := o.ActiveSessions()
	if len(sessions) == 0 {
		t.Skip("no live sessions at horizon to violate")
	}
	for a := 0; a < fc.NumAgents; a++ {
		_ = o.ledger.SetCapacityScale(model.AgentID(a), 1e-9)
	}
	err = o.CheckInvariants()
	if err == nil {
		t.Fatal("sabotaged ledger passed CheckInvariants")
	}
	dumps := sink.FlightDoc().Dumps
	if len(dumps) != before+1 {
		t.Fatalf("invariant failure froze %d dumps, want exactly 1 more than %d", len(dumps), before)
	}
	last := dumps[len(dumps)-1]
	if last.Trigger != "invariant" || last.Reason != err.Error() {
		t.Fatalf("invariant dump wrong: trigger=%q reason=%q, want the CheckInvariants error", last.Trigger, last.Reason)
	}
}

// TestStatsQuantilesBatch pins the Stats percentile fill after the switch
// to the batched Quantiles accessor: p50 ≤ p99 and both land on histogram
// bucket bounds (no regression vs the repeated-Percentile fill).
func TestStatsQuantilesBatch(t *testing.T) {
	fc := chaosFleet(34)
	_, _, homes := chaosStack(t, fc)
	events := chaosSchedule(t, 34, fc, homes, 300, 0.10)
	cfg, _ := healthConfig(34, fc, len(events))
	ev, boot, _ := chaosStack(t, fc)
	o, err := New(ev, boot, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer o.Close()
	if _, err := o.Run(events, 1e18); err != nil {
		t.Fatal(err)
	}
	st := o.Stats()
	if st.ReoptP50 < 0 || st.ReoptP99 < st.ReoptP50 {
		t.Fatalf("reopt percentiles inverted: p50=%v p99=%v", st.ReoptP50, st.ReoptP99)
	}
	if st.Incidents > 0 && (st.RecoverP99 < st.RecoverP50 || st.RecoverP50 <= 0) {
		t.Fatalf("recovery percentiles wrong: p50=%v p99=%v over %d incidents",
			st.RecoverP50, st.RecoverP99, st.Incidents)
	}
}
