package telemetry

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"time"
)

// healthSink builds a sink with 1s health windows and the given rules.
func healthSink(t *testing.T, rules []SLORule) *Sink {
	t.Helper()
	return New(Config{
		Classes:      []string{"interactive", "broadcast"},
		SampleEveryS: 1,
		SLO:          rules,
	})
}

// tightAvailability fires after 2 bad windows and resolves after 1 clean
// one, so short synthetic streams exercise both transitions.
func tightAvailability() []SLORule {
	return []SLORule{{
		Name:        "availability",
		Kind:        RuleAvailability,
		Budget:      0.01,
		FastWindows: 2,
		SlowWindows: 4,
		FireBurn:    10,
	}}
}

func TestSamplerWindowDeltas(t *testing.T) {
	s := healthSink(t, nil)
	// Window 0: two commits, one drop; window 1: one conflict-heavy event.
	s.Record(DecisionRecord{TimeS: 0.2, Kind: "arrive", Admitted: true, Commits: 2, DelayMS: 100})
	s.Record(DecisionRecord{TimeS: 0.8, Kind: "arrive", Admitted: false})
	s.Record(DecisionRecord{TimeS: 1.5, Kind: "depart", Admitted: true, Commits: 1, Conflicts: 3, Rejects: 1})
	s.Flush()

	ws := s.TimeseriesDoc().Windows
	if len(ws) != 2 {
		t.Fatalf("windows = %d, want 2", len(ws))
	}
	w0, w1 := ws[0], ws[1]
	if w0.Index != 0 || w0.Events != 2 || w0.Commits != 2 || w0.Arrivals != 2 || w0.Drops != 1 {
		t.Fatalf("window 0 deltas wrong: %+v", w0)
	}
	if w0.CommitsPerS != 2 {
		t.Fatalf("window 0 commits/s = %v, want 2", w0.CommitsPerS)
	}
	if w0.DropRatio != 0.5 {
		t.Fatalf("window 0 drop ratio = %v, want 0.5 (1 drop / 2 arrivals)", w0.DropRatio)
	}
	if w1.Index != 1 || w1.Departures != 1 || w1.Conflicts != 3 {
		t.Fatalf("window 1 deltas wrong: %+v", w1)
	}
	if w1.ConflictRatio != 0.75 {
		t.Fatalf("window 1 conflict ratio = %v, want 3/(1+3)", w1.ConflictRatio)
	}
	if w1.RejectRatio != 0.5 {
		t.Fatalf("window 1 reject ratio = %v, want 1/(1+1)", w1.RejectRatio)
	}
	// The 100ms delay landed in window 0 under the default class mapping
	// (session 0 → class 0 = interactive).
	if len(w0.Classes) != 1 || w0.Classes[0].Class != "interactive" || w0.Classes[0].DelayN != 1 {
		t.Fatalf("window 0 classes wrong: %+v", w0.Classes)
	}
	if got, want := w0.Classes[0].P99US, bucketLowerBound(bucketIndex(100_000)); got != want {
		t.Fatalf("window 0 p99 = %d, want bucket lower bound %d", got, want)
	}
}

func TestSamplerDeltasNotCumulative(t *testing.T) {
	s := healthSink(t, nil)
	for i := 0; i < 5; i++ {
		s.Record(DecisionRecord{TimeS: float64(i) + 0.5, Kind: "arrive", Admitted: true, Commits: 1})
	}
	s.Flush()
	for _, w := range s.TimeseriesDoc().Windows {
		if w.Commits != 1 {
			t.Fatalf("window %d commits = %d: cumulative leak, want per-window delta 1", w.Index, w.Commits)
		}
	}
}

func TestSamplerGapClosesEmptyWindows(t *testing.T) {
	s := healthSink(t, nil)
	s.Record(DecisionRecord{TimeS: 0.5, Kind: "arrive", Admitted: true})
	s.Record(DecisionRecord{TimeS: 4.5, Kind: "arrive", Admitted: true})
	s.Flush()
	ws := s.TimeseriesDoc().Windows
	if len(ws) != 5 {
		t.Fatalf("windows = %d, want 5 (indices 0..4 with 1..3 empty)", len(ws))
	}
	for _, w := range ws[1:4] {
		if w.Events != 0 || w.Arrivals != 0 {
			t.Fatalf("gap window %d not empty: %+v", w.Index, w)
		}
	}
}

func TestSamplerIncidentInheritance(t *testing.T) {
	s := healthSink(t, nil)
	s.Record(DecisionRecord{TimeS: 0.5, Kind: "region-outage", Incident: 3, Orphans: 2, EvacRejects: 2})
	s.Record(DecisionRecord{TimeS: 2.5, Kind: "arrive", Admitted: true})
	// A new incident past a gap: the empty windows 3-4 keep incident 3.
	s.Record(DecisionRecord{TimeS: 5.5, Kind: "agent-fail", Incident: 4})
	s.Flush()
	ws := s.TimeseriesDoc().Windows
	if len(ws) != 6 {
		t.Fatalf("windows = %d, want 6", len(ws))
	}
	for _, w := range ws[:5] {
		if w.Incident != 3 || w.IncidentKind != "region-outage" {
			t.Fatalf("window %d lost the incident marker: %+v", w.Index, w)
		}
	}
	if ws[5].Incident != 4 || ws[5].IncidentKind != "agent-fail" {
		t.Fatalf("window 5 missed its own incident: %+v", ws[5])
	}
	if ws[0].Faults != 1 || ws[0].Orphans != 2 || ws[0].EvacRejects != 2 {
		t.Fatalf("fault window deltas wrong: %+v", ws[0])
	}
	if ws[0].DropRatio != 1 {
		t.Fatalf("fault window drop ratio = %v, want 1 (2 evac rejects / 2 orphans)", ws[0].DropRatio)
	}
}

func TestSamplerRingWrap(t *testing.T) {
	s := New(Config{SampleEveryS: 1})
	const n = windowCap + 6
	for i := 0; i < n; i++ {
		s.Record(DecisionRecord{TimeS: float64(i) + 0.5, Kind: "arrive", Admitted: true})
	}
	s.Flush()
	doc := s.TimeseriesDoc()
	if doc.WindowsTotal != n {
		t.Fatalf("total windows = %d, want %d", doc.WindowsTotal, n)
	}
	if len(doc.Windows) != windowCap {
		t.Fatalf("held windows = %d, want capacity %d", len(doc.Windows), windowCap)
	}
	for i, w := range doc.Windows {
		if w.Index != int64(6+i) {
			t.Fatalf("held window %d has index %d, want %d (oldest-first after wrap)", i, w.Index, 6+i)
		}
	}
	s.TriggerFlight("invariant", "tail probe")
	if tail := s.FlightDoc().Dumps[0].Windows; len(tail) != dumpWindows || tail[dumpWindows-1].Index != n-1 {
		t.Fatalf("dump window tail = %d windows ending at %d, want the newest %d", len(tail), tail[len(tail)-1].Index, dumpWindows)
	}
}

func TestSamplerWriteJSONShape(t *testing.T) {
	s := healthSink(t, nil)
	s.Record(DecisionRecord{TimeS: 0.5, Kind: "arrive", Admitted: true, Commits: 1})
	s.Flush()
	var buf bytes.Buffer
	if err := WriteJSON(&buf, s.TimeseriesDoc()); err != nil {
		t.Fatal(err)
	}
	var doc TimeseriesDoc
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("timeseries doc not valid JSON: %v", err)
	}
	if doc.IntervalS != 1 || doc.WindowsTotal != 1 || len(doc.Windows) != 1 {
		t.Fatalf("doc shape wrong: %+v", doc)
	}
	// Determinism contract: no wall-clock fields in the document.
	if strings.Contains(buf.String(), "wall") {
		t.Fatal("timeseries doc leaks wall-clock fields")
	}
}

func TestQuantilesMatchesRepeatedPercentile(t *testing.T) {
	h := NewRegistry().Histogram("parity_ns", "parity")
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 5000; i++ {
		h.Observe(rng.Int63n(10_000_000) + 1)
	}
	qs := []float64{0.01, 0.25, 0.50, 0.90, 0.99, 0.999, 1.0}
	batch := h.Quantiles(qs)
	for i, q := range qs {
		if want := h.Percentile(q); batch[i] != want {
			t.Fatalf("Quantiles(%v)[%d] = %d, Percentile(%v) = %d", qs, i, batch[i], q, want)
		}
	}
	// Unsorted query order must not change the answers.
	rev := []float64{0.99, 0.50, 0.01}
	got := h.Quantiles(rev)
	for i, q := range rev {
		if want := h.Percentile(q); got[i] != want {
			t.Fatalf("unsorted Quantiles[%d] = %d, Percentile(%v) = %d", i, got[i], q, want)
		}
	}
	if d := h.QuantilesDuration([]float64{0.5}); d[0] != time.Duration(h.Percentile(0.5)) {
		t.Fatalf("QuantilesDuration = %v, want %v", d[0], time.Duration(h.Percentile(0.5)))
	}
	var empty Histogram
	for _, v := range empty.Quantiles(qs) {
		if v != 0 {
			t.Fatal("empty histogram quantiles must be 0")
		}
	}
}

// alertStream drives count windows through the sink, with drop windows
// (indices in bad) taking one dropped arrival and one admitted arrival.
func alertStream(s *Sink, count int, bad map[int]bool) {
	for i := 0; i < count; i++ {
		ts := float64(i) + 0.5
		s.Record(DecisionRecord{TimeS: ts, Kind: "arrive", Admitted: true, Session: 1})
		if bad[i] {
			s.Record(DecisionRecord{TimeS: ts + 0.1, Kind: "arrive", Admitted: false, Session: 2})
		}
	}
	s.Flush()
}

func TestAlertEngineFireAndResolve(t *testing.T) {
	s := healthSink(t, tightAvailability())
	// Windows 0-4 clean, 5-8 dropping (50% >> 10×1% budget), 9-14 clean.
	bad := map[int]bool{5: true, 6: true, 7: true, 8: true}
	alertStream(s, 15, bad)

	evs := s.AlertsDoc().Events
	if len(evs) != 2 {
		t.Fatalf("events = %+v, want one fire + one resolve", evs)
	}
	fire, res := evs[0], evs[1]
	// Window 5 is the first bad one: fast burn over windows 4-5 is
	// (1/3)/0.01 ≈ 33, slow over 2-5 is (1/5)/0.01 = 20, both ≥ 10.
	if fire.State != "fire" || fire.Rule != "availability" || fire.Window != 5 {
		t.Fatalf("fire event wrong: %+v", fire)
	}
	if fire.FastBurn < 10 || fire.SlowBurn < 10 {
		t.Fatalf("fire burns too low: %+v", fire)
	}
	if res.State != "resolve" || res.Window != 10 {
		t.Fatalf("resolve event wrong: %+v (fast window clears two windows after last drop)", res)
	}
	st := s.AlertsDoc().Status
	if len(st) != 1 || st[0].Fires != 1 || st[0].Resolves != 1 || st[0].Firing {
		t.Fatalf("summary wrong: %+v", st)
	}
	if st[0].FiringWindows != 5 || st[0].FiringS != 5 {
		t.Fatalf("firing windows = %d (%.0fs), want 5 (windows 5-9)", st[0].FiringWindows, st[0].FiringS)
	}
	// Transition counters and the firing gauge follow the timeline.
	var prom bytes.Buffer
	if err := s.Registry().WriteProm(&prom); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`vconf_alert_transitions_total{rule="availability",state="fire"} 1`,
		`vconf_alert_transitions_total{rule="availability",state="resolve"} 1`,
		"vconf_alerts_firing 0",
	} {
		if !strings.Contains(prom.String(), want) {
			t.Fatalf("exposition missing %q", want)
		}
	}
}

func TestAlertTimelineDeterministic(t *testing.T) {
	render := func() string {
		s := healthSink(t, tightAvailability())
		alertStream(s, 20, map[int]bool{3: true, 4: true, 5: true, 11: true, 12: true})
		var buf bytes.Buffer
		if err := WriteJSON(&buf, s.AlertsDoc()); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	a, b := render(), render()
	if a != b {
		t.Fatalf("same stream produced different alert timelines:\n%s\nvs\n%s", a, b)
	}
}

func TestAlertDelayRule(t *testing.T) {
	s := healthSink(t, []SLORule{{
		Name: "interactive-delay", Kind: RuleDelay, Class: "interactive",
		TargetUS: 50_000, Budget: 0.05, FastWindows: 2, SlowWindows: 4, FireBurn: 10,
	}})
	// Every window's delay observation (class 0 = interactive) sits at
	// 400ms, far above the 50ms target: burn = (1/1)/0.05 = 20 ≥ 10.
	for i := 0; i < 4; i++ {
		s.Record(DecisionRecord{TimeS: float64(i) + 0.5, Kind: "arrive", Admitted: true, DelayMS: 400})
	}
	s.Flush()
	evs := s.AlertsDoc().Events
	if len(evs) != 1 || evs[0].State != "fire" || evs[0].Window != 0 {
		t.Fatalf("delay rule events = %+v, want one fire at window 0 (burn 20 ≥ 10 immediately)", evs)
	}
}

func TestAlertEventCorrelatesIncident(t *testing.T) {
	s := healthSink(t, tightAvailability())
	s.Record(DecisionRecord{TimeS: 0.5, Kind: "region-outage", Incident: 7, Orphans: 2, EvacRejects: 2})
	alertStream(s, 4, map[int]bool{1: true, 2: true})
	evs := s.AlertsDoc().Events
	if len(evs) == 0 {
		t.Fatal("no alert fired")
	}
	if evs[0].Incident != 7 || evs[0].IncidentKind != "region-outage" {
		t.Fatalf("fire event lost incident correlation: %+v", evs[0])
	}
}

func TestSLORuleValidation(t *testing.T) {
	bad := []SLORule{
		{Kind: RuleAvailability},                                  // no name
		{Name: "x", Kind: "latency"},                              // unknown kind
		{Name: "x", Kind: RuleDelay},                              // delay without target
		{Name: "x", Kind: RuleAvailability, Budget: 1.5},          // budget > 1
		{Name: "x", Kind: RuleDelay, TargetUS: 1, Budget: -0.001}, // negative budget
	}
	for i, r := range bad {
		if err := r.withDefaults().Validate(); err == nil && i != 3 && i != 4 {
			t.Fatalf("rule %d (%+v) validated", i, r)
		}
	}
	// New must panic on an invalid rule — programmer error, not data.
	defer func() {
		if recover() == nil {
			t.Fatal("New accepted an invalid SLO rule")
		}
	}()
	New(Config{SLO: []SLORule{{Name: "x", Kind: "nope"}}})
}

func TestDefaultSLORules(t *testing.T) {
	rules := DefaultSLORules([]string{"interactive", "broadcast"},
		map[string]int64{"interactive": 250_000})
	if len(rules) != 2 {
		t.Fatalf("rules = %+v, want availability + interactive-delay only", rules)
	}
	if rules[0].Kind != RuleAvailability || rules[1].Name != "interactive-delay" {
		t.Fatalf("rule shape wrong: %+v", rules)
	}
	for _, r := range rules {
		if err := r.withDefaults().Validate(); err != nil {
			t.Fatalf("default rule invalid: %v", err)
		}
	}
}

func TestFlightTriggerAndIncidentDedupe(t *testing.T) {
	s := healthSink(t, nil)
	s.Record(DecisionRecord{TimeS: 0.5, Kind: "region-outage", Incident: 1, Orphans: 2})
	s.TriggerFlight("fault", "region-outage: 2 orphans")
	s.TriggerFlight("evac-reject", "re-trigger on the same incident")
	s.Record(DecisionRecord{TimeS: 1.5, Kind: "agent-fail", Incident: 2})
	s.TriggerFlight("fault", "agent-fail")

	dumps := s.FlightDoc().Dumps
	if len(dumps) != 2 {
		t.Fatalf("dumps = %d, want 2 (fault re-triggers dedupe per incident)", len(dumps))
	}
	d := dumps[0]
	if d.Trigger != "fault" || d.Incident != 1 || d.IncidentKind != "region-outage" || d.TimeS != 0.5 {
		t.Fatalf("dump 0 wrong: %+v", d)
	}
	if len(d.Records) == 0 {
		t.Fatal("dump carries no decision records")
	}
	if dumps[1].Incident != 2 {
		t.Fatalf("dump 1 incident = %d, want 2", dumps[1].Incident)
	}
	// Alert/invariant triggers are not deduped by incident.
	s.TriggerFlight("invariant", "ledger off by one")
	s.TriggerFlight("invariant", "still off")
	if n := len(s.FlightDoc().Dumps); n != 4 {
		t.Fatalf("dumps after invariant re-triggers = %d, want 4", n)
	}
}

func TestFlightMaxDumpsAndDropCount(t *testing.T) {
	s := New(Config{})
	for i := 0; i < maxDumps+3; i++ {
		s.TriggerFlight("invariant", "overflow probe")
	}
	fl := s.FlightDoc()
	if len(fl.Dumps) != maxDumps || fl.Dropped != 3 {
		t.Fatalf("dumps=%d dropped=%d, want %d/3", len(fl.Dumps), fl.Dropped, maxDumps)
	}
	for i, d := range fl.Dumps {
		if d.Seq != i {
			t.Fatalf("dump %d has seq %d", i, d.Seq)
		}
	}
	var prom bytes.Buffer
	if err := s.Registry().WriteProm(&prom); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(prom.String(), fmt.Sprintf(`vconf_flight_dumps_total{trigger="invariant"} %d`, maxDumps)) {
		t.Fatal("dump counter did not track frozen dumps")
	}
}

func TestFlightCapacityScaleMirror(t *testing.T) {
	s := healthSink(t, nil)
	s.SetCapacityScale(3, 0.5)
	s.SetCapacityScale(1, 0)
	s.SetCapacityScale(7, 0.9)
	s.SetCapacityScale(7, 1) // healed: evicted from the sparse map
	s.TriggerFlight("fault", "scale probe")
	d := s.FlightDoc().Dumps[0]
	want := []AgentScale{{Agent: 1, Scale: 0}, {Agent: 3, Scale: 0.5}}
	if !reflect.DeepEqual(d.CapacityScales, want) {
		t.Fatalf("capacity scales = %+v, want %+v (sorted, healed agents evicted)", d.CapacityScales, want)
	}
}

func TestFlightDumpIncludesWindowTail(t *testing.T) {
	// Rings smaller than the run but larger than a dump's tails (16
	// windows, 64 records, 128 spans), so both wrap.
	s := New(Config{SampleEveryS: 1, TraceCapacity: 100, SpanCapacity: 200})
	for i := 0; i < 150; i++ {
		s.Record(DecisionRecord{TimeS: float64(i)/5 + 0.1, Kind: "arrive", Admitted: true})
	}
	for i := 0; i < 300; i++ {
		s.StartRoot("event", "event", 0).EndArg(int64(i))
	}
	s.Record(DecisionRecord{TimeS: 30.5, Kind: "region-outage", Incident: 1})
	s.TriggerFlight("fault", "tail probe")
	if s.Recorder().Dropped() == 0 || s.Spans().Dropped() == 0 {
		t.Fatal("probe did not wrap both rings")
	}
	for i := 0; i < 10; i++ {
		s.Record(DecisionRecord{TimeS: 30.6, Kind: "arrive", Admitted: true})
		s.StartRoot("event", "event", 0).EndArg(int64(300 + i))
	}
	s.TriggerFlight("invariant", "second tail probe")

	dumps := s.FlightDoc().Dumps
	if len(dumps) != 2 {
		t.Fatalf("dumps = %d, want 2", len(dumps))
	}
	// 30 windows closed so far: the dump keeps the newest 16.
	d := dumps[0]
	if len(d.Windows) != 16 {
		t.Fatalf("dump windows = %d, want 16", len(d.Windows))
	}
	if d.Windows[len(d.Windows)-1].Index != 29 {
		t.Fatalf("dump tail ends at window %d, want 29 (newest closed)", d.Windows[len(d.Windows)-1].Index)
	}
	for n, want := range []struct{ records, spans int64 }{{151, 300}, {161, 310}} {
		d := dumps[n]
		if len(d.Records) != 64 || len(d.Spans) != 128 {
			t.Fatalf("dump %d holds %d records, %d spans; want 64, 128", n, len(d.Records), len(d.Spans))
		}
		for k, rec := range d.Records {
			if wantSeq := want.records - 64 + int64(k); rec.Seq != wantSeq {
				t.Fatalf("dump %d record %d has seq %d, want %d (newest 64, oldest first)", n, k, rec.Seq, wantSeq)
			}
		}
		for k, sp := range d.Spans {
			if wantSeq := want.spans - 128 + int64(k); sp.Seq != wantSeq || sp.Arg != wantSeq {
				t.Fatalf("dump %d span %d has seq %d arg %d, want %d (newest 128, oldest first)", n, k, sp.Seq, sp.Arg, wantSeq)
			}
		}
	}
}

func TestAlertFireFreezesFlightDump(t *testing.T) {
	s := healthSink(t, tightAvailability())
	s.Record(DecisionRecord{TimeS: 0.5, Kind: "region-outage", Incident: 4, Orphans: 1, EvacRejects: 1})
	alertStream(s, 5, map[int]bool{1: true, 2: true, 3: true})
	var alertDump *FlightDump
	dumps := s.FlightDoc().Dumps
	for i, d := range dumps {
		if d.Trigger == "alert" {
			alertDump = &dumps[i]
			break
		}
	}
	if alertDump == nil {
		t.Fatalf("no alert-triggered dump; dumps = %+v", dumps)
	}
	if alertDump.Incident != 4 {
		t.Fatalf("alert dump incident = %d, want 4", alertDump.Incident)
	}
	if len(alertDump.ActiveAlerts) != 1 || alertDump.ActiveAlerts[0] != "availability" {
		t.Fatalf("alert dump active alerts = %v", alertDump.ActiveAlerts)
	}
	if len(alertDump.Windows) == 0 {
		t.Fatal("alert dump carries no window tail")
	}
}

// TestHealthDocsNilSafe pins that a nil sink's three documents are valid
// empty JSON and carry no data, and that Flush is safe on it.
func TestHealthDocsNilSafe(t *testing.T) {
	var s *Sink
	s.Flush()
	for name, write := range map[string]func(*bytes.Buffer) error{
		"timeseries": func(b *bytes.Buffer) error { return WriteJSON(b, s.TimeseriesDoc()) },
		"alerts":     func(b *bytes.Buffer) error { return WriteJSON(b, s.AlertsDoc()) },
		"flightrec":  func(b *bytes.Buffer) error { return WriteJSON(b, s.FlightDoc()) },
	} {
		var buf bytes.Buffer
		if err := write(&buf); err != nil {
			t.Fatalf("%s: nil-sink document errored: %v", name, err)
		}
		var doc map[string]interface{}
		if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
			t.Fatalf("%s: nil-sink document not valid JSON: %v", name, err)
		}
	}
	ts, al, fl := s.TimeseriesDoc(), s.AlertsDoc(), s.FlightDoc()
	if ts.IntervalS != 0 || ts.WindowsTotal != 0 || len(ts.Windows) != 0 {
		t.Fatalf("nil sink leaked windows: %+v", ts)
	}
	if al.IntervalS != 0 || len(al.Rules) != 0 || len(al.Status) != 0 || len(al.Events) != 0 || al.Dropped != 0 {
		t.Fatalf("nil sink leaked alerts: %+v", al)
	}
	if len(fl.Dumps) != 0 || fl.Dropped != 0 {
		t.Fatalf("nil sink leaked dumps: %+v", fl)
	}
}

func TestNilSinkHealthMethodsZeroAlloc(t *testing.T) {
	var s *Sink
	allocs := testing.AllocsPerRun(1000, func() {
		s.SetCapacityScale(1, 0.5)
		s.TriggerFlight("fault", "nil")
		s.Flush()
		_ = s.TimeseriesDoc()
		_ = s.AlertsDoc()
		_ = s.FlightDoc()
	})
	if allocs != 0 {
		t.Fatalf("nil-sink health path allocates %.1f/op, want 0", allocs)
	}
}

// TestSamplerOffByDefault pins that a sink without SampleEveryS or SLO
// rules keeps no windows and registers no alert families — existing users
// see no new overhead — while its flight recorder still dumps.
func TestSamplerOffByDefault(t *testing.T) {
	s := New(Config{})
	s.Record(DecisionRecord{TimeS: 2.5, Kind: "region-outage", Incident: 1})
	s.Flush()
	if ts := s.TimeseriesDoc(); ts.IntervalS != 0 || ts.WindowsTotal != 0 || len(ts.Windows) != 0 {
		t.Fatalf("windows kept without Config.SampleEveryS: %+v", ts)
	}
	if al := s.AlertsDoc(); al.IntervalS != 0 || len(al.Rules) != 0 {
		t.Fatalf("alerts built without Config.SLO: %+v", al)
	}
	s.TriggerFlight("fault", "probe")
	if d := s.FlightDoc().Dumps; len(d) != 1 || d[0].Incident != 1 || d[0].Windows != nil {
		t.Fatalf("flight recorder must be on for every enabled sink: %+v", d)
	}
	var prom bytes.Buffer
	if err := s.Registry().WriteProm(&prom); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(prom.String(), "vconf_alert") {
		t.Fatal("alert families registered without sampling configured")
	}
}

// TestSamplerDefaultsWithRules pins "SampleEveryS <= 0 means 1s when rules
// are set": the rules always have windows to read.
func TestSamplerDefaultsWithRules(t *testing.T) {
	s := New(Config{SLO: tightAvailability()})
	s.Record(DecisionRecord{TimeS: 2.5, Kind: "arrive", Admitted: true})
	s.Flush()
	if ts := s.TimeseriesDoc(); ts.IntervalS != 1 || ts.WindowsTotal != 1 || ts.Windows[0].Index != 2 {
		t.Fatalf("rules without SampleEveryS: %+v, want 1s windows", ts)
	}
	if al := s.AlertsDoc(); al.IntervalS != 1 || len(al.Status) != 1 {
		t.Fatalf("alerts doc = %+v, want interval 1 and one rule", al)
	}
}
