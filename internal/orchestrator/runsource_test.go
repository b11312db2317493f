package orchestrator

import (
	"bytes"
	"errors"
	"math"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"vconf/internal/faults"
	"vconf/internal/pipeline"
	"vconf/internal/sim"
	"vconf/internal/telemetry"
	"vconf/internal/workload"
)

// chaosGenConfigs builds the churn and fault generator configs of the
// standard chaos mix (same shape as chaosSchedule: churn over the first
// ~60% of the pool, faults with flash crowds over per-region reserved
// pools), so eager slices and lazy sources can be constructed from one
// spec.
func chaosGenConfigs(seed int64, fc workload.FleetConfig, homes []int, horizonS, rate float64) (workload.ChurnConfig, faults.Config) {
	nChurn := len(homes) * 3 / 5
	ccfg := workload.ChurnConfig{
		Seed:            seed,
		HorizonS:        horizonS,
		ArrivalRatePerS: rate,
		MeanHoldS:       120,
		NumSessions:     nChurn,
	}
	pools := make([][]int, fc.Regions)
	for s := nChurn; s < len(homes); s++ {
		pools[homes[s]] = append(pools[homes[s]], s)
	}
	fcfg := faults.Config{
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
	}
	return ccfg, fcfg
}

// chaosEngine builds the lazy virtual-clock engine for the same spec.
func chaosEngine(t *testing.T, ccfg workload.ChurnConfig, fcfg faults.Config) *sim.Engine {
	t.Helper()
	cs, err := workload.NewChurnSource(ccfg)
	if err != nil {
		t.Fatal(err)
	}
	fs, err := faults.NewSource(fcfg)
	if err != nil {
		t.Fatal(err)
	}
	return sim.New(cs, fs)
}

// normalizeReport strips the wall-clock and overlap-timing fields that
// legitimately differ across runs (same convention as coreStats and the
// telemetry differential).
func normalizeReport(r EventReport) EventReport {
	r.Latency = 0
	r.Conflicts = 0
	return r
}

// normalizeRecord strips the wall-clock/timing fields of a decision record;
// everything else must be bit-identical across eager and lazy runs.
func normalizeRecord(r telemetry.DecisionRecord) telemetry.DecisionRecord {
	r.WallNs = 0
	r.LatencyNs = 0
	r.SnapshotNs = 0
	r.WalkNs = 0
	r.CommitNs = 0
	r.Conflicts = 0
	r.Stalled = false
	return r
}

// TestRunSourceDifferential pins lazy ingestion against the eager
// schedule: driving the orchestrator from the lazy virtual-clock engine
// must be bit-identical to Run over the pre-materialized merge of the same
// generators — final assignment, objective bits, Stats counters, per-event
// reports and the telemetry decision-record stream.
func TestRunSourceDifferential(t *testing.T) {
	fc := chaosFleet(61)
	_, _, homes := chaosStack(t, fc)
	ccfg, fcfg := chaosGenConfigs(61, fc, homes, 400, 0.15)
	ch, err := workload.PoissonSchedule(ccfg)
	if err != nil {
		t.Fatal(err)
	}
	fl, err := faults.Schedule(fcfg)
	if err != nil {
		t.Fatal(err)
	}
	events := faults.Merge(ch, fl)

	type result struct {
		enc     string
		phi     float64
		stats   Stats
		reports []EventReport
		records []telemetry.DecisionRecord
	}
	run := func(lazy bool) result {
		ev, boot, _ := chaosStack(t, fc)
		cfg := chaosConfig(61, fc)
		cfg.Telemetry = telemetry.New(telemetry.Config{TraceCapacity: len(events) + 8})
		o, err := New(ev, boot, cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer o.Close()
		var reports []EventReport
		if lazy {
			err = o.RunSource(chaosEngine(t, ccfg, fcfg), 1e18, func(rep EventReport) error {
				reports = append(reports, rep)
				return nil
			})
		} else {
			reports, err = o.Run(events, 1e18)
		}
		if err != nil {
			t.Fatal(err)
		}
		if err := o.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
		return result{o.Assignment().Encode(), o.Objective(), o.Stats(), reports,
			cfg.Telemetry.Recorder().Items()}
	}

	eager := run(false)
	lazy := run(true)
	if lazy.enc != eager.enc {
		t.Fatal("final assignment diverged between eager Run and lazy RunSource")
	}
	if math.Float64bits(lazy.phi) != math.Float64bits(eager.phi) {
		t.Fatalf("objective diverged: eager %v lazy %v", eager.phi, lazy.phi)
	}
	if coreStats(lazy.stats) != coreStats(eager.stats) {
		t.Fatalf("stats diverged:\n eager %+v\n lazy  %+v",
			coreStats(eager.stats), coreStats(lazy.stats))
	}
	if len(lazy.reports) != len(eager.reports) {
		t.Fatalf("report counts diverged: eager %d lazy %d", len(eager.reports), len(lazy.reports))
	}
	for i := range eager.reports {
		a, b := normalizeReport(eager.reports[i]), normalizeReport(lazy.reports[i])
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("report %d diverged:\n eager %+v\n lazy  %+v", i, a, b)
		}
	}
	if len(lazy.records) != len(eager.records) {
		t.Fatalf("decision-record counts diverged: eager %d lazy %d",
			len(eager.records), len(lazy.records))
	}
	for i := range eager.records {
		a, b := normalizeRecord(eager.records[i]), normalizeRecord(lazy.records[i])
		if a != b {
			t.Fatalf("decision record %d diverged:\n eager %+v\n lazy  %+v", i, a, b)
		}
	}
}

// TestRunSourceRecordReplay pins the trace loop: record a lazy chaos run,
// replay it through a fresh orchestrator with the divergence checker
// engaged, and the decision stream must verify digest-for-digest with the
// same final state; a second recording of the replay must be byte-identical
// to the original trace.
func TestRunSourceRecordReplay(t *testing.T) {
	fc := chaosFleet(67)
	_, _, homes := chaosStack(t, fc)
	ccfg, fcfg := chaosGenConfigs(67, fc, homes, 300, 0.12)

	record := func(src sim.EventSource, rec *sim.Recorder) (string, float64) {
		ev, boot, _ := chaosStack(t, fc)
		o, err := New(ev, boot, chaosConfig(67, fc))
		if err != nil {
			t.Fatal(err)
		}
		defer o.Close()
		err = o.RunSource(src, 1e18, func(rep EventReport) error {
			return rec.Record(rep.Event, sim.Digest{Phi: rep.Objective, Active: rep.ActiveSessions, Commits: rep.Commits})
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := rec.Flush(); err != nil {
			t.Fatal(err)
		}
		return o.Assignment().Encode(), o.Objective()
	}

	var traceA bytes.Buffer
	recA, err := sim.NewRecorder(&traceA)
	if err != nil {
		t.Fatal(err)
	}
	encA, phiA := record(chaosEngine(t, ccfg, fcfg), recA)
	if recA.Recorded() == 0 {
		t.Fatal("empty recording")
	}

	// Replay with the divergence checker, re-recording as we go.
	rp, err := sim.NewReplayer(bytes.NewReader(traceA.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	ev, boot, _ := chaosStack(t, fc)
	o, err := New(ev, boot, chaosConfig(67, fc))
	if err != nil {
		t.Fatal(err)
	}
	defer o.Close()
	var traceB bytes.Buffer
	recB, err := sim.NewRecorder(&traceB)
	if err != nil {
		t.Fatal(err)
	}
	err = o.RunSource(rp, 1e18, func(rep EventReport) error {
		d := sim.Digest{Phi: rep.Objective, Active: rep.ActiveSessions, Commits: rep.Commits}
		if div := rp.Check(d); div != nil {
			return div
		}
		return recB.Record(rep.Event, d)
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := recB.Flush(); err != nil {
		t.Fatal(err)
	}
	if rp.Checked() != recA.Recorded() {
		t.Fatalf("replay checked %d of %d decisions", rp.Checked(), recA.Recorded())
	}
	if enc := o.Assignment().Encode(); enc != encA {
		t.Fatal("replayed final assignment diverged")
	}
	if math.Float64bits(o.Objective()) != math.Float64bits(phiA) {
		t.Fatalf("replayed objective diverged: %v vs %v", o.Objective(), phiA)
	}
	if !bytes.Equal(traceA.Bytes(), traceB.Bytes()) {
		t.Fatal("re-recorded replay trace is not byte-identical to the original")
	}
}

// TestRunHorizonEdgeCases pins Run's boundary behavior, at one and at two
// events in flight: an empty schedule is a no-op success, an event exactly
// at horizonS is processed, and out-of-order input is rejected instead of
// silently regressing the clock.
func TestRunHorizonEdgeCases(t *testing.T) {
	build := func(inFlight int) *Orchestrator {
		ev, boot := testStack(t, workload.Prototype(21))
		cfg := DefaultConfig(21)
		cfg.Shards = 2
		cfg.MaxInFlight = inFlight
		o, err := New(ev, boot, cfg)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(o.Close)
		return o
	}
	for _, inFlight := range []int{1, 2} {
		o := build(inFlight)
		reports, err := o.Run(nil, 100)
		if err != nil || len(reports) != 0 {
			t.Fatalf("in-flight %d: empty schedule: reports=%d err=%v", inFlight, len(reports), err)
		}
		// An event exactly at the horizon belongs to the schedule: Run
		// processes every listed event; horizonS only pads the data plane.
		reports, err = o.Run([]workload.Event{{TimeS: 100, Kind: workload.EventArrival, Session: 0}}, 100)
		if err != nil || len(reports) != 1 || !reports[0].Admitted {
			t.Fatalf("in-flight %d: horizon-edge event: reports=%+v err=%v", inFlight, reports, err)
		}
		if o.Now() != 100 {
			t.Fatalf("in-flight %d: clock %v after horizon-edge event", inFlight, o.Now())
		}
		bad := []workload.Event{
			{TimeS: 120, Kind: workload.EventArrival, Session: 1},
			{TimeS: 110, Kind: workload.EventArrival, Session: 2},
		}
		if _, err := o.Run(bad, 200); err == nil {
			t.Fatalf("in-flight %d: out-of-order schedule accepted", inFlight)
		}
		// The rejection happens before the offending event applies, so the
		// orchestrator keeps working.
		if err := o.CheckInvariants(); err != nil {
			t.Fatalf("in-flight %d: %v", inFlight, err)
		}
		o2 := build(inFlight)
		if err := o2.RunSource(sim.NewSliceSource(bad), 200, nil); err == nil {
			t.Fatalf("in-flight %d: RunSource accepted out-of-order stream", inFlight)
		}
	}
}

// TestRunSourcePipelinedStorm races the streaming path end to end: a lazy
// chaos engine feeding the scheduler at in-flight 4, reports
// counted from the retire goroutine, invariants checked at the end. Run
// under -race in CI.
func TestRunSourcePipelinedStorm(t *testing.T) {
	fc := chaosFleet(71)
	_, _, homes := chaosStack(t, fc)
	ccfg, fcfg := chaosGenConfigs(71, fc, homes, 400, 0.2)
	cfg := chaosConfig(71, fc)
	cfg.Shards = 4
	cfg.ledgerShards = 4
	cfg.MaxInFlight = 4
	ev, boot, _ := chaosStack(t, fc)
	o, err := New(ev, boot, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer o.Close()
	var n atomic.Int64
	if err := o.RunSource(chaosEngine(t, ccfg, fcfg), 1e18, func(rep EventReport) error {
		n.Add(1)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if n.Load() == 0 {
		t.Fatal("storm emitted no reports")
	}
	if got := int64(o.Stats().Events); got != n.Load() {
		t.Fatalf("emitted %d reports for %d events", n.Load(), got)
	}
	if err := o.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestCloseMidStream pins a clean Close in the middle of a RunSource
// stream: Close called from another goroutine while events are in flight
// makes RunSource return (with the scheduler's ErrClosed, since it could
// not submit the rest), without a panic or a deadlock; the state it leaves
// holds every invariant, a second Close is a no-op and HandleEvent
// afterwards returns an error. Run under -race in CI.
func TestCloseMidStream(t *testing.T) {
	for _, inFlight := range []int{1, 4} {
		fc := chaosFleet(73)
		ev, boot, homes := chaosStack(t, fc)
		ccfg, fcfg := chaosGenConfigs(73, fc, homes, 400, 0.2)
		cfg := chaosConfig(73, fc)
		cfg.Shards = 4
		cfg.MaxInFlight = inFlight
		o, err := New(ev, boot, cfg)
		if err != nil {
			t.Fatal(err)
		}
		const closeAt = 40
		var n atomic.Int64
		closed := make(chan struct{})
		// Close from a goroutine of its own, racing the stream
		// (TestCloseFromReportCallback closes from inside the callback).
		onReport := func(EventReport) error {
			if n.Add(1) == closeAt {
				go func() {
					o.Close()
					close(closed)
				}()
			}
			return nil
		}
		src := &countingSource{EventSource: chaosEngine(t, ccfg, fcfg)}
		done := make(chan error, 1)
		go func() { done <- o.RunSource(src, 1e18, onReport) }()
		select {
		case err = <-done:
		case <-time.After(60 * time.Second):
			t.Fatalf("in-flight %d: RunSource did not return after Close", inFlight)
		}
		select {
		case <-closed:
		case <-time.After(60 * time.Second):
			t.Fatalf("in-flight %d: Close did not return", inFlight)
		}
		if !errors.Is(err, pipeline.ErrClosed) {
			t.Fatalf("in-flight %d: RunSource after Close returned %v, want ErrClosed", inFlight, err)
		}
		if _, ok := src.Next(); !ok {
			t.Fatalf("in-flight %d: the source ran dry before Close; the stream was not cut", inFlight)
		}
		if got := o.Stats().Events; int64(got) != n.Load() || got < closeAt {
			t.Fatalf("in-flight %d: %d events retired, %d reported", inFlight, got, n.Load())
		}
		if err := o.CheckInvariants(); err != nil {
			t.Fatalf("in-flight %d: %v", inFlight, err)
		}
		o.Close() // a no-op
		if _, err := o.HandleEvent(workload.Event{TimeS: 1e9, Kind: workload.EventDeparture, Session: 0}); err == nil {
			t.Fatalf("in-flight %d: HandleEvent after Close succeeded", inFlight)
		}
	}
}

// TestStopFromReportCallback: a callback stops the stream by returning an
// error. The error returned at the tenth report surfaces from RunSource,
// the state holds its invariants, and a later Close returns.
func TestStopFromReportCallback(t *testing.T) {
	for _, inFlight := range []int{1, 4} {
		fc := chaosFleet(73)
		ev, boot, homes := chaosStack(t, fc)
		ccfg, fcfg := chaosGenConfigs(73, fc, homes, 400, 0.2)
		cfg := chaosConfig(73, fc)
		cfg.Shards = 4
		cfg.MaxInFlight = inFlight
		o, err := New(ev, boot, cfg)
		if err != nil {
			t.Fatal(err)
		}
		stop := errors.New("stop at report 10")
		n := 0 // reports arrive one at a time, in schedule order
		onReport := func(EventReport) error {
			if n++; n == 10 {
				return stop
			}
			return nil
		}
		src := &countingSource{EventSource: chaosEngine(t, ccfg, fcfg)}
		done := make(chan error, 1)
		go func() { done <- o.RunSource(src, 1e18, onReport) }()
		select {
		case err = <-done:
		case <-time.After(60 * time.Second):
			t.Fatalf("in-flight %d: RunSource did not return after the callback's error", inFlight)
		}
		if !errors.Is(err, stop) {
			t.Fatalf("in-flight %d: RunSource returned %v, want the callback's error", inFlight, err)
		}
		if _, ok := src.Next(); !ok {
			t.Fatalf("in-flight %d: the source ran dry; the stream was not cut", inFlight)
		}
		if err := o.CheckInvariants(); err != nil {
			t.Fatalf("in-flight %d: %v", inFlight, err)
		}
		closed := make(chan struct{})
		go func() {
			o.Close()
			close(closed)
		}()
		select {
		case <-closed:
		case <-time.After(60 * time.Second):
			t.Fatalf("in-flight %d: Close did not return", inFlight)
		}
	}
}

// TestCloseFromReportCallback: onReport runs on the scheduler's retiring
// goroutine, and a Close made from inside it returns instead of waiting
// for that goroutine. RunSource then stops at its next submission with
// ErrClosed, the state holds its invariants, and HandleEvent afterwards
// returns an error. Run under -race in CI.
func TestCloseFromReportCallback(t *testing.T) {
	for _, inFlight := range []int{1, 4} {
		fc := chaosFleet(73)
		ev, boot, homes := chaosStack(t, fc)
		ccfg, fcfg := chaosGenConfigs(73, fc, homes, 400, 0.2)
		cfg := chaosConfig(73, fc)
		cfg.Shards = 4
		cfg.MaxInFlight = inFlight
		o, err := New(ev, boot, cfg)
		if err != nil {
			t.Fatal(err)
		}
		n := 0 // reports arrive one at a time, in schedule order
		onReport := func(EventReport) error {
			if n++; n == 10 {
				o.Close()
			}
			return nil
		}
		src := &countingSource{EventSource: chaosEngine(t, ccfg, fcfg)}
		done := make(chan error, 1)
		go func() { done <- o.RunSource(src, 1e18, onReport) }()
		select {
		case err = <-done:
		case <-time.After(60 * time.Second):
			t.Fatalf("in-flight %d: RunSource did not return after Close from onReport", inFlight)
		}
		if !errors.Is(err, pipeline.ErrClosed) {
			t.Fatalf("in-flight %d: RunSource returned %v, want ErrClosed", inFlight, err)
		}
		if _, ok := src.Next(); !ok {
			t.Fatalf("in-flight %d: the source ran dry; the stream was not cut", inFlight)
		}
		if got := o.Stats().Events; got != n || got < 10 {
			t.Fatalf("in-flight %d: %d events retired, %d reported", inFlight, got, n)
		}
		if err := o.CheckInvariants(); err != nil {
			t.Fatalf("in-flight %d: %v", inFlight, err)
		}
		if _, err := o.HandleEvent(workload.Event{TimeS: 1e9, Kind: workload.EventDeparture, Session: 0}); err == nil {
			t.Fatalf("in-flight %d: HandleEvent after Close succeeded", inFlight)
		}
		o.Close() // a no-op
	}
}

// countingSource counts the events RunSource pulls.
type countingSource struct {
	sim.EventSource
	pulled int
}

func (c *countingSource) Next() (workload.Event, bool) {
	e, ok := c.EventSource.Next()
	if ok {
		c.pulled++
	}
	return e, ok
}

// TestRunSourceStopsPullingAfterAdmissionError pins that an admission error
// ends ingestion: the scheduler discards the queued events, so RunSource
// must stop pulling within the submit window and the in-flight events
// rather than read the rest of the source, and return the error with the
// orchestrator still consistent.
func TestRunSourceStopsPullingAfterAdmissionError(t *testing.T) {
	const failing, total = 2, 1002
	for _, inFlight := range []int{1, 4} {
		ev, boot := testStack(t, workload.Prototype(57))
		events := []workload.Event{
			{TimeS: 0.1, Kind: workload.EventArrival, Session: 0},
			{TimeS: 0.15, Kind: workload.EventArrival, Session: 1},
			{TimeS: 0.2, Kind: workload.EventArrival, Session: 0}, // duplicate: fails admission
		}
		// The tail departs session 0, the duplicate's trigger, so the
		// scheduler cannot admit any of it ahead of the duplicate.
		for i := len(events); i < total; i++ {
			events = append(events, workload.Event{TimeS: 0.2 + float64(i)*1e-3, Kind: workload.EventDeparture, Session: 0})
		}
		cfg := DefaultConfig(57)
		cfg.Shards = 2
		cfg.MaxInFlight = inFlight
		o, err := New(ev, boot, cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer o.Close()
		src := &countingSource{EventSource: sim.NewSliceSource(events)}
		if err := o.RunSource(src, 1e18, nil); err == nil {
			t.Fatalf("in-flight %d: duplicate arrival accepted", inFlight)
		}
		if limit := failing + 4*inFlight + 2; src.pulled > limit {
			t.Fatalf("in-flight %d: pulled %d of %d events after the admission error at event %d, want ≤ %d",
				inFlight, src.pulled, total, failing, limit)
		}
		if err := o.CheckInvariants(); err != nil {
			t.Fatalf("in-flight %d: %v", inFlight, err)
		}
	}
}

// TestFaultSoak runs random seeds of lazy churn plus fault sources through
// the full orchestrator and checks every invariant along the way: at one
// event in flight one HandleEvent per event with CheckInvariants every 25
// events, at four in flight chunked Run calls with CheckInvariants between
// chunks (Run drains, so each check sees a quiesced state).
func TestFaultSoak(t *testing.T) {
	const every = 25
	for seed := int64(101); seed < 111; seed++ {
		fc := chaosFleet(seed)
		_, _, homes := chaosStack(t, fc)
		ccfg, fcfg := chaosGenConfigs(seed, fc, homes, 600, 0.2)
		for _, inFlight := range []int{1, 4} {
			ev, boot, _ := chaosStack(t, fc)
			cfg := chaosConfig(seed, fc)
			cfg.MaxInFlight = inFlight
			if inFlight > 1 {
				cfg.Shards = 2
				cfg.ledgerShards = 4
				cfg.Core.NeighborWindow = 4
			}
			o, err := New(ev, boot, cfg)
			if err != nil {
				t.Fatal(err)
			}
			eng := chaosEngine(t, ccfg, fcfg)
			n, faultEvents := 0, 0
			for done := false; !done; {
				chunk := make([]workload.Event, 0, every)
				for len(chunk) < every {
					e, ok := eng.Next()
					if !ok {
						done = true
						break
					}
					if e.Kind.IsFault() {
						faultEvents++
					}
					chunk = append(chunk, e)
				}
				if inFlight == 1 {
					for _, e := range chunk {
						if _, err := o.HandleEvent(e); err != nil {
							t.Fatalf("seed %d: event %d (%v): %v", seed, n, e.Kind, err)
						}
						n++
					}
				} else {
					if _, err := o.Run(chunk, 1e18); err != nil {
						t.Fatalf("seed %d in-flight %d: chunk at event %d: %v", seed, inFlight, n, err)
					}
					n += len(chunk)
				}
				if err := o.CheckInvariants(); err != nil {
					t.Fatalf("seed %d in-flight %d: after event %d: %v", seed, inFlight, n, err)
				}
			}
			if err := eng.Err(); err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			if faultEvents == 0 {
				t.Fatalf("seed %d drew no fault events", seed)
			}
			if st := o.Stats(); st.Events != n {
				t.Fatalf("seed %d in-flight %d: %d events retired of %d", seed, inFlight, st.Events, n)
			}
			o.Close()
		}
	}
}
