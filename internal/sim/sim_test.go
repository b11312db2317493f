package sim

import (
	"math"
	"reflect"
	"testing"

	"vconf/internal/faults"
	"vconf/internal/workload"
)

func faultTestConfig(seed int64, horizonS float64) faults.Config {
	region := make([]int, 12)
	for a := range region {
		region[a] = a % 3
	}
	return faults.Config{
		Seed: seed, HorizonS: horizonS, NumAgents: 12, AgentRegion: region,
		AgentMTBFS: 400, AgentMTTRS: 60, RegionMTBFS: 400, RegionMTTRS: 80,
		DegradeMTBFS: 500, DegradeMTTRS: 70, DegradeFloor: 0.3,
		FlashMTBFS: 400, FlashIntensity: 3, FlashHoldS: 40,
		FlashSessions: [][]int{{20, 21}, {22, 23}, {24}},
	}
}

func drainEngine(t *testing.T, e *Engine) []workload.Event {
	t.Helper()
	var out []workload.Event
	for {
		ev, ok := e.Next()
		if !ok {
			break
		}
		if ev.TimeS < e.Now()-1e-12 || e.Now() != ev.TimeS {
			t.Fatalf("clock %v does not track popped event %v", e.Now(), ev.TimeS)
		}
		out = append(out, ev)
	}
	if err := e.Err(); err != nil {
		t.Fatalf("engine error: %v", err)
	}
	return out
}

// TestEngineMergeDifferential pins the engine's merge against the slice
// merge: the engine over the lazy churn and fault sources must yield
// byte-for-byte the schedule faults.Merge makes of their drained slices.
func TestEngineMergeDifferential(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		ccfg := workload.ChurnConfig{Seed: seed, HorizonS: 500, ArrivalRatePerS: 0.5,
			MeanHoldS: 60, NumSessions: 20}
		fcfg := faultTestConfig(seed, 500)
		churn, err := workload.PoissonSchedule(ccfg)
		if err != nil {
			t.Fatal(err)
		}
		fault, err := faults.Schedule(fcfg)
		if err != nil {
			t.Fatal(err)
		}
		eager := faults.Merge(churn, fault)

		cs, err := workload.NewChurnSource(ccfg)
		if err != nil {
			t.Fatal(err)
		}
		fs, err := faults.NewSource(fcfg)
		if err != nil {
			t.Fatal(err)
		}
		lazy := drainEngine(t, New(cs, fs))
		if !reflect.DeepEqual(eager, lazy) {
			n := len(eager)
			if len(lazy) < n {
				n = len(lazy)
			}
			for k := 0; k < n; k++ {
				if eager[k] != lazy[k] {
					t.Fatalf("seed %d: first divergence at %d: eager %+v lazy %+v",
						seed, k, eager[k], lazy[k])
				}
			}
			t.Fatalf("seed %d: lazy length %d, eager %d", seed, len(lazy), len(eager))
		}
		if got := New(NewSliceSource(churn), NewSliceSource(fault)); got != nil {
			if merged := drainEngine(t, got); !reflect.DeepEqual(eager, merged) {
				t.Fatalf("seed %d: slice-source merge diverges from faults.Merge", seed)
			}
		}
	}
}

// TestEngineTieBreak pins the equal-timestamp contract: Event.Rank first
// (churn before faults), then source registration order, then per-source
// sequence — whatever order the sources are registered in.
func TestEngineTieBreak(t *testing.T) {
	churn := []workload.Event{
		{TimeS: 5, Kind: workload.EventArrival, Session: 1, Rank: workload.RankChurn},
		{TimeS: 5, Kind: workload.EventDeparture, Session: 2, Rank: workload.RankChurn},
	}
	fault := []workload.Event{
		{TimeS: 5, Kind: workload.EventAgentFail, Session: -1, Agent: 3, Rank: workload.RankFaults},
	}
	want := []int{1, 2, -1} // both churn events (in sequence), then the fault
	for _, order := range [][2][]workload.Event{{churn, fault}, {fault, churn}} {
		e := New(NewSliceSource(order[0]), NewSliceSource(order[1]))
		got := drainEngine(t, e)
		if len(got) != 3 {
			t.Fatalf("popped %d events, want 3", len(got))
		}
		for i, s := range want {
			if got[i].Session != s {
				t.Fatalf("tie order wrong: got %+v", got)
			}
		}
	}
	// Equal (time, rank) across sources: registration order decides.
	a := []workload.Event{{TimeS: 5, Kind: workload.EventArrival, Session: 10}}
	b := []workload.Event{{TimeS: 5, Kind: workload.EventArrival, Session: 20}}
	got := drainEngine(t, New(NewSliceSource(a), NewSliceSource(b)))
	if got[0].Session != 10 || got[1].Session != 20 {
		t.Fatalf("registration tie order wrong: %+v", got)
	}
}

// TestEngineClockMonotonic pins the time-authority contract: the clock
// tracks popped timestamps, and a source that regresses time is an engine
// error, not a silent reorder.
func TestEngineClockMonotonic(t *testing.T) {
	bad := []workload.Event{
		{TimeS: 5, Kind: workload.EventArrival, Session: 1},
		{TimeS: 3, Kind: workload.EventArrival, Session: 2},
	}
	e := New(NewSliceSource(bad))
	if _, ok := e.Next(); !ok {
		t.Fatal("first event should pop")
	}
	if _, ok := e.Next(); ok {
		t.Fatal("regressed event should not pop")
	}
	if e.Err() == nil {
		t.Fatal("time regression must surface as an engine error")
	}
	if e.Now() != 5 {
		t.Fatalf("clock moved on error: %v", e.Now())
	}
}

// TestEngineEmptySources: an engine over empty sources is exhausted
// immediately, clock at zero, no error.
func TestEngineEmptySources(t *testing.T) {
	e := New(NewSliceSource(nil), NewSliceSource(nil))
	if _, ok := e.Next(); ok {
		t.Fatal("empty engine popped an event")
	}
	if err := e.Err(); err != nil {
		t.Fatal(err)
	}
	if e.Now() != 0 || e.Popped() != 0 {
		t.Fatalf("empty engine state: now=%v popped=%d", e.Now(), e.Popped())
	}
}

// TestEngineRejectsNonFiniteTime: a NaN or infinite timestamp, first or
// later in a source, stops the engine with an error, and the bad event is
// never delivered.
func TestEngineRejectsNonFiniteTime(t *testing.T) {
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for pos := 0; pos < 2; pos++ {
			events := []workload.Event{
				{TimeS: 1, Kind: workload.EventArrival, Session: 1},
				{TimeS: 2, Kind: workload.EventArrival, Session: 2},
			}
			events[pos].TimeS = bad
			other := []workload.Event{{TimeS: 3, Kind: workload.EventArrival, Session: 3}}
			e := New(NewSliceSource(events), NewSliceSource(other))
			n := 0
			for ev, ok := e.Next(); ok; ev, ok = e.Next() {
				if ev.TimeS != float64(n+1) {
					t.Fatalf("time %v at position %d: delivered %+v", bad, pos, ev)
				}
				n++
			}
			if e.Err() == nil {
				t.Fatalf("time %v at position %d: no engine error", bad, pos)
			}
			if n != pos {
				t.Fatalf("time %v at position %d: delivered %d events, want %d", bad, pos, n, pos)
			}
		}
	}
}

// Popped returns how many events the engine has delivered — the merged
// stream's sequence counter, which trace records index by.
func (e *Engine) Popped() uint64 { return e.seq }
