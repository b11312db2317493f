package workload

import (
	"reflect"
	"testing"
)

// collect drains a lazy source into a slice for comparison against the
// eager reference generators.
func collect(t *testing.T, src *ChurnSource) []Event {
	t.Helper()
	var out []Event
	prev := -1.0
	for {
		e, ok := src.Next()
		if !ok {
			break
		}
		if e.TimeS < prev {
			t.Fatalf("lazy source emitted out of order: %v after %v", e.TimeS, prev)
		}
		prev = e.TimeS
		out = append(out, e)
	}
	if err := src.Err(); err != nil {
		t.Fatalf("lazy source error: %v", err)
	}
	return out
}

// TestLazyPoissonDifferential pins the lazy homogeneous source to the
// eager reference: it yields byte-for-byte the schedule refPoissonSchedule
// materializes, across seeds and pool regimes (including pool exhaustion,
// which exercises the dropped-arrival path's draw order).
func TestLazyPoissonDifferential(t *testing.T) {
	cfgs := []ChurnConfig{
		{Seed: 1, HorizonS: 500, ArrivalRatePerS: 0.4, MeanHoldS: 60, NumSessions: 30},
		{Seed: 2, HorizonS: 800, ArrivalRatePerS: 2.0, MeanHoldS: 200, NumSessions: 8}, // pool exhaustion
		{Seed: 3, HorizonS: 300, ArrivalRatePerS: 0.2, MeanHoldS: 40, NumSessions: 20, InitialActive: 12},
		{Seed: 4, HorizonS: 50, ArrivalRatePerS: 0.01, MeanHoldS: 10, NumSessions: 4}, // likely empty
		{Seed: 5, HorizonS: 1000, ArrivalRatePerS: 1.0, MeanHoldS: 5, NumSessions: 50, InitialActive: 50},
	}
	for i, cfg := range cfgs {
		eager, err := refPoissonSchedule(cfg)
		if err != nil {
			t.Fatalf("cfg %d: %v", i, err)
		}
		src, err := NewChurnSource(cfg)
		if err != nil {
			t.Fatalf("cfg %d: %v", i, err)
		}
		lazy := collect(t, src)
		if !reflect.DeepEqual(eager, lazy) {
			t.Fatalf("cfg %d: lazy stream diverges from eager schedule (%d vs %d events)",
				i, len(lazy), len(eager))
		}
	}
}

// TestLazyDiurnalDifferential is the same pin for the thinned
// non-homogeneous path, whose draw block (gap, region, acceptance, hold)
// must stay a pure function of the seed.
func TestLazyDiurnalDifferential(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		cfg := diurnalTestConfig(seed)
		if seed%2 == 0 {
			cfg.InitialActive = 10
		}
		eager, err := refPoissonSchedule(cfg)
		if err != nil {
			t.Fatal(err)
		}
		src, err := NewChurnSource(cfg)
		if err != nil {
			t.Fatal(err)
		}
		lazy := collect(t, src)
		if !reflect.DeepEqual(eager, lazy) {
			t.Fatalf("seed %d: lazy diurnal stream diverges from eager schedule (%d vs %d events)",
				seed, len(lazy), len(eager))
		}
	}
}

// TestLazySourceRejectsInvalidConfig pins the config validation.
func TestLazySourceRejectsInvalidConfig(t *testing.T) {
	if _, err := NewChurnSource(ChurnConfig{}); err == nil {
		t.Fatal("invalid config accepted")
	}
}

// TestEventBeforeTieBreak pins the merged-schedule tie-breaking contract
// (satellite of the virtual-clock PR): order is (TimeS, Rank), churn before
// faults on equal timestamps, regardless of which operand carries which.
func TestEventBeforeTieBreak(t *testing.T) {
	churn := Event{TimeS: 5, Kind: EventArrival, Session: 1, Rank: RankChurn}
	fault := Event{TimeS: 5, Kind: EventAgentFail, Session: -1, Agent: 2, Rank: RankFaults}
	if !churn.Before(fault) {
		t.Fatal("churn event must precede a fault event at the same timestamp")
	}
	if fault.Before(churn) {
		t.Fatal("fault event must not precede a churn event at the same timestamp")
	}
	early := Event{TimeS: 4, Kind: EventAgentFail, Rank: RankFaults}
	if !early.Before(churn) || churn.Before(early) {
		t.Fatal("time must dominate rank")
	}
	// Full-key ties order by producer; Before is strict, so neither sorts
	// strictly before the other.
	a := Event{TimeS: 5, Kind: EventArrival, Session: 1}
	b := Event{TimeS: 5, Kind: EventDeparture, Session: 2}
	if a.Before(b) || b.Before(a) {
		t.Fatal("full-key ties must not order strictly")
	}
}
