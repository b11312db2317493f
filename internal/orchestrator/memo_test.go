package orchestrator

import (
	"fmt"
	"math"
	"testing"

	"vconf/internal/core"
	"vconf/internal/sim"
	"vconf/internal/workload"
)

// TestWalkMemoBudget drives churn through two workers that share a memo
// table too small for every state they certify, on one ledger stripe and on
// two, the battery's count (a walk then reads a snapshot current only on
// the stripes its route covers). After every event the table has allocated
// at most its limit. A departed session's states stay in the table, so a
// session that arrives again takes candidate sets from its earlier
// incarnation: on the re-arrivals whose re-optimization is the arriving
// session's walk alone, some hops reuse a set across walks, which a first
// walk could not if departure dropped the session's states.
func TestWalkMemoBudget(t *testing.T) {
	for _, stripes := range []int{1, 2} {
		t.Run(fmt.Sprintf("stripes=%d", stripes), func(t *testing.T) {
			ev, boot := testStack(t, workload.Prototype(5))
			events := churn(t, ev, 5, 1200, 0.1, 90)
			cfg := DefaultConfig(5)
			cfg.Shards = 2
			cfg.Core.NeighborWindow = 3
			cfg.ledgerShards = stripes
			o, err := New(ev, boot, cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer o.Close()
			const limit = 12 << 10
			o.memo = core.NewMemoTable(limit, ev.Scenario().NumSessions())
			seen := map[int]bool{}
			var peak, rearrived, alone, across int
			for _, e := range events {
				before := o.Stats().WalkReusedAcross
				rep, err := o.HandleEvent(e)
				if err != nil {
					t.Fatal(err)
				}
				b := o.memo.Bytes()
				if b > limit {
					t.Fatalf("after %+v: the table allocated %d bytes, over its limit of %d", e, b, limit)
				}
				peak = max(peak, b)
				if e.Kind != workload.EventArrival || !rep.Admitted {
					continue
				}
				if seen[e.Session] {
					rearrived++
					if len(rep.Reopt) == 1 {
						alone++
						across += o.Stats().WalkReusedAcross - before
					}
				}
				seen[e.Session] = true
			}
			if rearrived == 0 || alone == 0 || peak < limit*3/4 {
				t.Fatalf("the schedule did not exercise the table: %d re-arrivals, %d walked alone, peak %d of %d bytes",
					rearrived, alone, peak, limit)
			}
			if across == 0 {
				t.Fatalf("%d re-arrivals walked alone and none reused a candidate set of an earlier incarnation", alone)
			}
			t.Logf("%d re-arrivals, %d walked alone: %d hops reused across incarnations; table peak %d bytes", rearrived, alone, across, peak)
		})
	}
}

// TestMemoTableStorm races four workers over one memo table a few states
// wide: 48 sessions under churn with admission four events ahead, the
// invariants checked at the end. Run under -race in CI.
func TestMemoTableStorm(t *testing.T) {
	fc := chaosFleet(73)
	fc.NumUsers, fc.MinSessionSize, fc.MaxSessionSize = 192, 4, 4
	ev, boot, _ := chaosStack(t, fc)
	if n := ev.Scenario().NumSessions(); n != 48 {
		t.Fatalf("%d sessions, want 48", n)
	}
	cfg := DefaultConfig(73)
	cfg.Shards = 4
	cfg.MaxInFlight = 4
	cfg.Core.NeighborWindow = 3
	o, err := New(ev, boot, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer o.Close()
	const limit = 4 << 10
	o.memo = core.NewMemoTable(limit, ev.Scenario().NumSessions())
	if err := o.RunSource(sim.NewSliceSource(churn(t, ev, 73, 300, 0.4, 60)), math.Inf(1), func(EventReport) error {
		if b := o.memo.Bytes(); b > limit {
			t.Errorf("the table allocated %d bytes, over its limit of %d", b, limit)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if err := o.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if st := o.Stats(); st.WalkReusedAcross == 0 {
		t.Fatalf("%d hops, none reused across walks: the storm did not exercise the table", st.WalkHops)
	}
}
