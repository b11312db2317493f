package orchestrator

import (
	"slices"
	"testing"

	"vconf/internal/model"
)

// TestSessionLoadCallersKeepTheViewContract guards the callers of
// cost.ObjectiveCache.SessionLoad, which hands every caller the same
// view and overwrites it on the next call. Each of the orchestrator's uses
// feeds the ledger (departure, eviction) or a touched set (admission, the
// committed-agents index), so a caller that kept the view across another
// SessionLoad call would move the wrong session's load. One churn + fault
// schedule runs stepped (one HandleEvent at a time, invariants after every
// event) and pipelined (Run at four events in flight): the ledger must
// reconcile with the loads recomputed from the assignment (CheckInvariants;
// task counts exactly), and at the end the committed-agents index must name
// exactly the agents each active session loads.
func TestSessionLoadCallersKeepTheViewContract(t *testing.T) {
	fc := chaosFleet(43)
	_, _, homes := chaosStack(t, fc)
	events := chaosSchedule(t, 43, fc, homes, 400, 0.15)
	for _, tc := range []struct {
		name     string
		inFlight int
	}{
		{"stepped", 1},
		{"pipelined", 4},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ev, boot, _ := chaosStack(t, fc)
			cfg := chaosConfig(43, fc)
			cfg.MaxInFlight = tc.inFlight
			o, err := New(ev, boot, cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer o.Close()
			if tc.inFlight > 1 {
				if _, err := o.Run(events, 1e18); err != nil {
					t.Fatal(err)
				}
				if err := o.CheckInvariants(); err != nil {
					t.Fatal(err)
				}
			} else {
				for _, e := range events {
					if _, err := o.HandleEvent(e); err != nil {
						t.Fatalf("event %+v: %v", e, err)
					}
					if err := o.CheckInvariants(); err != nil {
						t.Fatalf("after event %+v: %v", e, err)
					}
				}
			}
			st := o.Stats()
			if st.Commits == 0 || st.Departures == 0 || st.Orphans == 0 {
				t.Fatalf("schedule did not reach every caller: %+v", st)
			}
			scr := ev.NewScratch()
			for s := range o.touchIdx {
				var want []model.AgentID
				if o.cache.Active(model.SessionID(s)) {
					want = ev.SessionLoadSparse(o.a, model.SessionID(s), scr).AppendAgents(nil)
				}
				if !slices.Equal(o.touchIdx[s], want) {
					t.Fatalf("session %d: committed-agents index %v, its load is on %v", s, o.touchIdx[s], want)
				}
			}
		})
	}
}
