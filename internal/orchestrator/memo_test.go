package orchestrator

import (
	"testing"

	"vconf/internal/model"
	"vconf/internal/workload"
)

// TestWalkMemoBudget drives churn through two workers whose sessions' memos
// share a budget a few states wide. After every event the budget's count is
// the sum of what the memos hold and at most one state over the limit, and a
// departed session's memo is gone, so a session that arrives again starts
// with an empty one. Once every session has left, the budget is back at 0.
func TestWalkMemoBudget(t *testing.T) {
	ev, boot := testStack(t, workload.Prototype(5))
	events := churn(t, ev, 5, 400, 0.1, 90)
	cfg := DefaultConfig(5)
	cfg.Shards = 2
	cfg.Core.NeighborWindow = 3
	o, err := New(ev, boot, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer o.Close()
	o.memoBudget.Limit = 6 << 10
	// oneState bounds a stored state's bytes: 4 per key entry (members,
	// then flows) and 8 per neighbor — the window per member, at most twice
	// it per flow.
	sc := ev.Scenario()
	var oneState int64
	for s := range sc.NumSessions() {
		n, f := len(sc.Session(model.SessionID(s)).Users), len(o.a.SessionFlowAgents(model.SessionID(s)))
		oneState = max(oneState, int64(4*(n+f)+8*(n+2*f)*cfg.Core.NeighborWindow))
	}
	check := func(e workload.Event) {
		t.Helper()
		var held int64
		for _, m := range o.memos {
			if m != nil {
				held += m.Bytes()
			}
		}
		used := o.memoBudget.Used()
		if used != held {
			t.Fatalf("after %+v: the budget counts %d bytes, the memos hold %d", e, used, held)
		}
		if used > o.memoBudget.Limit+oneState {
			t.Fatalf("after %+v: %d bytes held, more than one state (%d) over the limit %d", e, used, oneState, o.memoBudget.Limit)
		}
	}
	arrivals := map[int]int{}
	var peak int64
	rearrived := 0
	for _, e := range events {
		if _, err := o.HandleEvent(e); err != nil {
			t.Fatal(err)
		}
		check(e)
		peak = max(peak, o.memoBudget.Used())
		switch e.Kind {
		case workload.EventDeparture:
			if o.memos[e.Session] != nil {
				t.Fatalf("session %d departed and kept its memo", e.Session)
			}
		case workload.EventArrival:
			if arrivals[e.Session] > 0 {
				rearrived++
			}
			arrivals[e.Session]++
		}
	}
	last := events[len(events)-1].TimeS
	for _, s := range o.ActiveSessions() {
		e := workload.Event{TimeS: last, Kind: workload.EventDeparture, Session: int(s)}
		if _, err := o.HandleEvent(e); err != nil {
			t.Fatal(err)
		}
		check(e)
	}
	if used := o.memoBudget.Used(); used != 0 {
		t.Fatalf("every session left and the memos still hold %d bytes", used)
	}
	for s, m := range o.memos {
		if m != nil {
			t.Fatalf("session %d left and kept its memo", s)
		}
	}
	if st := o.Stats(); rearrived == 0 || peak < o.memoBudget.Limit || st.WalkReusedAcross == 0 {
		t.Fatalf("the schedule did not exercise the memos: %d re-arrivals, peak %d of %d bytes, %d hops reused across walks",
			rearrived, peak, o.memoBudget.Limit, st.WalkReusedAcross)
	}
}
