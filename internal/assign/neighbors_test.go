package assign

import (
	"testing"

	"vconf/internal/model"
	"vconf/internal/workload"
)

func windowScenario(t *testing.T) *model.Scenario {
	t.Helper()
	sc, err := workload.Generate(workload.Prototype(9))
	if err != nil {
		t.Fatal(err)
	}
	return sc
}

// bootstrapAll gives every variable a deterministic agent so current-agent
// skipping is exercised.
func bootstrapAll(sc *model.Scenario, a *Assignment) {
	for u := 0; u < sc.NumUsers(); u++ {
		a.SetUserAgent(model.UserID(u), model.AgentID(u%sc.NumAgents()))
	}
	for i, f := range a.Flows() {
		_ = a.SetFlowAgent(f, model.AgentID(i%sc.NumAgents()))
	}
}

// TestNeighborWindowZeroAndFullMatchFullScan: the knob's defaults must not
// change outputs — window 0 and a window covering the whole fleet both
// reproduce the canonical enumeration exactly, decision for decision.
func TestNeighborWindowZeroAndFullMatchFullScan(t *testing.T) {
	sc := windowScenario(t)
	a := New(sc)
	bootstrapAll(sc, a)
	ix := NewProximityIndex(sc, sc.NumAgents())
	for s := 0; s < sc.NumSessions(); s++ {
		want := a.AppendSessionNeighborDecisions(nil, model.SessionID(s))
		for _, opts := range []NeighborOptions{
			{},
			{Window: sc.NumAgents(), Index: ix},
			{Window: sc.NumAgents() + 5},
		} {
			got := a.AppendSessionNeighborDecisionsOpts(nil, model.SessionID(s), opts)
			if len(got) != len(want) {
				t.Fatalf("session %d opts %+v: %d decisions, want %d", s, opts, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("session %d opts %+v: decision %d = %v, want %v", s, opts, i, got[i], want[i])
				}
			}
		}
	}
}

// TestNeighborWindowPrunes: with window k every enumerated target lies in
// the variable's window, user variables yield at most k candidates, the
// result is a subset of the full scan in the same relative order, and a
// missing Index still works (built on the fly).
func TestNeighborWindowPrunes(t *testing.T) {
	sc := windowScenario(t)
	a := New(sc)
	bootstrapAll(sc, a)
	const k = 2
	ix := NewProximityIndex(sc, k)
	if ix.Window() != k {
		t.Fatalf("Window() = %d", ix.Window())
	}
	inWindow := func(u model.UserID, l model.AgentID) bool {
		for _, w := range ix.UserWindow(u) {
			if w == l {
				return true
			}
		}
		return false
	}
	for s := 0; s < sc.NumSessions(); s++ {
		sid := model.SessionID(s)
		full := a.AppendSessionNeighborDecisions(nil, sid)
		got := a.AppendSessionNeighborDecisionsOpts(nil, sid, NeighborOptions{Window: k, Index: ix})
		if len(got) >= len(full) {
			t.Fatalf("session %d: window did not prune (%d vs %d)", s, len(got), len(full))
		}
		// Subset in order.
		j := 0
		for _, d := range got {
			for j < len(full) && full[j] != d {
				j++
			}
			if j == len(full) {
				t.Fatalf("session %d: windowed decision %v missing from (or out of order in) the full scan", s, d)
			}
			j++
		}
		perUser := map[model.UserID]int{}
		for _, d := range got {
			switch d.Kind {
			case UserMove:
				perUser[d.User]++
				if !inWindow(d.User, d.To) {
					t.Fatalf("user %d target %d outside its window %v", d.User, d.To, ix.UserWindow(d.User))
				}
			case FlowMove:
				if !inWindow(d.Flow.Src, d.To) && !inWindow(d.Flow.Dst, d.To) {
					t.Fatalf("flow %v target %d outside both endpoint windows", d.Flow, d.To)
				}
			}
		}
		for u, n := range perUser {
			if n > k {
				t.Fatalf("user %d enumerated %d candidates, window %d", u, n, k)
			}
		}
		// nil Index: built on the fly, same output.
		lazy := a.AppendSessionNeighborDecisionsOpts(nil, sid, NeighborOptions{Window: k})
		if len(lazy) != len(got) {
			t.Fatalf("session %d: lazy index produced %d decisions, want %d", s, len(lazy), len(got))
		}
		for i := range got {
			if lazy[i] != got[i] {
				t.Fatalf("session %d: lazy index decision %d = %v, want %v", s, i, lazy[i], got[i])
			}
		}
	}
}

// TestProximityIndexOrder: windows are the k proximity-nearest agents,
// re-sorted ascending by ID (the canonical enumeration order).
func TestProximityIndexOrder(t *testing.T) {
	sc := windowScenario(t)
	const k = 3
	ix := NewProximityIndex(sc, k)
	for u := 0; u < sc.NumUsers(); u++ {
		win := ix.UserWindow(model.UserID(u))
		if len(win) != k {
			t.Fatalf("user %d window size %d", u, len(win))
		}
		want := sc.AppendNearestAgents(nil, model.UserID(u), k)
		member := map[model.AgentID]bool{}
		for _, l := range want {
			member[l] = true
		}
		for i, l := range win {
			if !member[l] {
				t.Fatalf("user %d window agent %d not among %d nearest %v", u, l, k, want)
			}
			if i > 0 && win[i-1] >= l {
				t.Fatalf("user %d window not ascending: %v", u, win)
			}
		}
	}
}

// oldProximityIndex is the construction the nearest-agent table replaced:
// a bounded insertion over every agent's H-delay per user, then the window
// re-sorted by ID.
func oldProximityIndex(sc *model.Scenario, window int) []model.AgentID {
	window = max(1, min(window, sc.NumAgents()))
	out := make([]model.AgentID, 0, sc.NumUsers()*window)
	for u := 0; u < sc.NumUsers(); u++ {
		uid := model.UserID(u)
		base := len(out)
		for l := 0; l < sc.NumAgents(); l++ {
			d := sc.H(model.AgentID(l), uid)
			if len(out)-base == window {
				if d >= sc.H(out[len(out)-1], uid) {
					continue
				}
			} else {
				out = append(out, 0)
			}
			i := len(out) - 1
			for ; i > base && sc.H(out[i-1], uid) > d; i-- {
				out[i] = out[i-1]
			}
			out[i] = model.AgentID(l)
		}
		win := out[base:]
		for i := 1; i < len(win); i++ {
			for j := i; j > 0 && win[j-1] > win[j]; j-- {
				win[j-1], win[j] = win[j], win[j-1]
			}
		}
	}
	return out
}

// TestProximityIndexMatchesOldConstruction: every window of every width
// (and the clamped ones outside 1..L) equals the per-user scan's.
func TestProximityIndexMatchesOldConstruction(t *testing.T) {
	fc := workload.DefaultFleetConfig(4)
	fc.NumAgents, fc.NumUsers = 24, 120
	fleet, err := workload.GenerateSyntheticFleet(fc)
	if err != nil {
		t.Fatal(err)
	}
	for _, sc := range []*model.Scenario{windowScenario(t), fleet} {
		for w := sc.NumAgents() + 1; w >= 0; w-- {
			ix := NewProximityIndex(sc, w)
			want := oldProximityIndex(sc, w)
			if ix.Window() != max(1, min(w, sc.NumAgents())) || len(ix.agents) != len(want) {
				t.Fatalf("window %d: index is %d wide over %d entries, want %d entries", w, ix.Window(), len(ix.agents), len(want))
			}
			for i := range want {
				if ix.agents[i] != want[i] {
					t.Fatalf("window %d: entry %d (user %d) = %d, old construction %d", w, i, i/ix.Window(), ix.agents[i], want[i])
				}
			}
		}
	}
}
