package cost

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"testing"

	"vconf/internal/assign"
	"vconf/internal/model"
)

// Tests of the at-rest form of a load (packedLoad) and of the cache that
// keeps it: the round trip is exact, what ObjectiveCache retains per session
// does not grow with the fleet, a scratch retains nothing per session it
// prepared, and ObjectiveCache.SessionLoad's one-view contract is what its
// comment says.

// sameSparse requires got to be want in every observable: touched order,
// the sorted flag, all four components by bits at every agent of the fleet
// (so a stale agent shows), and mark set exactly on touched.
func sameSparse(t *testing.T, what string, got, want *SparseLoad) {
	t.Helper()
	if !slices.Equal(got.touched, want.touched) || got.sorted != want.sorted {
		t.Fatalf("%s: touched %v sorted=%v, want %v sorted=%v", what, got.touched, got.sorted, want.touched, want.sorted)
	}
	onTouched := make([]bool, len(want.down))
	for _, l := range want.touched {
		onTouched[l] = true
	}
	for l := range want.down {
		if math.Float64bits(got.down[l]) != math.Float64bits(want.down[l]) ||
			math.Float64bits(got.up[l]) != math.Float64bits(want.up[l]) ||
			math.Float64bits(got.inter[l]) != math.Float64bits(want.inter[l]) ||
			got.tasks[l] != want.tasks[l] {
			t.Fatalf("%s: agent %d holds (%v %v %v %d), want (%v %v %v %d)", what, l,
				got.down[l], got.up[l], got.inter[l], got.tasks[l],
				want.down[l], want.up[l], want.inter[l], want.tasks[l])
		}
		if got.mark[l] != onTouched[l] {
			t.Fatalf("%s: mark[%d] = %v with touched %v", what, l, got.mark[l], got.touched)
		}
	}
}

// groupLoad evaluates one placement of the FuzzSessionLoadSparse scenario.
func groupLoad(t *testing.T, sc *model.Scenario, ev *Evaluator, members [5]byte, flows []byte) *SparseLoad {
	t.Helper()
	at := func(b byte) model.AgentID { return model.AgentID(b%(groupAgents+1)) - 1 }
	a := assign.New(sc)
	for u, b := range members {
		a.SetUserAgent(model.UserID(u), at(b))
	}
	for f, fl := range a.Flows() {
		to := assign.Unassigned
		if f < len(flows) {
			to = at(flows[f])
		}
		if err := a.SetFlowAgent(fl, to); err != nil {
			t.Fatal(err)
		}
	}
	out := NewSparseLoad(sc.NumAgents())
	out.CopyFrom(ev.SessionLoadSparse(a, 0, ev.NewScratch()))
	return out
}

func TestPackedLoadRoundTrip(t *testing.T) {
	cases := append(groupCases[:len(groupCases):len(groupCases)], []struct {
		name    string
		members [5]byte
		flows   []byte
	}{
		{"nobody assigned", [5]byte{}, nil},
		{"one member assigned", [5]byte{0, 0, 4, 0, 0}, nil},
		{"members assigned, no flow placed", [5]byte{6, 5, 4, 3, 2}, nil},
		{"two members and one of their flows", [5]byte{2, 0, 5, 0, 0}, []byte{0, 3}},
	}...)
	for flags := byte(0); flags < 4; flags++ {
		sc := groupScenario(t, flags)
		p := DefaultParams()
		p.StrictPaperTraffic = flags&2 != 0
		ev, err := NewEvaluator(sc, p)
		if err != nil {
			t.Fatal(err)
		}
		// One destination for the whole table: every unpack after the first
		// lands on the previous case's load.
		dst := NewSparseLoad(sc.NumAgents())
		var pl packedLoad
		for _, tc := range cases {
			what := fmt.Sprintf("%s/flags=%d", tc.name, flags)
			src := groupLoad(t, sc, ev, tc.members, tc.flows)
			pl.pack(src)
			if len(pl.recs) != len(src.touched) {
				t.Fatalf("%s: %d records for %d touched agents", what, len(pl.recs), len(src.touched))
			}
			pl.unpack(dst)
			sameSparse(t, what, dst, src)
		}
	}
}

// wideFleet builds sessions of four members over a fleet of the given width.
// Each session's members subscribe to three agents spread across the fleet,
// and half of the members demand a transcoded stream.
func wideFleet(t testing.TB, agents, sessions int) (*Evaluator, *assign.Assignment) {
	t.Helper()
	b := model.NewBuilder(nil)
	for l := 0; l < agents; l++ {
		b.AddAgent(model.Agent{Upload: 1e6, Download: 1e6, TranscodeSlots: 1 << 20})
	}
	type member struct {
		u  model.UserID
		on model.AgentID
	}
	var placed []member
	for s := 0; s < sessions; s++ {
		sid := b.AddSession("s")
		var us [4]model.UserID
		for i := range us {
			us[i] = b.AddUser("u", sid, model.Representation((s+i)%b.Reps().Len()), nil)
			placed = append(placed, member{us[i], model.AgentID((s*7 + (i%3)*agents/3) % agents)})
		}
		b.DemandFrom(us[0], us[1], model.Representation(s%b.Reps().Len()))
		b.DemandFrom(us[2], us[3], model.Representation((s+1)%b.Reps().Len()))
	}
	sc, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	ev, err := NewEvaluator(sc, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	a := assign.New(sc)
	for _, m := range placed {
		a.SetUserAgent(m.u, m.on)
	}
	for _, fl := range a.Flows() {
		if err := a.SetFlowAgent(fl, a.UserAgent(fl.Src)); err != nil {
			t.Fatal(err)
		}
	}
	return ev, a
}

// heapGrowth returns how many bytes fill leaves live, per entry: live heap
// after a collection, after minus before. Other goroutines (the runtime's
// own, pools draining) move HeapAlloc by a few kB either way, which is the
// size of the signal, so it reports the median of five rounds; prepare runs
// before each round's first reading and returns that round's fill.
func heapGrowth(entries int, prepare func() (fill func())) float64 {
	live := func() float64 {
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return float64(ms.HeapAlloc)
	}
	var rounds [5]float64
	for i := range rounds {
		fill := prepare()
		before := live()
		fill()
		rounds[i] = (live() - before) / float64(entries)
	}
	slices.Sort(rounds[:])
	return rounds[len(rounds)/2]
}

// TestRetainedLoadsDoNotScaleWithFleet warms the same sessions on a 48-agent
// and on a 768-agent fleet: what the objective cache keeps per session must
// be under 2 kB on both and within 1.5 × of each other (with a fleet-sized
// load per entry it reads ≈ 3.8 kB vs ≈ 51 kB), and a scratch that prepares
// the sessions in turn must keep nothing per session on either (a table of
// per-session delay state read ≈ 300 B per session).
func TestRetainedLoadsDoNotScaleWithFleet(t *testing.T) {
	check := func(t *testing.T, perEntry func(ev *Evaluator, a *assign.Assignment) float64, sessions int) {
		evN, aN := wideFleet(t, 48, sessions)
		evW, aW := wideFleet(t, 768, sessions)
		narrow, wide := perEntry(evN, aN), perEntry(evW, aW)
		t.Logf("%.0f B per session on 48 agents, %.0f B on 768", narrow, wide)
		if narrow <= 0 || narrow >= 2048 || wide <= 0 || wide >= 2048 {
			t.Fatalf("%.0f B and %.0f B retained per session, want under 2 kB (and something)", narrow, wide)
		}
		if r := wide / narrow; r > 1.5 || r < 1/1.5 {
			t.Fatalf("retained bytes scale with the fleet: %.0f B per session on 48 agents, %.0f B on 768", narrow, wide)
		}
	}
	t.Run("prepared state", func(t *testing.T) {
		const sessions = 200
		for _, agents := range []int{48, 768} {
			ev, a := wideFleet(t, agents, sessions)
			scr := ev.NewScratch()
			prepare := func() {
				for s := 0; s < sessions; s++ {
					ev.BeginSession(a, model.SessionID(s), scr)
				}
			}
			prepare() // sizes the scratch's own buffers
			per := heapGrowth(sessions, func() func() { return prepare })
			t.Logf("%.0f B per session on %d agents", per, agents)
			if per > 64 {
				t.Fatalf("preparing %d sessions in turn left %.0f B live per session on %d agents, want nothing",
					sessions, per, agents)
			}
		}
	})
	t.Run("objective cache", func(t *testing.T) {
		const sessions = 200
		check(t, func(ev *Evaluator, a *assign.Assignment) float64 {
			var c *ObjectiveCache
			defer func() { runtime.KeepAlive(c) }()
			return heapGrowth(sessions-1, func() func() {
				c = NewObjectiveCache(ev)
				c.SetActive(0, true)
				c.TotalObjective(a) // sizes the refresh scratch
				return func() {
					for s := 1; s < sessions; s++ {
						c.SetActive(model.SessionID(s), true)
					}
					c.TotalObjective(a)
				}
			})
		}, sessions)
	})
}

// TestSessionLoadIsOneView pins ObjectiveCache.SessionLoad's contract from
// both sides. What the cache promises: the view is exact for the session
// asked for, whatever it held before, and nothing but the next SessionLoad
// call changes it. What the caller must not do: keep the result across
// another SessionLoad call — the overwrite block shows that such a caller
// is reading the other session's load, which in the orchestrator (whose every
// use feeds the ledger or the touched set) breaks CheckInvariants' ledger
// reconciliation.
func TestSessionLoadIsOneView(t *testing.T) {
	ev, a := wideFleet(t, 48, 3)
	scr := ev.NewScratch()
	fresh := func(s model.SessionID) *SparseLoad {
		sl := NewSparseLoad(ev.Scenario().NumAgents())
		ev.BeginSession(a, s, scr) // phiFromSparse sorts, as a refresh does
		sl.CopyFrom(scr.CurLoad())
		return sl
	}
	c := NewObjectiveCache(ev)
	for s := model.SessionID(0); s < 3; s++ {
		c.SetActive(s, true)
	}

	v0 := c.SessionLoad(a, 0)
	sameSparse(t, "session 0", v0, fresh(0))
	held := NewSparseLoad(48)
	held.CopyFrom(v0)

	// Everything but SessionLoad leaves the view alone.
	c.Invalidate(1)
	c.TotalObjective(a)
	c.Prime(2, c.SessionObjective(a, 2), fresh(2))
	c.SetActive(0, false)
	sameSparse(t, "view after refresh, Prime and the session's own departure", v0, held)

	// The next call overwrites it, for any session, with no agent left over.
	v1 := c.SessionLoad(a, 1)
	if v1 != v0 {
		t.Fatal("SessionLoad handed out a second view")
	}
	sameSparse(t, "session 1 over session 0's view", v1, fresh(1))
	if slices.Equal(v0.touched, held.touched) {
		t.Fatal("fixture: sessions 0 and 1 load the same agents, the overwrite is not visible")
	}

	// A departed session's record is emptied and serves its re-arrival.
	if n := len(c.load[0].recs); n != 0 || cap(c.load[0].recs) == 0 {
		t.Fatalf("departed session keeps %d records (cap %d), want 0 with its capacity", n, cap(c.load[0].recs))
	}
	c.SetActive(0, true)
	sameSparse(t, "session 0 re-arrived", c.SessionLoad(a, 0), held)
}

// TestWarmBeginSessionHitZeroAllocs: once the scratch's buffers are sized,
// BeginSession allocates nothing, whether it rebuilds another session, reuses
// the session it holds or patches it.
func TestWarmBeginSessionHitZeroAllocs(t *testing.T) {
	ev, a := wideFleet(t, 96, 8)
	scr := ev.NewScratch()
	for s := model.SessionID(0); s < 8; s++ {
		ev.BeginSession(a, s, scr)
	}
	s := model.SessionID(0)
	if allocs := testing.AllocsPerRun(200, func() { ev.BeginSession(a, s, scr); s = (s + 1) % 8 }); allocs != 0 {
		t.Fatalf("rebuild allocates %.1f times", allocs)
	}
	if allocs := testing.AllocsPerRun(200, func() { ev.BeginSession(a, 3, scr) }); allocs != 0 {
		t.Fatalf("hit allocates %.1f times", allocs)
	}
	u := ev.Scenario().Session(3).Users[0]
	home, away := a.UserAgent(u), a.UserAgent(ev.Scenario().Session(3).Users[1])
	if allocs := testing.AllocsPerRun(200, func() {
		home, away = away, home
		a.SetUserAgent(u, home)
		ev.BeginSession(a, 3, scr)
	}); allocs != 0 {
		t.Fatalf("warm patch allocates %.1f times", allocs)
	}
}

// BenchmarkBeginSessionCold times a rebuild: invalidate, then BeginSession.
// Once the scratch's buffers are sized it allocates nothing on any fleet:
// the scratch keeps one session's state, not one per session.
func BenchmarkBeginSessionCold(b *testing.B) {
	for _, agents := range []int{96, 384} {
		b.Run(fmt.Sprintf("agents=%d", agents), func(b *testing.B) {
			const sessions = 64
			ev, a := wideFleet(b, agents, sessions)
			scr := ev.NewScratch()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s := model.SessionID(i % sessions)
				scr.InvalidateDelay(s)
				ev.BeginSession(a, s, scr)
			}
		})
	}
}
