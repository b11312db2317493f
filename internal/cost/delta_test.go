package cost

import (
	"math"
	"testing"

	"vconf/internal/assign"
	"vconf/internal/model"
)

// deltaScenario builds a small two-session scenario with transcoding flows.
func deltaScenario(t *testing.T) *model.Scenario {
	t.Helper()
	b := model.NewBuilder(nil)
	rs := b.Reps()
	r360, _ := rs.ByName("360p")
	r720, _ := rs.ByName("720p")
	for i := 0; i < 3; i++ {
		b.AddAgent(model.Agent{Upload: 1000, Download: 1000, TranscodeSlots: 8})
	}
	s0 := b.AddSession("s0")
	s1 := b.AddSession("s1")
	u0 := b.AddUser("u0", s0, r720, nil)
	u1 := b.AddUser("u1", s0, r720, nil)
	u2 := b.AddUser("u2", s1, r720, nil)
	u3 := b.AddUser("u3", s1, r720, nil)
	b.DemandFrom(u1, u0, r360) // transcoding flow in session 0
	b.DemandFrom(u3, u2, r720)
	sc, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return sc
}

func fullAssign(t *testing.T, sc *model.Scenario) *assign.Assignment {
	t.Helper()
	a := assign.New(sc)
	for u := 0; u < sc.NumUsers(); u++ {
		a.SetUserAgent(model.UserID(u), model.AgentID(u%sc.NumAgents()))
	}
	for _, f := range a.Flows() {
		if err := a.SetFlowAgent(f, 0); err != nil {
			t.Fatal(err)
		}
	}
	return a
}

func TestTouchedSession(t *testing.T) {
	sc := deltaScenario(t)
	s, err := TouchedSession(sc, assign.Decision{Kind: assign.UserMove, User: 2, To: 1})
	if err != nil || s != 1 {
		t.Fatalf("user move touched = %d, %v; want 1", s, err)
	}
	s, err = TouchedSession(sc, assign.Decision{
		Kind: assign.FlowMove, Flow: model.Flow{Src: 0, Dst: 1}, To: 2,
	})
	if err != nil || s != 0 {
		t.Fatalf("flow move touched = %d, %v; want 0", s, err)
	}
	if _, err := TouchedSession(sc, assign.Decision{}); err == nil {
		t.Fatal("invalid decision accepted")
	}
}

func TestObjectiveCacheMatchesFullEvaluation(t *testing.T) {
	sc := deltaScenario(t)
	ev, err := NewEvaluator(sc, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	a := fullAssign(t, sc)
	c := NewObjectiveCache(ev)
	for s := 0; s < sc.NumSessions(); s++ {
		c.SetActive(model.SessionID(s), true)
	}
	if got, want := c.TotalObjective(a), denseTotal(ev, a); got != want {
		t.Fatalf("cached total %v != full %v", got, want)
	}
	if got, want := ev.TotalObjective(a), denseTotal(ev, a); got != want {
		t.Fatalf("TotalObjective %v != full %v", got, want)
	}

	// Mutate session 1, invalidate only it, and check the cache tracks.
	d := assign.Decision{Kind: assign.UserMove, User: 2, To: 2}
	if _, err := a.Apply(d); err != nil {
		t.Fatal(err)
	}
	touched, err := TouchedSession(sc, d)
	if err != nil {
		t.Fatal(err)
	}
	c.Invalidate(touched)
	if got, want := c.TotalObjective(a), denseTotal(ev, a); got != want {
		t.Fatalf("after move: cached total %v != full %v", got, want)
	}
}

// denseTotal is Φ = Σ_s Φ_s on the reference.
func denseTotal(ev *Evaluator, a *assign.Assignment) float64 {
	total := 0.0
	for s := 0; s < ev.Scenario().NumSessions(); s++ {
		total += sessionObjectiveDense(ev, a, model.SessionID(s))
	}
	return total
}

func TestObjectiveCacheRecomputesOnlyTouched(t *testing.T) {
	sc := deltaScenario(t)
	ev, err := NewEvaluator(sc, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	a := fullAssign(t, sc)
	c := NewObjectiveCache(ev)
	for s := 0; s < sc.NumSessions(); s++ {
		c.SetActive(model.SessionID(s), true)
	}
	c.TotalObjective(a)
	base := c.Recomputes()
	if base != sc.NumSessions() {
		t.Fatalf("initial fill recomputed %d sessions, want %d", base, sc.NumSessions())
	}

	// 10 queries with one invalidation each: exactly one recompute per round.
	for i := 0; i < 10; i++ {
		d := assign.Decision{Kind: assign.UserMove, User: 2, To: model.AgentID(i % sc.NumAgents())}
		if _, err := a.Apply(d); err != nil {
			t.Fatal(err)
		}
		touched, err := TouchedSession(sc, d)
		if err != nil {
			t.Fatal(err)
		}
		c.Invalidate(touched)
		c.TotalObjective(a)
	}
	if got := c.Recomputes() - base; got != 10 {
		t.Fatalf("delta path recomputed %d sessions over 10 single-session moves, want 10", got)
	}
}

func TestObjectiveCacheDeactivation(t *testing.T) {
	sc := deltaScenario(t)
	ev, err := NewEvaluator(sc, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	a := fullAssign(t, sc)
	c := NewObjectiveCache(ev)
	c.SetActive(0, true)
	c.SetActive(1, true)
	total := c.TotalObjective(a)
	phi1 := c.SessionObjective(a, 1)
	c.SetActive(1, false)
	if got := c.TotalObjective(a); math.Abs(got-(total-phi1)) > 1e-9 {
		t.Fatalf("after deactivation total %v, want %v", got, total-phi1)
	}
	if c.SessionObjective(a, 1) != 0 || c.SessionLoad(a, 1) != nil {
		t.Fatal("inactive session still contributes")
	}
	if got := c.ActiveSessions(); len(got) != 1 || got[0] != 0 {
		t.Fatalf("active sessions = %v, want [0]", got)
	}
}

func TestLedgerClone(t *testing.T) {
	sc := deltaScenario(t)
	p := DefaultParams()
	a := fullAssign(t, sc)
	g := NewLedger(sc)
	g.Add(p.SessionLoadOf(a, 0))
	if err := g.SetCapacityScale(1, 0.5); err != nil {
		t.Fatal(err)
	}
	cl := g.Clone()
	// Mutating the clone must not leak into the original.
	cl.Add(p.SessionLoadOf(a, 1))
	if err := cl.SetCapacityScale(1, 1); err != nil {
		t.Fatal(err)
	}
	d1, u1, t1 := g.Usage()
	d2, u2, t2 := cl.Usage()
	same := true
	for l := range d1 {
		if d1[l] != d2[l] || u1[l] != u2[l] || t1[l] != t2[l] {
			same = false
		}
	}
	if same {
		t.Fatal("clone shares usage with original")
	}
	if len(g.Violations()) != 0 {
		t.Fatalf("original ledger unexpectedly violated: %v", g.Violations())
	}
}

// TestSetCapacityScaleRejectsNonFinite pins the scale guard: a NaN or
// infinite factor is refused and leaves the agent's scale untouched.
func TestSetCapacityScaleRejectsNonFinite(t *testing.T) {
	g := NewLedger(deltaScenario(t))
	if err := g.SetCapacityScale(1, 0.5); err != nil {
		t.Fatal(err)
	}
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if err := g.SetCapacityScale(1, bad); err == nil {
			t.Fatalf("scale %v accepted", bad)
		}
		if g.scale[1] != 0.5 {
			t.Fatalf("scale %v overwrote agent 1's scale: %v", bad, g.scale[1])
		}
	}
}
