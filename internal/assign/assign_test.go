package assign

import (
	"math/rand"
	"testing"
	"testing/quick"

	"vconf/internal/model"
)

// twoSessionScenario: session 0 = {u0 (1080p), u1 (720p)} with u1 demanding
// 360p of u0 (one transcoding flow); session 1 = {u2, u3} both 720p; 3 agents.
func twoSessionScenario(t *testing.T) *model.Scenario {
	t.Helper()
	b := model.NewBuilder(nil)
	rs := b.Reps()
	r360, _ := rs.ByName("360p")
	r720, _ := rs.ByName("720p")
	r1080, _ := rs.ByName("1080p")
	for i := 0; i < 3; i++ {
		b.AddAgent(model.Agent{Name: "a", Upload: 1000, Download: 1000, TranscodeSlots: 8})
	}
	s0 := b.AddSession("s0")
	u0 := b.AddUser("u0", s0, r1080, nil)
	u1 := b.AddUser("u1", s0, r720, nil)
	b.DemandFrom(u1, u0, r360)
	s1 := b.AddSession("s1")
	b.AddUser("u2", s1, r720, nil)
	b.AddUser("u3", s1, r720, nil)
	sc, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return sc
}

func TestNewAssignmentStartsUnassigned(t *testing.T) {
	sc := twoSessionScenario(t)
	a := New(sc)
	if a.Complete() {
		t.Fatal("fresh assignment reports Complete")
	}
	for u := 0; u < sc.NumUsers(); u++ {
		if a.UserAgent(model.UserID(u)) != Unassigned {
			t.Fatalf("user %d assigned at birth", u)
		}
	}
	if len(a.Flows()) != 1 {
		t.Fatalf("flows = %d, want 1", len(a.Flows()))
	}
}

func TestCompleteAndSessionComplete(t *testing.T) {
	sc := twoSessionScenario(t)
	a := New(sc)
	a.SetUserAgent(0, 0)
	a.SetUserAgent(1, 1)
	if a.SessionComplete(0) {
		t.Fatal("session 0 complete without its flow assigned")
	}
	if err := a.SetFlowAgent(model.Flow{Src: 0, Dst: 1}, 2); err != nil {
		t.Fatalf("SetFlowAgent: %v", err)
	}
	if !a.SessionComplete(0) {
		t.Fatal("session 0 should be complete")
	}
	if a.Complete() {
		t.Fatal("assignment complete with session 1 unassigned")
	}
	a.SetUserAgent(2, 0)
	a.SetUserAgent(3, 0)
	if !a.Complete() {
		t.Fatal("assignment should be complete")
	}
}

func TestSetFlowAgentRejectsNonTranscodingFlow(t *testing.T) {
	sc := twoSessionScenario(t)
	a := New(sc)
	if err := a.SetFlowAgent(model.Flow{Src: 2, Dst: 3}, 0); err == nil {
		t.Fatal("SetFlowAgent accepted a non-transcoding flow")
	}
	if _, ok := a.FlowAgent(model.Flow{Src: 2, Dst: 3}); ok {
		t.Fatal("FlowAgent reported a non-transcoding flow")
	}
}

func TestCloneIsDeep(t *testing.T) {
	sc := twoSessionScenario(t)
	a := New(sc)
	a.SetUserAgent(0, 1)
	b := a.Clone()
	b.SetUserAgent(0, 2)
	if a.UserAgent(0) != 1 {
		t.Fatal("mutating clone leaked into original (users)")
	}
	f := model.Flow{Src: 0, Dst: 1}
	if err := b.SetFlowAgent(f, 2); err != nil {
		t.Fatalf("SetFlowAgent: %v", err)
	}
	if l, _ := a.FlowAgent(f); l != Unassigned {
		t.Fatal("mutating clone leaked into original (flows)")
	}
	if !a.Clone().Equal(a) {
		t.Fatal("clone not Equal to original")
	}
}

func TestApplyAndInverse(t *testing.T) {
	sc := twoSessionScenario(t)
	a := New(sc)
	a.SetUserAgent(0, 0)
	inv, err := a.Apply(Decision{Kind: UserMove, User: 0, To: 2})
	if err != nil {
		t.Fatalf("Apply: %v", err)
	}
	if a.UserAgent(0) != 2 {
		t.Fatalf("UserAgent(0) = %d after apply, want 2", a.UserAgent(0))
	}
	if _, err := a.Apply(inv); err != nil {
		t.Fatalf("Apply(inverse): %v", err)
	}
	if a.UserAgent(0) != 0 {
		t.Fatal("inverse did not restore user agent")
	}

	f := model.Flow{Src: 0, Dst: 1}
	if err := a.SetFlowAgent(f, 1); err != nil {
		t.Fatal(err)
	}
	inv, err = a.Apply(Decision{Kind: FlowMove, Flow: f, To: 0})
	if err != nil {
		t.Fatalf("Apply(flow): %v", err)
	}
	if l, _ := a.FlowAgent(f); l != 0 {
		t.Fatalf("FlowAgent = %d, want 0", l)
	}
	if _, err := a.Apply(inv); err != nil {
		t.Fatal(err)
	}
	if l, _ := a.FlowAgent(f); l != 1 {
		t.Fatal("inverse did not restore flow agent")
	}
}

func TestApplyErrors(t *testing.T) {
	sc := twoSessionScenario(t)
	a := New(sc)
	if _, err := a.Apply(Decision{Kind: UserMove, User: 99, To: 0}); err == nil {
		t.Fatal("Apply accepted unknown user")
	}
	if _, err := a.Apply(Decision{Kind: FlowMove, Flow: model.Flow{Src: 2, Dst: 3}, To: 0}); err == nil {
		t.Fatal("Apply accepted non-transcoding flow")
	}
	if _, err := a.Apply(Decision{}); err == nil {
		t.Fatal("Apply accepted zero decision")
	}
}

func TestSessionNeighborDecisions(t *testing.T) {
	sc := twoSessionScenario(t)
	a := New(sc)
	a.SetUserAgent(0, 0)
	a.SetUserAgent(1, 0)
	if err := a.SetFlowAgent(model.Flow{Src: 0, Dst: 1}, 0); err != nil {
		t.Fatal(err)
	}
	ds := a.AppendSessionNeighborDecisions(nil, 0)
	// 2 users × 2 other agents + 1 flow × 2 other agents = 6.
	if len(ds) != 6 {
		t.Fatalf("neighbors = %d, want 6", len(ds))
	}
	// Every neighbor differs from the current state in exactly one variable.
	for _, d := range ds {
		b := a.Clone()
		if _, err := b.Apply(d); err != nil {
			t.Fatalf("Apply(%v): %v", d, err)
		}
		if got := a.DiffCount(b); got != 1 {
			t.Fatalf("neighbor %v differs in %d variables, want 1", d, got)
		}
	}
	// Session 1 has no transcoding flows: 2 users × 2 agents = 4 neighbors.
	a.SetUserAgent(2, 1)
	a.SetUserAgent(3, 2)
	if got := len(a.AppendSessionNeighborDecisions(nil, 1)); got != 4 {
		t.Fatalf("session 1 neighbors = %d, want 4", got)
	}
}

func TestEncodeDistinguishesStates(t *testing.T) {
	sc := twoSessionScenario(t)
	a := New(sc)
	a.SetUserAgent(0, 0)
	b := a.Clone()
	b.SetUserAgent(0, 1)
	if a.Encode() == b.Encode() {
		t.Fatal("Encode collision between distinct states")
	}
	if a.Encode() != a.Clone().Encode() {
		t.Fatal("Encode not deterministic")
	}
}

func TestStringSmoke(t *testing.T) {
	sc := twoSessionScenario(t)
	a := New(sc)
	if a.String() == "" {
		t.Fatal("String() empty")
	}
	if Decision.String(Decision{Kind: UserMove, User: 1, To: 2}) == "" {
		t.Fatal("Decision.String() empty")
	}
	if (Decision{Kind: FlowMove, Flow: model.Flow{Src: 0, Dst: 1}, To: 2}).String() == "" {
		t.Fatal("Decision.String() empty")
	}
	if (Decision{}).String() != "invalid decision" {
		t.Fatal("zero Decision should stringify as invalid")
	}
}

// Property: applying a random decision and then its inverse always restores
// the exact state (Equal), and DiffCount after one apply is ≤ 1.
func TestApplyInverseProperty(t *testing.T) {
	sc := twoSessionScenarioQuick()
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := New(sc)
		for u := 0; u < sc.NumUsers(); u++ {
			a.SetUserAgent(model.UserID(u), model.AgentID(rng.Intn(sc.NumAgents())))
		}
		for _, f := range a.Flows() {
			if err := a.SetFlowAgent(f, model.AgentID(rng.Intn(sc.NumAgents()))); err != nil {
				return false
			}
		}
		before := a.Clone()
		var d Decision
		if rng.Intn(2) == 0 {
			d = Decision{Kind: UserMove, User: model.UserID(rng.Intn(sc.NumUsers())),
				To: model.AgentID(rng.Intn(sc.NumAgents()))}
		} else {
			flows := a.Flows()
			d = Decision{Kind: FlowMove, Flow: flows[rng.Intn(len(flows))],
				To: model.AgentID(rng.Intn(sc.NumAgents()))}
		}
		inv, err := a.Apply(d)
		if err != nil {
			return false
		}
		if before.DiffCount(a) > 1 {
			return false
		}
		if _, err := a.Apply(inv); err != nil {
			return false
		}
		return a.Equal(before)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// twoSessionScenarioQuick builds the shared property-test scenario without a
// *testing.T (quick.Check closures run outside test helpers).
func twoSessionScenarioQuick() *model.Scenario {
	b := model.NewBuilder(nil)
	rs := b.Reps()
	r360, _ := rs.ByName("360p")
	r720, _ := rs.ByName("720p")
	r1080, _ := rs.ByName("1080p")
	for i := 0; i < 3; i++ {
		b.AddAgent(model.Agent{Name: "a", Upload: 1000, Download: 1000, TranscodeSlots: 8})
	}
	s0 := b.AddSession("s0")
	u0 := b.AddUser("u0", s0, r1080, nil)
	u1 := b.AddUser("u1", s0, r720, nil)
	b.DemandFrom(u1, u0, r360)
	s1 := b.AddSession("s1")
	b.AddUser("u2", s1, r720, nil)
	b.AddUser("u3", s1, r720, nil)
	sc, err := b.Build()
	if err != nil {
		panic(err)
	}
	return sc
}
