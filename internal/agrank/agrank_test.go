package agrank

import (
	"errors"
	"math"
	"testing"

	"vconf/internal/assign"
	"vconf/internal/cost"
	"vconf/internal/model"
)

// fourAgentScenario builds a Fig. 2-flavored instance: four agents where
// agent 1 ("TO") is central (low delay to everyone) and agent 2 ("SG") is
// peripheral but nearest to user 3.
func fourAgentScenario(t *testing.T) *model.Scenario {
	t.Helper()
	b := model.NewBuilder(nil)
	rs := b.Reps()
	r720, _ := rs.ByName("720p")
	for i := 0; i < 4; i++ {
		b.AddAgent(model.Agent{Upload: 1000, Download: 1000, TranscodeSlots: 8})
	}
	s := b.AddSession("s")
	for i := 0; i < 4; i++ {
		b.AddUser("u", s, r720, nil)
	}
	// Agent 1 is the hub: cheap to everyone. Agent 2 is far from 0 and 3.
	b.SetInterAgentDelays([][]float64{
		{0, 30, 117, 81},
		{30, 0, 45, 60},
		{117, 45, 0, 181},
		{81, 60, 181, 0},
	})
	// Users 0,1,2 nearest agents 0,1,2; user 3's nearest is agent 2 (20 ms)
	// then agent 1 (27 ms) — the Fig. 2 situation.
	b.SetAgentUserDelays([][]float64{
		{10, 60, 90, 75},
		{55, 8, 40, 27},
		{90, 42, 12, 20},
		{95, 70, 140, 160},
	})
	sc, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return sc
}

func TestOptionsValidation(t *testing.T) {
	sc := fourAgentScenario(t)
	a := assign.New(sc)
	ledger := cost.NewLedger(sc)
	p := cost.DefaultParams()
	bad := []Options{
		{NNgbr: 0, Damping: 0.85, Epsilon: 1e-9, MaxIters: 10},
		{NNgbr: 5, Damping: 0.85, Epsilon: 1e-9, MaxIters: 10},
		{NNgbr: 2, Damping: 1.0, Epsilon: 1e-9, MaxIters: 10},
		{NNgbr: 2, Damping: -0.1, Epsilon: 1e-9, MaxIters: 10},
		{NNgbr: 2, Damping: 0.85, Epsilon: 0, MaxIters: 10},
		{NNgbr: 2, Damping: 0.85, Epsilon: 1e-9, MaxIters: 0},
	}
	for _, o := range bad {
		if _, err := BootstrapSession(a, 0, p, ledger, o); err == nil {
			t.Fatalf("BootstrapSession accepted invalid options %+v", o)
		}
	}
}

func TestRankIsProbabilityVector(t *testing.T) {
	sc := fourAgentScenario(t)
	for _, damping := range []float64{0.85, 0} {
		a := assign.New(sc)
		ledger := cost.NewLedger(sc)
		opts := DefaultOptions(2)
		opts.Damping = damping
		res, err := BootstrapSession(a, 0, cost.DefaultParams(), ledger, opts)
		if err != nil {
			t.Fatalf("damping %v: %v", damping, err)
		}
		sum := 0.0
		for _, l := range res.Potential {
			r := res.Rank[l]
			if r < 0 || math.IsNaN(r) {
				t.Fatalf("damping %v: rank[%d] = %v", damping, l, r)
			}
			sum += r
		}
		if math.Abs(sum-1) > 1e-6 {
			t.Fatalf("damping %v: ranks sum to %v, want 1", damping, sum)
		}
		if res.Iterations < 1 {
			t.Fatalf("damping %v: no iterations ran", damping)
		}
	}
}

func TestHubAgentOutranksPeriphery(t *testing.T) {
	sc := fourAgentScenario(t)
	a := assign.New(sc)
	opts := DefaultOptions(2)
	res, err := BootstrapSession(a, 0, cost.DefaultParams(), cost.NewLedger(sc), opts)
	if err != nil {
		t.Fatal(err)
	}
	// Agent 1 has the lowest delays to everyone; with equal resources its
	// rank must top every other candidate.
	for _, l := range res.Potential {
		if l != 1 && res.Rank[1] < res.Rank[l] {
			t.Fatalf("hub agent 1 (rank %v) outranked by agent %d (rank %v)",
				res.Rank[1], l, res.Rank[l])
		}
	}
	// The Fig. 2 effect: user 3's nearest agent is 2, but with n_ngbr = 2
	// AgRank pulls it to the better-connected agent 1.
	if got := a.UserAgent(3); got != 1 {
		t.Fatalf("user 3 assigned to %d, want hub agent 1", got)
	}
}

func TestNngbrOneFollowsProximity(t *testing.T) {
	sc := fourAgentScenario(t)
	a := assign.New(sc)
	_, err := BootstrapSession(a, 0, cost.DefaultParams(), cost.NewLedger(sc), DefaultOptions(1))
	if err != nil {
		t.Fatal(err)
	}
	// With a single candidate per user the assignment equals Nrst.
	for u := 0; u < sc.NumUsers(); u++ {
		want := sc.NearestAgent(model.UserID(u))
		if got := a.UserAgent(model.UserID(u)); got != want {
			t.Fatalf("nngbr=1: user %d at %d, want nearest %d", u, got, want)
		}
	}
}

func TestResourceAwareSeedPrefersIdleAgent(t *testing.T) {
	// Two agents equidistant from everything; agent 0's capacity is mostly
	// consumed in the ledger, so AgRank must steer the session to agent 1.
	b := model.NewBuilder(nil)
	rs := b.Reps()
	r720, _ := rs.ByName("720p")
	for i := 0; i < 2; i++ {
		b.AddAgent(model.Agent{Upload: 100, Download: 100, TranscodeSlots: 4})
	}
	s := b.AddSession("s")
	b.AddUser("a", s, r720, nil)
	b.AddUser("b", s, r720, nil)
	b.SetInterAgentDelays([][]float64{{0, 10}, {10, 0}})
	b.SetAgentUserDelays([][]float64{{5, 5}, {5, 5}})
	sc, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}

	ledger := cost.NewLedger(sc)
	// Pre-consume 90% of agent 0.
	pre := cost.NewSparseLoad(2)
	pre.AddAt(0, 90, 90, 0, 3)
	ledger.Add(pre)

	a := assign.New(sc)
	res, err := BootstrapSession(a, 0, cost.DefaultParams(), ledger, DefaultOptions(2))
	if err != nil {
		t.Fatal(err)
	}
	if res.Rank[1] <= res.Rank[0] {
		t.Fatalf("idle agent 1 (rank %v) should outrank drained agent 0 (rank %v)",
			res.Rank[1], res.Rank[0])
	}
	for u := 0; u < 2; u++ {
		if got := a.UserAgent(model.UserID(u)); got != 1 {
			t.Fatalf("user %d at %d, want idle agent 1", u, got)
		}
	}
}

// transcodeScenario: source u0 (1080p) with destinations demanding reps per
// the demands map; all users equidistant from both agents so ranking noise
// cannot flip placements.
func transcodeScenario(t *testing.T, demands map[int]string) (*model.Scenario, model.UserID) {
	t.Helper()
	b := model.NewBuilder(nil)
	rs := b.Reps()
	r1080, _ := rs.ByName("1080p")
	for i := 0; i < 2; i++ {
		b.AddAgent(model.Agent{Upload: 1000, Download: 1000, TranscodeSlots: 8})
	}
	s := b.AddSession("s")
	u0 := b.AddUser("src", s, r1080, nil)
	ids := make([]model.UserID, 0, len(demands))
	for range demands {
		ids = append(ids, b.AddUser("dst", s, r1080, nil))
	}
	i := 0
	for _, repName := range demands {
		r, _ := rs.ByName(repName)
		b.DemandFrom(ids[i], u0, r)
		i++
	}
	n := 1 + len(demands)
	h := make([][]float64, 2)
	for l := range h {
		h[l] = make([]float64, n)
		for u := range h[l] {
			h[l][u] = 5
		}
	}
	b.SetAgentUserDelays(h)
	b.SetInterAgentDelays([][]float64{{0, 10}, {10, 0}})
	sc, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return sc, u0
}

func TestRuleOfThumbSharedRepAtSource(t *testing.T) {
	sc, u0 := transcodeScenario(t, map[int]string{1: "360p", 2: "360p"})
	a := assign.New(sc)
	if _, err := BootstrapSession(a, 0, cost.DefaultParams(), cost.NewLedger(sc), DefaultOptions(2)); err != nil {
		t.Fatal(err)
	}
	srcAgent := a.UserAgent(u0)
	for _, f := range a.SessionFlows(0) {
		if m, _ := a.FlowAgent(f); m != srcAgent {
			t.Fatalf("shared-rep flow %v transcoded at %d, want source agent %d", f, m, srcAgent)
		}
	}
}

func TestRuleOfThumbSingleDestAtDestination(t *testing.T) {
	sc, _ := transcodeScenario(t, map[int]string{1: "360p"})
	a := assign.New(sc)
	if _, err := BootstrapSession(a, 0, cost.DefaultParams(), cost.NewLedger(sc), DefaultOptions(2)); err != nil {
		t.Fatal(err)
	}
	flows := a.SessionFlows(0)
	if len(flows) != 1 {
		t.Fatalf("flows = %d, want 1", len(flows))
	}
	dstAgent := a.UserAgent(flows[0].Dst)
	if m, _ := a.FlowAgent(flows[0]); m != dstAgent {
		t.Fatalf("single-dest flow transcoded at %d, want destination agent %d", m, dstAgent)
	}
}

func TestTranscodingFallbackWhenPreferredFull(t *testing.T) {
	// Preferred transcoder (destination agent) has zero slots; AgRank must
	// fall back to the other agent instead of failing.
	b := model.NewBuilder(nil)
	rs := b.Reps()
	r360, _ := rs.ByName("360p")
	r1080, _ := rs.ByName("1080p")
	b.AddAgent(model.Agent{Upload: 1000, Download: 1000, TranscodeSlots: 8})
	b.AddAgent(model.Agent{Upload: 1000, Download: 1000, TranscodeSlots: 0})
	s := b.AddSession("s")
	u0 := b.AddUser("src", s, r1080, nil)
	u1 := b.AddUser("dst", s, r1080, nil)
	b.DemandFrom(u1, u0, r360)
	// u0 near agent 0, u1 near agent 1.
	b.SetAgentUserDelays([][]float64{{5, 50}, {50, 5}})
	b.SetInterAgentDelays([][]float64{{0, 10}, {10, 0}})
	sc, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	a := assign.New(sc)
	if _, err := BootstrapSession(a, 0, cost.DefaultParams(), cost.NewLedger(sc), DefaultOptions(1)); err != nil {
		t.Fatalf("BootstrapSession: %v", err)
	}
	f := a.SessionFlows(0)[0]
	if m, _ := a.FlowAgent(f); m != 0 {
		t.Fatalf("transcoder at %d, want fallback agent 0 (agent 1 has no slots)", m)
	}
}

func TestBootstrapRollsBackOnImpossibleSession(t *testing.T) {
	// No agent has transcoding slots: the session cannot be admitted at all.
	b := model.NewBuilder(nil)
	rs := b.Reps()
	r360, _ := rs.ByName("360p")
	r1080, _ := rs.ByName("1080p")
	for i := 0; i < 2; i++ {
		b.AddAgent(model.Agent{Upload: 1000, Download: 1000, TranscodeSlots: 0})
	}
	s := b.AddSession("s")
	u0 := b.AddUser("src", s, r1080, nil)
	u1 := b.AddUser("dst", s, r1080, nil)
	b.DemandFrom(u1, u0, r360)
	sc, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	a := assign.New(sc)
	ledger := cost.NewLedger(sc)
	err = Bootstrap(a, cost.DefaultParams(), ledger, DefaultOptions(2))
	if !errors.Is(err, ErrInfeasible) {
		t.Fatalf("Bootstrap error = %v, want ErrInfeasible", err)
	}
	for u := 0; u < sc.NumUsers(); u++ {
		if a.UserAgent(model.UserID(u)) != assign.Unassigned {
			t.Fatal("failed session not rolled back")
		}
	}
	down, up, tasks := ledger.Usage()
	for l := range down {
		if down[l] != 0 || up[l] != 0 || tasks[l] != 0 {
			t.Fatal("ledger polluted after failed bootstrap")
		}
	}
}

func TestBootstrapProducesFeasibleAssignment(t *testing.T) {
	sc := fourAgentScenario(t)
	a := assign.New(sc)
	p := cost.DefaultParams()
	if err := Bootstrap(a, p, cost.NewLedger(sc), DefaultOptions(3)); err != nil {
		t.Fatal(err)
	}
	ev, err := cost.NewEvaluator(sc, p)
	if err != nil {
		t.Fatal(err)
	}
	if err := ev.CheckFeasible(a); err != nil {
		t.Fatalf("CheckFeasible: %v", err)
	}
}

func TestLargerNngbrNeverHurtsAdmission(t *testing.T) {
	// With agent capacities that cannot take both users of a session at
	// their shared nearest agent, n_ngbr = 1 (no alternatives) must fail
	// while n_ngbr = 2 succeeds by spilling to the second candidate.
	b := model.NewBuilder(nil)
	rs := b.Reps()
	r1080, _ := rs.ByName("1080p")
	// Two 1080p users need 16 Mbps of agent download wherever they land
	// (co-located: two upstreams; split: one upstream + one inter-agent
	// edge). Agent 0 (12 Mbps) can never host either shape; agent 1 can.
	b.AddAgent(model.Agent{Upload: 12, Download: 12, TranscodeSlots: 2})
	b.AddAgent(model.Agent{Upload: 100, Download: 100, TranscodeSlots: 2})
	s := b.AddSession("s")
	b.AddUser("a", s, r1080, nil)
	b.AddUser("b", s, r1080, nil)
	b.SetInterAgentDelays([][]float64{{0, 10}, {10, 0}})
	// Both users nearest agent 0.
	b.SetAgentUserDelays([][]float64{{5, 5}, {9, 9}})
	sc, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}

	a1 := assign.New(sc)
	err1 := Bootstrap(a1, cost.DefaultParams(), cost.NewLedger(sc), DefaultOptions(1))
	if !errors.Is(err1, ErrInfeasible) {
		t.Fatalf("nngbr=1 error = %v, want ErrInfeasible", err1)
	}

	a2 := assign.New(sc)
	if err := Bootstrap(a2, cost.DefaultParams(), cost.NewLedger(sc), DefaultOptions(2)); err != nil {
		t.Fatalf("nngbr=2 should admit via the second candidate: %v", err)
	}
	// Only agent 1 can absorb the session in any shape.
	if a2.UserAgent(0) != 1 || a2.UserAgent(1) != 1 {
		t.Fatalf("users at %d,%d; want both at the big agent 1",
			a2.UserAgent(0), a2.UserAgent(1))
	}
}
