package core

import (
	"math"
	"math/rand"
	"testing"

	"vconf/internal/assign"
	"vconf/internal/baseline"
	"vconf/internal/cost"
	"vconf/internal/exact"
	"vconf/internal/model"
	"vconf/internal/workload"
)

func newTestRNG(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// fig3Scenario: 1 session, 2 users, 1 transcoding flow, 2 agents — the
// paper's Fig. 3 instance with 8 feasible states.
func fig3Scenario(t testing.TB) *model.Scenario {
	t.Helper()
	b := model.NewBuilder(nil)
	rs := b.Reps()
	r360, _ := rs.ByName("360p")
	r720, _ := rs.ByName("720p")
	for i := 0; i < 2; i++ {
		b.AddAgent(model.Agent{Upload: 1000, Download: 1000, TranscodeSlots: 4,
			SigmaMS: model.UniformSigma(rs.Len(), 40)})
	}
	s := b.AddSession("s")
	b.AddUser("U1", s, r720, nil)
	b.AddUser("U2", s, r720, nil)
	b.DemandFrom(1, 0, r360)
	b.SetInterAgentDelays([][]float64{{0, 25}, {25, 0}})
	b.SetAgentUserDelays([][]float64{{5, 30}, {30, 5}})
	sc, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return sc
}

// multiScenario: nSessions sessions of 3 users each over 3 agents with
// heterogeneous delays, one transcoding flow per session.
func multiScenario(t testing.TB, nSessions int) *model.Scenario {
	t.Helper()
	b := model.NewBuilder(nil)
	rs := b.Reps()
	r360, _ := rs.ByName("360p")
	r720, _ := rs.ByName("720p")
	r1080, _ := rs.ByName("1080p")
	for i := 0; i < 3; i++ {
		b.AddAgent(model.Agent{Upload: 10000, Download: 10000, TranscodeSlots: 50,
			SigmaMS: model.UniformSigma(rs.Len(), 40)})
	}
	var h [][]float64
	for l := 0; l < 3; l++ {
		h = append(h, nil)
	}
	for s := 0; s < nSessions; s++ {
		sid := b.AddSession("s")
		u0 := b.AddUser("a", sid, r1080, nil)
		u1 := b.AddUser("b", sid, r720, nil)
		b.AddUser("c", sid, r720, nil)
		b.DemandFrom(u1, u0, r360)
		// Spread users across agent affinities deterministically.
		for l := 0; l < 3; l++ {
			for k := 0; k < 3; k++ {
				d := 10.0 + 20*float64((l+k+s)%3)
				h[l] = append(h[l], d)
			}
		}
	}
	b.SetAgentUserDelays(h)
	b.SetInterAgentDelays([][]float64{
		{0, 30, 60},
		{30, 0, 90},
		{60, 90, 0},
	})
	sc, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return sc
}

func newEval(t testing.TB, sc *model.Scenario) *cost.Evaluator {
	t.Helper()
	ev, err := cost.NewEvaluator(sc, cost.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	return ev
}

func nrstBoot(p cost.Params) Bootstrapper {
	return func(a *assign.Assignment, s model.SessionID, ledger cost.LedgerAPI) error {
		return baseline.AssignSessionNearest(a, s, p, ledger)
	}
}

func TestConfigValidate(t *testing.T) {
	good := DefaultConfig(1)
	if err := good.Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	bad := []func(*Config){
		func(c *Config) { c.Beta = 0 },
		func(c *Config) { c.Beta = -1 },
		func(c *Config) { c.ObjectiveScale = 0 },
		func(c *Config) { c.MeanCountdownS = 0 },
		func(c *Config) { c.Mode = 0 },
	}
	for i, mutate := range bad {
		c := DefaultConfig(1)
		mutate(&c)
		if err := c.Validate(); err == nil {
			t.Fatalf("case %d: invalid config accepted", i)
		}
	}
}

func TestHopPreservesFeasibilityAndLedger(t *testing.T) {
	sc := multiScenario(t, 4)
	ev := newEval(t, sc)
	p := ev.Params()
	a := assign.New(sc)
	ledger := cost.NewLedger(sc)
	if err := baseline.Assign(a, p, ledger); err != nil {
		t.Fatalf("bootstrap: %v", err)
	}
	cfg := DefaultConfig(7)
	eng, err := NewEngine(ev, cfg)
	if err != nil {
		t.Fatal(err)
	}
	_ = eng // engine tested below; here exercise HopSessionWith directly
	rng := newTestRNG(7)
	scr := NewHopScratch(ev)
	for i := 0; i < 200; i++ {
		s := model.SessionID(i % sc.NumSessions())
		if _, err := HopSessionWith(a, s, ev, ledger, cfg, rng, scr); err != nil {
			t.Fatalf("hop %d: %v", i, err)
		}
	}
	if err := ev.CheckFeasible(a); err != nil {
		t.Fatalf("infeasible after hops: %v", err)
	}
	// Ledger must equal the freshly recomputed global load.
	fresh := cost.NewLedger(sc)
	for s := 0; s < sc.NumSessions(); s++ {
		fresh.Add(p.SessionLoadOf(a, model.SessionID(s)))
	}
	gd, gu, gt := ledger.Usage()
	fd, fu, ft := fresh.Usage()
	for l := range gd {
		if math.Abs(gd[l]-fd[l]) > 1e-6 || math.Abs(gu[l]-fu[l]) > 1e-6 || gt[l] != ft[l] {
			t.Fatalf("ledger drift at agent %d: (%v,%v,%d) vs (%v,%v,%d)",
				l, gd[l], gu[l], gt[l], fd[l], fu[l], ft[l])
		}
	}
}

func TestHopWithSingleAgentStays(t *testing.T) {
	b := model.NewBuilder(nil)
	rs := b.Reps()
	r720, _ := rs.ByName("720p")
	b.AddAgent(model.Agent{Upload: 1000, Download: 1000, TranscodeSlots: 4})
	s := b.AddSession("s")
	b.AddUser("a", s, r720, nil)
	b.AddUser("b", s, r720, nil)
	sc, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	ev := newEval(t, sc)
	a := assign.New(sc)
	ledger := cost.NewLedger(sc)
	if err := baseline.Assign(a, ev.Params(), ledger); err != nil {
		t.Fatal(err)
	}
	res, err := HopSessionWith(a, 0, ev, ledger, DefaultConfig(1), newTestRNG(1), NewHopScratch(ev))
	if err != nil {
		t.Fatal(err)
	}
	if res.Moved {
		t.Fatal("single-agent session has no neighbors; must stay")
	}
	if res.Feasible != 0 {
		t.Fatalf("feasible = %d, want 0", res.Feasible)
	}
}

func TestEngineReducesObjectiveFromNrst(t *testing.T) {
	sc := multiScenario(t, 6)
	ev := newEval(t, sc)
	cfg := DefaultConfig(42)
	eng, err := NewEngine(ev, cfg)
	if err != nil {
		t.Fatal(err)
	}
	boot := nrstBoot(ev.Params())
	for s := 0; s < sc.NumSessions(); s++ {
		if err := eng.ActivateSession(model.SessionID(s), boot); err != nil {
			t.Fatal(err)
		}
	}
	initial := eng.Snapshot()
	samples, err := eng.Run(200, 10)
	if err != nil {
		t.Fatal(err)
	}
	final := samples[len(samples)-1]
	if final.TimeS != 200 {
		t.Fatalf("final sample at t=%v, want 200", final.TimeS)
	}
	if final.Objective > initial.Objective {
		t.Fatalf("objective rose: %v → %v", initial.Objective, final.Objective)
	}
	if final.Objective >= initial.Objective*0.95 {
		t.Fatalf("objective barely moved: %v → %v (expected clear optimization)",
			initial.Objective, final.Objective)
	}
	if hops, moved := eng.Hops(); hops == 0 || moved == 0 {
		t.Fatalf("no chain activity: hops=%d moved=%d", hops, moved)
	}
	if err := ev.CheckFeasible(eng.Assignment()); err != nil {
		t.Fatalf("final state infeasible: %v", err)
	}
}

func TestEngineDeterminism(t *testing.T) {
	run := func() []Sample {
		sc := multiScenario(t, 4)
		ev := newEval(t, sc)
		eng, err := NewEngine(ev, DefaultConfig(99))
		if err != nil {
			t.Fatal(err)
		}
		boot := nrstBoot(ev.Params())
		for s := 0; s < sc.NumSessions(); s++ {
			if err := eng.ActivateSession(model.SessionID(s), boot); err != nil {
				t.Fatal(err)
			}
		}
		samples, err := eng.Run(100, 5)
		if err != nil {
			t.Fatal(err)
		}
		return samples
	}
	s1, s2 := run(), run()
	if len(s1) != len(s2) {
		t.Fatalf("sample counts differ: %d vs %d", len(s1), len(s2))
	}
	for i := range s1 {
		if s1[i].TimeS != s2[i].TimeS || s1[i].TrafficMbps != s2[i].TrafficMbps ||
			s1[i].Objective != s2[i].Objective {
			t.Fatalf("sample %d differs across identical seeds", i)
		}
	}
}

func TestEngineDynamicsArrivalDeparture(t *testing.T) {
	sc := multiScenario(t, 5)
	ev := newEval(t, sc)
	eng, err := NewEngine(ev, DefaultConfig(3))
	if err != nil {
		t.Fatal(err)
	}
	boot := nrstBoot(ev.Params())
	// Sessions 0–1 at t=0, 2–4 arrive at t=40, 0 and 2 depart at t=80.
	for s := 0; s < 2; s++ {
		if err := eng.ActivateSession(model.SessionID(s), boot); err != nil {
			t.Fatal(err)
		}
	}
	for s := 2; s < 5; s++ {
		eng.ScheduleArrival(40, model.SessionID(s), boot)
	}
	eng.ScheduleDeparture(80, 0)
	eng.ScheduleDeparture(80, 2)
	samples, err := eng.Run(120, 1)
	if err != nil {
		t.Fatal(err)
	}
	countAt := func(tm float64) int {
		best := -1
		for _, s := range samples {
			if s.TimeS <= tm {
				best = s.ActiveSessions
			}
		}
		return best
	}
	if got := countAt(39); got != 2 {
		t.Fatalf("active at t=39: %d, want 2", got)
	}
	if got := countAt(79); got != 5 {
		t.Fatalf("active at t=79: %d, want 5", got)
	}
	if got := countAt(119); got != 3 {
		t.Fatalf("active at t=119: %d, want 3", got)
	}
	// Departing everything must drain the ledger.
	for _, s := range []model.SessionID{1, 3, 4} {
		if err := eng.DeactivateSession(s); err != nil {
			t.Fatal(err)
		}
	}
	down, up, tasks := eng.Ledger().Usage()
	for l := range down {
		if math.Abs(down[l]) > 1e-6 || math.Abs(up[l]) > 1e-6 || tasks[l] != 0 {
			t.Fatalf("ledger not drained at agent %d", l)
		}
	}
}

func TestEngineDoubleActivateAndBadDeactivate(t *testing.T) {
	sc := multiScenario(t, 2)
	ev := newEval(t, sc)
	eng, err := NewEngine(ev, DefaultConfig(5))
	if err != nil {
		t.Fatal(err)
	}
	boot := nrstBoot(ev.Params())
	if err := eng.ActivateSession(0, boot); err != nil {
		t.Fatal(err)
	}
	if err := eng.ActivateSession(0, boot); err == nil {
		t.Fatal("double activation accepted")
	}
	if err := eng.DeactivateSession(1); err == nil {
		t.Fatal("deactivating inactive session accepted")
	}
}

// TestExactCTMCMatchesAnalyticStationary is the Theorem-1 validation: the
// ExactCTMC engine's time-weighted empirical state occupancy on the Fig. 3
// instance must converge to p*_f = exp(−βΦ_f)/Σexp(−βΦ) (Eq. (9)).
func TestExactCTMCMatchesAnalyticStationary(t *testing.T) {
	sc := fig3Scenario(t)
	ev := newEval(t, sc)
	enum, err := exact.Enumerate(ev, 0)
	if err != nil {
		t.Fatal(err)
	}
	const (
		beta  = 20.0
		scale = 0.01
		horon = 60000.0 // virtual seconds
	)
	want := enum.Stationary(beta, scale)

	cfg := Config{Beta: beta, ObjectiveScale: scale, MeanCountdownS: 1, Mode: ExactCTMC, Seed: 11}
	eng, err := NewEngine(ev, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.ActivateSession(0, nrstBoot(ev.Params())); err != nil {
		t.Fatal(err)
	}

	occupancy := make(map[string]float64, len(enum.States))
	lastT := 0.0
	lastKey := eng.Assignment().Encode()
	eng.OnHop = func(timeS float64, _ model.SessionID, _ HopResult) {
		occupancy[lastKey] += timeS - lastT
		lastT = timeS
		lastKey = eng.Assignment().Encode()
	}
	if _, err := eng.Run(horon, 0); err != nil {
		t.Fatal(err)
	}
	occupancy[lastKey] += horon - lastT

	total := 0.0
	for _, v := range occupancy {
		total += v
	}
	tv := 0.0
	for i, st := range enum.States {
		emp := occupancy[st.Key] / total
		tv += math.Abs(emp - want[i])
	}
	tv /= 2
	if tv > 0.05 {
		t.Fatalf("total variation empirical vs analytic = %.4f, want ≤ 0.05", tv)
	}
}

// TestEmpiricalDetailedBalance: in equilibrium, the expected transition
// counts i→j and j→i are equal (reversibility). Check the busiest pairs.
func TestEmpiricalDetailedBalance(t *testing.T) {
	sc := fig3Scenario(t)
	ev := newEval(t, sc)
	cfg := Config{Beta: 20, ObjectiveScale: 0.01, MeanCountdownS: 1, Mode: ExactCTMC, Seed: 23}
	eng, err := NewEngine(ev, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.ActivateSession(0, nrstBoot(ev.Params())); err != nil {
		t.Fatal(err)
	}
	type edge struct{ from, to string }
	counts := make(map[edge]int)
	lastKey := eng.Assignment().Encode()
	eng.OnHop = func(_ float64, _ model.SessionID, r HopResult) {
		if !r.Moved {
			return
		}
		key := eng.Assignment().Encode()
		counts[edge{lastKey, key}]++
		lastKey = key
	}
	if _, err := eng.Run(60000, 0); err != nil {
		t.Fatal(err)
	}
	checked := 0
	for e, c := range counts {
		rev := counts[edge{e.to, e.from}]
		if c < 300 {
			continue // too few samples for a tight ratio
		}
		checked++
		ratio := float64(c) / float64(rev+1)
		if ratio < 0.8 || ratio > 1.25 {
			t.Fatalf("flux imbalance on %v: %d vs %d", e, c, rev)
		}
	}
	if checked == 0 {
		t.Fatal("no edge accumulated enough transitions to check")
	}
}

func TestEngineWithNoiseStaysFeasible(t *testing.T) {
	sc := multiScenario(t, 4)
	ev := newEval(t, sc)
	cfg := DefaultConfig(17)
	calls := 0
	cfg.Noise = func(phi float64) float64 {
		calls++
		// Deterministic bounded perturbation: ±2 objective units.
		if calls%2 == 0 {
			return phi + 2
		}
		return phi - 2
	}
	eng, err := NewEngine(ev, cfg)
	if err != nil {
		t.Fatal(err)
	}
	boot := nrstBoot(ev.Params())
	for s := 0; s < sc.NumSessions(); s++ {
		if err := eng.ActivateSession(model.SessionID(s), boot); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := eng.Run(150, 0); err != nil {
		t.Fatal(err)
	}
	if calls == 0 {
		t.Fatal("noise function never invoked")
	}
	if err := ev.CheckFeasible(eng.Assignment()); err != nil {
		t.Fatalf("noisy run ended infeasible: %v", err)
	}
}

// TestEngineChurnStorm injects heavy session churn: every session repeatedly
// arrives and departs on a tight schedule while the chain keeps hopping. The
// engine must never corrupt the ledger, leak stale hop events into departed
// generations, or end infeasible.
func TestEngineChurnStorm(t *testing.T) {
	sc := multiScenario(t, 6)
	ev := newEval(t, sc)
	cfg := DefaultConfig(77)
	cfg.MeanCountdownS = 2 // hop fast so stale events exist at every departure
	eng, err := NewEngine(ev, cfg)
	if err != nil {
		t.Fatal(err)
	}
	boot := nrstBoot(ev.Params())
	// Wave 1: all sessions at t=0. Waves of departures and re-arrivals.
	for s := 0; s < sc.NumSessions(); s++ {
		if err := eng.ActivateSession(model.SessionID(s), boot); err != nil {
			t.Fatal(err)
		}
	}
	for wave := 0; wave < 5; wave++ {
		base := float64(10 + wave*20)
		for s := 0; s < sc.NumSessions(); s += 2 {
			eng.ScheduleDeparture(base, model.SessionID(s))
			eng.ScheduleArrival(base+10, model.SessionID(s), boot)
		}
	}
	if _, err := eng.Run(120, 0); err != nil {
		t.Fatalf("churn storm run: %v", err)
	}
	if err := ev.CheckFeasible(eng.Assignment()); err != nil {
		t.Fatalf("infeasible after churn storm: %v", err)
	}
	// Ledger must equal recomputed active loads exactly.
	p := ev.Params()
	fresh := cost.NewLedger(sc)
	for s := 0; s < sc.NumSessions(); s++ {
		fresh.Add(p.SessionLoadOf(eng.Assignment(), model.SessionID(s)))
	}
	fd, fu, ft := fresh.Usage()
	ld, lu, lt := eng.Ledger().Usage()
	for l := range fd {
		if math.Abs(fd[l]-ld[l]) > 1e-6 || math.Abs(fu[l]-lu[l]) > 1e-6 || ft[l] != lt[l] {
			t.Fatalf("ledger drift after churn at agent %d", l)
		}
	}
}

// TestEngineArrivalFailurePropagates: an arrival whose bootstrap cannot fit
// must surface as an error from Run, not silently corrupt state.
func TestEngineArrivalFailurePropagates(t *testing.T) {
	b := model.NewBuilder(nil)
	rs := b.Reps()
	r720, _ := rs.ByName("720p")
	// Capacity fits exactly one session (down = 2 upstreams = 10).
	b.AddAgent(model.Agent{Upload: 12, Download: 12, TranscodeSlots: 2})
	for s := 0; s < 2; s++ {
		sid := b.AddSession("s")
		b.AddUser("a", sid, r720, nil)
		b.AddUser("b", sid, r720, nil)
	}
	sc, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	ev := newEval(t, sc)
	eng, err := NewEngine(ev, DefaultConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	boot := nrstBoot(ev.Params())
	if err := eng.ActivateSession(0, boot); err != nil {
		t.Fatal(err)
	}
	eng.ScheduleArrival(10, 1, boot) // cannot fit
	if _, err := eng.Run(20, 0); err == nil {
		t.Fatal("over-capacity arrival did not propagate an error")
	}
	// Session 0 remains intact and feasible.
	if eng.Assignment().UserAgent(0) == assign.Unassigned {
		t.Fatal("existing session was disturbed by the failed arrival")
	}
}

// TestEngineRepairsAfterCapacityDegradation injects an agent failure: agent
// B's capacity collapses to 5% mid-run. The split placement (each user at
// its nearest agent) is objective-optimal beforehand, so only the repair
// path (Ledger.FitsRepair) can move sessions off the degraded agent; after
// the run no agent may remain over capacity.
func TestEngineRepairsAfterCapacityDegradation(t *testing.T) {
	b := model.NewBuilder(nil)
	rs := b.Reps()
	r720, _ := rs.ByName("720p")
	for i := 0; i < 2; i++ {
		b.AddAgent(model.Agent{Upload: 100, Download: 100, TranscodeSlots: 4})
	}
	// Two sessions of two users; user k is near agent k%2. D is tiny so the
	// split placement beats co-location on the balanced objective.
	for s := 0; s < 2; s++ {
		sid := b.AddSession("s")
		b.AddUser("a", sid, r720, nil)
		b.AddUser("b", sid, r720, nil)
	}
	b.SetInterAgentDelays([][]float64{{0, 5}, {5, 0}})
	b.SetAgentUserDelays([][]float64{
		{10, 40, 10, 40},
		{40, 10, 40, 10},
	})
	sc, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	ev := newEval(t, sc)
	cfg := DefaultConfig(29)
	cfg.MeanCountdownS = 2
	eng, err := NewEngine(ev, cfg)
	if err != nil {
		t.Fatal(err)
	}
	boot := nrstBoot(ev.Params())
	for s := 0; s < sc.NumSessions(); s++ {
		if err := eng.ActivateSession(model.SessionID(s), boot); err != nil {
			t.Fatal(err)
		}
	}
	// Settle. (Alg. 1's HOP always migrates somewhere, so with only two
	// one-variable candidates per session the pre-failure state oscillates
	// between split and co-located placements; the ledger must stay
	// violation-free throughout either way.)
	if _, err := eng.Run(60, 0); err != nil {
		t.Fatal(err)
	}
	if v := eng.Ledger().Violations(); len(v) != 0 {
		t.Fatalf("violations before failure: %v", v)
	}

	// Inject the failure: agent 1 collapses to 5% — capacity 5 is below the
	// 10 Mbps even a single session needs there, so any load on it now
	// violates; only the FitsRepair path can move sessions off.
	if err := eng.DegradeAgent(1, 0.05); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Run(300, 0); err != nil {
		t.Fatal(err)
	}
	if v := eng.Ledger().Violations(); len(v) != 0 {
		t.Fatalf("violations not repaired: %v", v)
	}
	// Everyone must have evacuated the degraded agent; all-at-agent-0 is
	// then the only feasible placement and has no candidate moves, so it is
	// also stable.
	final := eng.Assignment()
	for u := 0; u < sc.NumUsers(); u++ {
		if final.UserAgent(model.UserID(u)) == 1 {
			t.Fatalf("user %d still on the degraded agent", u)
		}
	}

	// Restoring capacity re-opens agent 1: some hop must move a user back.
	if err := eng.DegradeAgent(1, 1); err != nil {
		t.Fatal(err)
	}
	movedBack := false
	eng.OnHop = func(_ float64, _ model.SessionID, r HopResult) {
		if r.Moved && r.Decision.Kind == assign.UserMove && r.Decision.To == 1 {
			movedBack = true
		}
	}
	if _, err := eng.Run(500, 0); err != nil {
		t.Fatal(err)
	}
	if !movedBack {
		t.Fatal("no user returned to the restored agent")
	}
	if v := eng.Ledger().Violations(); len(v) != 0 {
		t.Fatalf("violations after restore: %v", v)
	}
}

func TestLedgerCapacityScaleValidation(t *testing.T) {
	sc := multiScenario(t, 1)
	g := cost.NewLedger(sc)
	if err := g.SetCapacityScale(0, -0.1); err == nil {
		t.Fatal("negative scale accepted")
	}
	if err := g.SetCapacityScale(0, 1.5); err == nil {
		t.Fatal("scale above 1 accepted")
	}
	if err := g.SetCapacityScale(model.AgentID(99), 0.5); err == nil {
		t.Fatal("unknown agent accepted")
	}
	if err := g.SetCapacityScale(0, 0.5); err != nil {
		t.Fatalf("valid scale rejected: %v", err)
	}
}

// TestEnginePoissonChurn drives the engine with a Poisson arrival/departure
// schedule (the continuous generalization of Fig. 5) and checks the standing
// invariants: feasibility at the end, a drained ledger after deactivating
// the survivors, and accurate active-session accounting along the way.
func TestEnginePoissonChurn(t *testing.T) {
	sc := multiScenario(t, 8)
	ev := newEval(t, sc)
	cfg := DefaultConfig(83)
	cfg.MeanCountdownS = 3
	eng, err := NewEngine(ev, cfg)
	if err != nil {
		t.Fatal(err)
	}
	boot := nrstBoot(ev.Params())

	churn, err := workload.PoissonSchedule(workload.ChurnConfig{
		Seed:            83,
		HorizonS:        200,
		ArrivalRatePerS: 0.08,
		MeanHoldS:       50,
		NumSessions:     sc.NumSessions(),
		InitialActive:   3,
	})
	if err != nil {
		t.Fatal(err)
	}
	for s := 0; s < 3; s++ {
		if err := eng.ActivateSession(model.SessionID(s), boot); err != nil {
			t.Fatal(err)
		}
	}
	expected := 3
	for _, e := range churn {
		switch e.Kind {
		case workload.EventArrival:
			eng.ScheduleArrival(e.TimeS, model.SessionID(e.Session), boot)
			expected++
		case workload.EventDeparture:
			eng.ScheduleDeparture(e.TimeS, model.SessionID(e.Session))
			expected--
		}
	}
	samples, err := eng.Run(200, 0)
	if err != nil {
		t.Fatalf("churn run: %v", err)
	}
	final := samples[len(samples)-1]
	if final.ActiveSessions != expected {
		t.Fatalf("active sessions = %d, want %d", final.ActiveSessions, expected)
	}
	// Feasibility of the live system: capacities respected globally, every
	// active session complete and within the delay cap. (Global
	// CheckFeasible does not apply: departed sessions are correctly
	// unassigned.)
	if !eng.Ledger().Fits(nil) {
		t.Fatal("ledger over capacity after churn")
	}
	a := eng.Assignment()
	for sid := range final.PerSession {
		if !a.SessionComplete(sid) {
			t.Fatalf("active session %d incomplete", sid)
		}
		if !cost.DelayFeasible(a, sid) {
			t.Fatalf("active session %d violates the delay cap", sid)
		}
	}
}

// TestPriceHeterogeneitySteersTranscoding: with two otherwise-identical
// tertiary agents, the chain must place the transcoding task at the cheap
// one — the per-agent pricing fields g_l/h_l of §III-D must actually steer
// decisions.
func TestPriceHeterogeneitySteersTranscoding(t *testing.T) {
	b := model.NewBuilder(nil)
	rs := b.Reps()
	r360, _ := rs.ByName("360p")
	r1080, _ := rs.ByName("1080p")
	// Agents 0/1 host the users (zero transcoding slots force a tertiary
	// choice); agents 2 (expensive) and 3 (cheap) are identical otherwise.
	b.AddAgent(model.Agent{Upload: 1000, Download: 1000, TranscodeSlots: 0})
	b.AddAgent(model.Agent{Upload: 1000, Download: 1000, TranscodeSlots: 0})
	b.AddAgent(model.Agent{Upload: 1000, Download: 1000, TranscodeSlots: 4,
		TrafficPricePerMbps: 10, TranscodePricePerTask: 10})
	b.AddAgent(model.Agent{Upload: 1000, Download: 1000, TranscodeSlots: 4,
		TrafficPricePerMbps: 1, TranscodePricePerTask: 1})
	s := b.AddSession("s")
	u0 := b.AddUser("src", s, r1080, nil)
	u1 := b.AddUser("dst", s, r1080, nil)
	b.DemandFrom(u1, u0, r360)
	// Symmetric delays so price is the only differentiator between 2 and 3.
	b.SetInterAgentDelays([][]float64{
		{0, 20, 30, 30},
		{20, 0, 30, 30},
		{30, 30, 0, 40},
		{30, 30, 40, 0},
	})
	b.SetAgentUserDelays([][]float64{
		{5, 50},
		{50, 5},
		{60, 60},
		{60, 60},
	})
	sc, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	ev := newEval(t, sc)
	eng, err := NewEngine(ev, DefaultConfig(37))
	if err != nil {
		t.Fatal(err)
	}
	// Bootstrap by hand: users at their near agents, transcoding at the
	// expensive tertiary agent.
	boot := func(a *assign.Assignment, sid model.SessionID, ledger cost.LedgerAPI) error {
		a.SetUserAgent(u0, 0)
		a.SetUserAgent(u1, 1)
		if err := a.SetFlowAgent(model.Flow{Src: u0, Dst: u1}, 2); err != nil {
			return err
		}
		load := ev.Params().SessionLoadOf(a, sid)
		ledger.Add(load)
		return nil
	}
	if err := eng.ActivateSession(0, boot); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Run(400, 0); err != nil {
		t.Fatal(err)
	}
	// The chain should spend most of its time with the transcoder at the
	// cheap agent 3 (agents 0/1 have no slots; 2 is 10× the price).
	m, _ := eng.Assignment().FlowAgent(model.Flow{Src: u0, Dst: u1})
	if m == 2 {
		t.Fatalf("transcoder left at the expensive agent 2")
	}
}
