package anneal

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

func smallScenario(t *testing.T, seed int64) (*cost.Evaluator, *assign.Assignment) {
	t.Helper()
	wl := workload.LargeScale(seed)
	wl.NumUsers = 20
	wl.NumUserNodes = 40
	sc, err := workload.Generate(wl)
	if err != nil {
		t.Fatal(err)
	}
	p := cost.DefaultParams()
	ev, err := cost.NewEvaluator(sc, p)
	if err != nil {
		t.Fatal(err)
	}
	a := assign.New(sc)
	if err := baseline.Assign(a, p, cost.NewLedger(sc)); err != nil {
		t.Fatal(err)
	}
	return ev, a
}

func TestSimulatedAnnealingImproves(t *testing.T) {
	ev, start := smallScenario(t, 1)
	startPhi := ev.TotalObjective(start)
	cfg := DefaultAnnealConfig(1)
	cfg.Iterations = 5000
	res, err := SimulatedAnnealing(ev, start, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.BestPhi > startPhi {
		t.Fatalf("annealing worsened: %v → %v", startPhi, res.BestPhi)
	}
	if res.Accepted == 0 {
		t.Fatal("no moves accepted")
	}
	if err := ev.CheckFeasible(res.Assignment); err != nil {
		t.Fatalf("annealed assignment infeasible: %v", err)
	}
	// Reported BestPhi must match a re-evaluation.
	if got := ev.TotalObjective(res.Assignment); got > res.BestPhi+1e-6 {
		t.Fatalf("BestPhi %v but assignment evaluates to %v", res.BestPhi, got)
	}
}

func TestGreedyDescentReachesLocalOptimum(t *testing.T) {
	ev, start := smallScenario(t, 2)
	res, err := GreedyDescent(ev, start, DefaultGreedyConfig())
	if err != nil {
		t.Fatal(err)
	}
	if res.BestPhi > ev.TotalObjective(start) {
		t.Fatal("greedy worsened the objective")
	}
	if err := ev.CheckFeasible(res.Assignment); err != nil {
		t.Fatalf("greedy result infeasible: %v", err)
	}
	// Local optimality: no single-variable move improves any session.
	sc := ev.Scenario()
	p := ev.Params()
	ledger := cost.NewLedger(sc)
	a := res.Assignment
	for s := 0; s < sc.NumSessions(); s++ {
		ledger.Add(p.SessionLoadOf(a, model.SessionID(s)))
	}
	for s := 0; s < sc.NumSessions(); s++ {
		sid := model.SessionID(s)
		cur := p.SessionLoadOf(a, sid)
		ledger.Remove(cur)
		curPhi := ev.SessionObjective(a, sid)
		for _, d := range a.AppendSessionNeighborDecisions(nil, sid) {
			inv, err := a.Apply(d)
			if err != nil {
				t.Fatal(err)
			}
			load := p.SessionLoadOf(a, sid)
			if ledger.Fits(load) && cost.DelayFeasible(a, sid) {
				if phi := ev.SessionObjective(a, sid); phi < curPhi-1e-9 {
					t.Fatalf("session %d still improvable by %v (%v → %v)", s, d, curPhi, phi)
				}
			}
			if _, err := a.Apply(inv); err != nil {
				t.Fatal(err)
			}
		}
		ledger.Add(cur)
	}
}

func TestGreedyFindsExactOptimumOnTinyInstance(t *testing.T) {
	// On the Fig. 3 cube the greedy from any corner must reach the global
	// optimum (the objective is unimodal over the cube for this instance).
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
	p := cost.DefaultParams()
	ev, err := cost.NewEvaluator(sc, p)
	if err != nil {
		t.Fatal(err)
	}
	enum, err := exact.Enumerate(ev, 0)
	if err != nil {
		t.Fatal(err)
	}
	start := assign.New(sc)
	if err := baseline.Assign(start, p, cost.NewLedger(sc)); err != nil {
		t.Fatal(err)
	}
	res, err := GreedyDescent(ev, start, DefaultGreedyConfig())
	if err != nil {
		t.Fatal(err)
	}
	if res.BestPhi > enum.MinPhi+1e-9 {
		t.Fatalf("greedy Φ %v, exact optimum %v", res.BestPhi, enum.MinPhi)
	}
}

func TestAnnealValidation(t *testing.T) {
	ev, start := smallScenario(t, 3)
	bad := []AnnealConfig{
		{Iterations: 0, T0: 1, TEnd: 0.1},
		{Iterations: 10, T0: 0, TEnd: 0.1},
		{Iterations: 10, T0: 1, TEnd: 2},
		{Iterations: 10, T0: 1, TEnd: 0},
	}
	for i, cfg := range bad {
		if _, err := SimulatedAnnealing(ev, start, cfg); err == nil {
			t.Fatalf("case %d: invalid config accepted", i)
		}
	}
	if _, err := GreedyDescent(ev, start, GreedyConfig{MaxRounds: 0}); err == nil {
		t.Fatal("zero rounds accepted")
	}
	incomplete := assign.New(ev.Scenario())
	if _, err := SimulatedAnnealing(ev, incomplete, DefaultAnnealConfig(1)); err == nil {
		t.Fatal("incomplete start accepted by annealing")
	}
	if _, err := GreedyDescent(ev, incomplete, DefaultGreedyConfig()); err == nil {
		t.Fatal("incomplete start accepted by greedy")
	}
}

func TestAnnealingDeterministicPerSeed(t *testing.T) {
	ev, start := smallScenario(t, 4)
	cfg := DefaultAnnealConfig(9)
	cfg.Iterations = 2000
	r1, err := SimulatedAnnealing(ev, start, cfg)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := SimulatedAnnealing(ev, start, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r1.BestPhi != r2.BestPhi || r1.Accepted != r2.Accepted {
		t.Fatal("same seed produced different annealing runs")
	}
}

// TestSolversNeverBeatExactOptimum cross-validates every solver against
// exhaustive enumeration on random tiny instances: each result must be
// feasible and no better than Φ_min (they search the same space), and the
// greedy/annealed results should land within a modest factor of optimal.
func TestSolversNeverBeatExactOptimum(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		sc := tinyScenario(rng)
		p := cost.DefaultParams()
		ev, err := cost.NewEvaluator(sc, p)
		if err != nil {
			t.Fatal(err)
		}
		enum, err := exact.Enumerate(ev, 500000)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		start := assign.New(sc)
		if err := baseline.Assign(start, p, cost.NewLedger(sc)); err != nil {
			t.Fatalf("seed %d bootstrap: %v", seed, err)
		}

		greedy, err := GreedyDescent(ev, start, DefaultGreedyConfig())
		if err != nil {
			t.Fatal(err)
		}
		saCfg := DefaultAnnealConfig(seed)
		saCfg.Iterations = 3000
		sa, err := SimulatedAnnealing(ev, start, saCfg)
		if err != nil {
			t.Fatal(err)
		}
		for name, res := range map[string]*Result{"greedy": greedy, "anneal": sa} {
			if res.BestPhi < enum.MinPhi-1e-9 {
				t.Fatalf("seed %d: %s Φ %v beats exact optimum %v (impossible)",
					seed, name, res.BestPhi, enum.MinPhi)
			}
			if err := ev.CheckFeasible(res.Assignment); err != nil {
				t.Fatalf("seed %d: %s infeasible: %v", seed, name, err)
			}
			if res.BestPhi > enum.MinPhi*2+1e-9 {
				t.Fatalf("seed %d: %s Φ %v more than 2× optimum %v",
					seed, name, res.BestPhi, enum.MinPhi)
			}
		}
	}
}

// tinyScenario builds an enumerable random instance: 2 agents, one session
// of 3 users, ≤ 2 transcoding flows (≤ 2^5 = 32 states).
func tinyScenario(rng *rand.Rand) *model.Scenario {
	b := model.NewBuilder(nil)
	for i := 0; i < 2; i++ {
		b.AddAgent(model.Agent{Upload: 1000, Download: 1000, TranscodeSlots: 6,
			SigmaMS: model.UniformSigma(4, 40)})
	}
	s := b.AddSession("s")
	var ids []model.UserID
	for i := 0; i < 3; i++ {
		ids = append(ids, b.AddUser("u", s, model.Representation(1+rng.Intn(3)), nil))
	}
	// Up to two random downscale demands.
	for i := 0; i < 2; i++ {
		src := ids[rng.Intn(len(ids))]
		dst := ids[rng.Intn(len(ids))]
		if src != dst {
			b.DemandFrom(dst, src, 0) // 360p of whatever the source produces
		}
	}
	d := 20 + float64(rng.Intn(60))
	b.SetInterAgentDelays([][]float64{{0, d}, {d, 0}})
	h := make([][]float64, 2)
	for l := range h {
		h[l] = make([]float64, 3)
		for u := range h[l] {
			h[l][u] = 5 + float64(rng.Intn(40))
		}
	}
	b.SetAgentUserDelays(h)
	sc, err := b.Build()
	if err != nil {
		panic(err)
	}
	return sc
}

// TestAnnealDelayCacheBitIdentical replays SA and greedy descent reusing
// the scratch's prepared state (default) and with the per-iteration
// delay-base rebuild: identical seeds must walk identical chains — same
// accepted-move counts, same objective bits, same final assignment.
func TestAnnealDelayCacheBitIdentical(t *testing.T) {
	ev, start := smallScenario(t, 5)

	cached := DefaultAnnealConfig(5)
	cached.Iterations = 3000
	rebuild := cached
	rebuild.rebuildDelayBase = true
	resC, err := SimulatedAnnealing(ev, start, cached)
	if err != nil {
		t.Fatal(err)
	}
	resR, err := SimulatedAnnealing(ev, start, rebuild)
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(resC.BestPhi) != math.Float64bits(resR.BestPhi) ||
		resC.Accepted != resR.Accepted || resC.Iterations != resR.Iterations {
		t.Fatalf("SA diverged: cached (phi %v, acc %d) vs rebuild (phi %v, acc %d)",
			resC.BestPhi, resC.Accepted, resR.BestPhi, resR.Accepted)
	}
	if !resC.Assignment.Equal(resR.Assignment) {
		t.Fatal("SA final assignments diverged between cached and rebuild delay paths")
	}

	gC, err := GreedyDescent(ev, start, GreedyConfig{MaxRounds: 50})
	if err != nil {
		t.Fatal(err)
	}
	gR, err := GreedyDescent(ev, start, GreedyConfig{MaxRounds: 50, rebuildDelayBase: true})
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(gC.BestPhi) != math.Float64bits(gR.BestPhi) ||
		gC.Accepted != gR.Accepted || gC.Iterations != gR.Iterations {
		t.Fatalf("greedy diverged: cached (phi %v, acc %d, it %d) vs rebuild (phi %v, acc %d, it %d)",
			gC.BestPhi, gC.Accepted, gC.Iterations, gR.BestPhi, gR.Accepted, gR.Iterations)
	}
	if !gC.Assignment.Equal(gR.Assignment) {
		t.Fatal("greedy final assignments diverged between cached and rebuild delay paths")
	}
}
