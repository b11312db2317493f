package vconf

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"strings"
	"sync"
	"testing"
	"time"

	"vconf/internal/workload"
)

func smallScenario(t *testing.T, seed int64) *Scenario {
	t.Helper()
	wl := LargeScaleWorkload(seed)
	wl.NumUsers = 25
	wl.NumUserNodes = 64
	sc, err := GenerateWorkload(wl)
	if err != nil {
		t.Fatal(err)
	}
	return sc
}

func TestSolverOptimizeImproves(t *testing.T) {
	sc := smallScenario(t, 1)
	solver, err := NewSolver(sc, WithSeed(1), WithInit(InitNearest, 0))
	if err != nil {
		t.Fatal(err)
	}
	res, err := solver.Optimize(120)
	if err != nil {
		t.Fatal(err)
	}
	if res.Report.Objective > res.Initial.Objective {
		t.Fatalf("objective rose: %v → %v", res.Initial.Objective, res.Report.Objective)
	}
	if res.Hops == 0 {
		t.Fatal("no hops")
	}
	if err := solver.CheckFeasible(res.Assignment); err != nil {
		t.Fatalf("final assignment infeasible: %v", err)
	}
	if len(res.Samples) < 2 {
		t.Fatal("missing samples")
	}
}

func TestSolverAgRankBootstrapBeatsNearest(t *testing.T) {
	sc := smallScenario(t, 2)
	ag, err := NewSolver(sc, WithSeed(2)) // default: AgRank#2
	if err != nil {
		t.Fatal(err)
	}
	nrst, err := NewSolver(sc, WithSeed(2), WithInit(InitNearest, 0))
	if err != nil {
		t.Fatal(err)
	}
	aAg, err := ag.Bootstrap()
	if err != nil {
		t.Fatal(err)
	}
	aNrst, err := nrst.Bootstrap()
	if err != nil {
		t.Fatal(err)
	}
	if ag.Evaluate(aAg).InterTraffic >= nrst.Evaluate(aNrst).InterTraffic {
		t.Fatalf("AgRank bootstrap traffic %.1f not below Nrst %.1f",
			ag.Evaluate(aAg).InterTraffic, nrst.Evaluate(aNrst).InterTraffic)
	}
}

func TestSolverOptionValidation(t *testing.T) {
	sc := smallScenario(t, 3)
	bad := [][]Option{
		{WithBeta(0)},
		{WithBeta(-5)},
		{WithObjectiveScale(0)},
		{WithCountdown(0)},
		{WithInit(InitAgRank, 0)},
		{WithInit(InitPolicy(99), 1)},
		{WithParams(Params{})},
	}
	for i, opts := range bad {
		if _, err := NewSolver(sc, opts...); err == nil {
			t.Fatalf("case %d: invalid option accepted", i)
		}
	}
	s, err := NewSolver(sc)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Optimize(0); err == nil {
		t.Fatal("zero duration accepted")
	}
}

func TestSolverParamsPresets(t *testing.T) {
	for _, p := range []Params{DefaultParams(), TrafficOnlyParams(), DelayOnlyParams()} {
		if err := p.Validate(); err != nil {
			t.Fatalf("preset invalid: %v", err)
		}
	}
}

func TestScenarioBuilderRoundTrip(t *testing.T) {
	b := NewScenarioBuilder(nil)
	reps := b.Reps()
	r720, ok := reps.ByName("720p")
	if !ok {
		t.Fatal("720p missing from default set")
	}
	b.AddAgent(Agent{Name: "A", Upload: 100, Download: 100, TranscodeSlots: 2})
	b.AddAgent(Agent{Name: "B", Upload: 100, Download: 100, TranscodeSlots: 2})
	s := b.AddSession("demo")
	b.AddUser("alice", s, r720, nil)
	b.AddUser("bob", s, r720, nil)
	b.SetInterAgentDelays([][]float64{{0, 20}, {20, 0}})
	b.SetAgentUserDelays([][]float64{{5, 40}, {40, 5}})
	sc, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	solver, err := NewSolver(sc)
	if err != nil {
		t.Fatal(err)
	}
	res, err := solver.Optimize(60)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Assignment.Complete() {
		t.Fatal("result incomplete")
	}
	if !res.Report.AllDelayOK {
		t.Fatal("delays over cap")
	}
}

func TestSolverDeterministicAcrossRuns(t *testing.T) {
	sc := smallScenario(t, 4)
	run := func() float64 {
		s, err := NewSolver(sc, WithSeed(7))
		if err != nil {
			t.Fatal(err)
		}
		res, err := s.Optimize(80)
		if err != nil {
			t.Fatal(err)
		}
		return res.Report.Objective
	}
	if run() != run() {
		t.Fatal("identical seeds produced different results")
	}
}

func TestPackageDocMentionsPaper(t *testing.T) {
	// Guard against the doc comment drifting away from the paper reference.
	// (Compile-time presence is enough; this is a smoke check of the public
	// constants.)
	if InitAgRank == InitNearest {
		t.Fatal("init policies must differ")
	}
	if !strings.Contains("ICDCS", "ICDCS") {
		t.Fatal("unreachable")
	}
}

func TestSaveLoadScenarioRoundTrip(t *testing.T) {
	sc := smallScenario(t, 8)
	var buf bytes.Buffer
	if err := SaveScenario(sc, &buf); err != nil {
		t.Fatalf("SaveScenario: %v", err)
	}
	got, err := LoadScenario(&buf)
	if err != nil {
		t.Fatalf("LoadScenario: %v", err)
	}
	if got.NumUsers() != sc.NumUsers() || got.ThetaSum() != sc.ThetaSum() {
		t.Fatal("scenario changed through save/load")
	}
	// The reloaded scenario must be solvable identically.
	s1, err := NewSolver(sc, WithSeed(8))
	if err != nil {
		t.Fatal(err)
	}
	s2, err := NewSolver(got, WithSeed(8))
	if err != nil {
		t.Fatal(err)
	}
	r1, err := s1.Optimize(60)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := s2.Optimize(60)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Report.Objective != r2.Report.Objective {
		t.Fatalf("objective differs after reload: %v vs %v",
			r1.Report.Objective, r2.Report.Objective)
	}
}

// savedFleetDigest is the SHA-256 of SaveScenario's output for the fleet of
// TestSaveScenarioStableBytes, as written when H was a dense matrix.
const savedFleetDigest = "59c524d6b893810e08fb80180a396391d0b74ca92510d425e3f5c7b6e12791d7"

// TestSaveScenarioStableBytes: a small regional synthetic fleet (16 agents,
// so most H cells are recomputed rather than read from a nearest row) saves,
// loads and saves again to the same bytes, and those bytes are pinned.
func TestSaveScenarioStableBytes(t *testing.T) {
	fc := workload.DefaultFleetConfig(3)
	fc.NumAgents, fc.NumUsers, fc.Regions = 16, 48, 3
	sc, err := workload.GenerateSyntheticFleet(fc)
	if err != nil {
		t.Fatal(err)
	}
	var first, second bytes.Buffer
	if err := SaveScenario(sc, &first); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadScenario(bytes.NewReader(first.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if err := SaveScenario(loaded, &second); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first.Bytes(), second.Bytes()) {
		t.Fatal("save → load → save changed the bytes")
	}
	sum := sha256.Sum256(first.Bytes())
	if got := hex.EncodeToString(sum[:]); got != savedFleetDigest {
		t.Fatalf("saved fleet digest = %s, want %s", got, savedFleetDigest)
	}
}

// TestDistributedViaFacade is the dist protocol's TCP smoke test: a
// coordinator on 127.0.0.1:0 and one runner per session dialing it through
// the facade. Every other dist test runs over an in-memory pipe network.
func TestDistributedViaFacade(t *testing.T) {
	sc := smallScenario(t, 9)
	solver, err := NewSolver(sc, WithSeed(9), WithInit(InitNearest, 0), WithCountdown(3))
	if err != nil {
		t.Fatal(err)
	}
	start, err := solver.Bootstrap()
	if err != nil {
		t.Fatal(err)
	}
	coord, err := solver.NewCoordinator(start, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	var wg sync.WaitGroup
	for s := 0; s < sc.NumSessions(); s++ {
		r, err := solver.NewSessionRunner(SessionID(s))
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := r.Run(ctx, DialTCP(coord.Addr()), 5); err != nil {
				t.Errorf("runner %d: %v", s, err)
			}
		}()
	}
	wg.Wait()
	if st := coord.Stats(); st.Grants != 5*sc.NumSessions() || st.Commits == 0 {
		t.Fatalf("stats %+v, want %d grants and some commits", st, 5*sc.NumSessions())
	}
	if err := solver.CheckFeasible(coord.Assignment()); err != nil {
		t.Fatalf("authoritative assignment infeasible: %v", err)
	}
}

func TestFig2ScenarioFacade(t *testing.T) {
	sc, err := Fig2Scenario()
	if err != nil {
		t.Fatal(err)
	}
	if sc.NumUsers() != 4 || sc.NumAgents() != 4 {
		t.Fatalf("fig2 shape %d users %d agents", sc.NumUsers(), sc.NumAgents())
	}
	if sc.D(1, 0) != 67 {
		t.Fatalf("D(TO,OR) = %v, want 67", sc.D(1, 0))
	}
}

func TestRuntimeViaFacade(t *testing.T) {
	sc := smallScenario(t, 10)
	solver, err := NewSolver(sc, WithSeed(10))
	if err != nil {
		t.Fatal(err)
	}
	a, err := solver.Bootstrap()
	if err != nil {
		t.Fatal(err)
	}
	rt, err := solver.NewRuntime(DefaultRuntimeConfig(10))
	if err != nil {
		t.Fatal(err)
	}
	rt.SetAssignment(a)
	tel, err := rt.Tick(1)
	if err != nil {
		t.Fatal(err)
	}
	if tel.ActiveSessions != sc.NumSessions() {
		t.Fatalf("active sessions = %d, want %d", tel.ActiveSessions, sc.NumSessions())
	}
	if tel.FramesRelayed == 0 {
		t.Fatal("no frames relayed")
	}
}
