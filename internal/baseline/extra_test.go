package baseline

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"vconf/internal/assign"
	"vconf/internal/cost"
	"vconf/internal/model"
)

func TestAssignRandomFeasible(t *testing.T) {
	sc, _ := buildScenario(t, 1000, 1000, 4)
	a := assign.New(sc)
	p := cost.DefaultParams()
	ledger := cost.NewLedger(sc)
	if err := AssignRandom(a, p, ledger, 7, 50); err != nil {
		t.Fatalf("AssignRandom: %v", err)
	}
	ev, err := cost.NewEvaluator(sc, p)
	if err != nil {
		t.Fatal(err)
	}
	if err := ev.CheckFeasible(a); err != nil {
		t.Fatalf("random assignment infeasible: %v", err)
	}
}

func TestAssignRandomDeterministicPerSeed(t *testing.T) {
	sc, _ := buildScenario(t, 1000, 1000, 4)
	p := cost.DefaultParams()
	run := func(seed int64) string {
		a := assign.New(sc)
		if err := AssignRandom(a, p, cost.NewLedger(sc), seed, 50); err != nil {
			t.Fatal(err)
		}
		return a.Encode()
	}
	if run(3) != run(3) {
		t.Fatal("same seed produced different assignments")
	}
}

func TestAssignRandomExhaustsTriesOnImpossible(t *testing.T) {
	// Zero transcoding slots everywhere: no draw can ever be feasible.
	sc, _ := buildScenario(t, 1000, 1000, 0)
	a := assign.New(sc)
	rng := rand.New(rand.NewSource(1))
	err := AssignSessionRandom(a, 0, cost.DefaultParams(), cost.NewLedger(sc), rng, 25)
	if !errors.Is(err, ErrInfeasible) {
		t.Fatalf("err = %v, want ErrInfeasible", err)
	}
	if a.UserAgent(0) != assign.Unassigned {
		t.Fatal("failed random admission not rolled back")
	}
}

func TestAssignSingleAgentPicksDelayMinimizer(t *testing.T) {
	// Agent 1 is closer to both users on average: single-agent policy must
	// choose it for the whole session.
	b := model.NewBuilder(nil)
	rs := b.Reps()
	r360, _ := rs.ByName("360p")
	r1080, _ := rs.ByName("1080p")
	b.AddAgent(model.Agent{Upload: 1000, Download: 1000, TranscodeSlots: 4})
	b.AddAgent(model.Agent{Upload: 1000, Download: 1000, TranscodeSlots: 4})
	s := b.AddSession("s")
	u0 := b.AddUser("u0", s, r1080, nil)
	u1 := b.AddUser("u1", s, r1080, nil)
	b.DemandFrom(u1, u0, r360)
	b.SetInterAgentDelays([][]float64{{0, 30}, {30, 0}})
	b.SetAgentUserDelays([][]float64{{50, 60}, {20, 25}})
	sc, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	a := assign.New(sc)
	p := cost.DefaultParams()
	ledger := cost.NewLedger(sc)
	if err := AssignSingleAgent(a, p, ledger); err != nil {
		t.Fatal(err)
	}
	if a.UserAgent(u0) != 1 || a.UserAgent(u1) != 1 {
		t.Fatalf("users at %d/%d, want both at agent 1", a.UserAgent(u0), a.UserAgent(u1))
	}
	if m, _ := a.FlowAgent(model.Flow{Src: u0, Dst: u1}); m != 1 {
		t.Fatalf("transcoder at %d, want co-located agent 1", m)
	}
	// Zero inter-agent traffic by construction.
	if got := p.SessionLoadOf(a, 0).TotalInterTraffic(); got != 0 {
		t.Fatalf("single-agent traffic = %v, want 0", got)
	}
}

func TestAssignSingleAgentRespectsCapacity(t *testing.T) {
	// Agent 1 is delay-best but too small; policy must fall back to agent 0.
	b := model.NewBuilder(nil)
	rs := b.Reps()
	r720, _ := rs.ByName("720p")
	b.AddAgent(model.Agent{Upload: 1000, Download: 1000, TranscodeSlots: 4})
	b.AddAgent(model.Agent{Upload: 6, Download: 6, TranscodeSlots: 4})
	s := b.AddSession("s")
	b.AddUser("u0", s, r720, nil)
	b.AddUser("u1", s, r720, nil)
	b.SetInterAgentDelays([][]float64{{0, 30}, {30, 0}})
	b.SetAgentUserDelays([][]float64{{50, 60}, {20, 25}})
	sc, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	a := assign.New(sc)
	if err := AssignSingleAgent(a, cost.DefaultParams(), cost.NewLedger(sc)); err != nil {
		t.Fatal(err)
	}
	if a.UserAgent(0) != 0 || a.UserAgent(1) != 0 {
		t.Fatal("policy must fall back to the agent with capacity")
	}
}

func TestAssignSingleAgentInfeasible(t *testing.T) {
	sc, _ := buildScenario(t, 6, 6, 4) // no agent can hold the session
	a := assign.New(sc)
	err := AssignSingleAgent(a, cost.DefaultParams(), cost.NewLedger(sc))
	if !errors.Is(err, ErrInfeasible) {
		t.Fatalf("err = %v, want ErrInfeasible", err)
	}
}

// AssignSessionRandom bootstraps session s uniformly at random over agents
// (users and transcoding tasks independently), retrying up to maxTries to
// find a feasible draw. On success the load is added to the ledger.
func AssignSessionRandom(a *assign.Assignment, s model.SessionID, p cost.Params, ledger cost.LedgerAPI, rng *rand.Rand, maxTries int) error {
	sc := a.Scenario()
	if maxTries < 1 {
		maxTries = 1
	}
	scr := cost.GetScratch()
	defer cost.PutScratch(scr)
	for try := 0; try < maxTries; try++ {
		for _, u := range sc.Session(s).Users {
			a.SetUserAgent(u, model.AgentID(rng.Intn(sc.NumAgents())))
		}
		for _, f := range a.SessionFlows(s) {
			if err := a.SetFlowAgent(f, model.AgentID(rng.Intn(sc.NumAgents()))); err != nil {
				rollbackSession(a, s)
				return err
			}
		}
		// Atomic check-then-add (see LedgerAPI.TryAdd): final admission must
		// not validate against usage a concurrent commit then grows.
		if cost.DelayFeasible(a, s) && ledger.TryAdd(p.SessionLoadSparse(a, s, scr)) {
			return nil
		}
	}
	rollbackSession(a, s)
	return fmt.Errorf("%w: session %d found no feasible random draw in %d tries",
		ErrInfeasible, s, maxTries)
}

// AssignRandom bootstraps every session randomly in ID order.
func AssignRandom(a *assign.Assignment, p cost.Params, ledger cost.LedgerAPI, seed int64, maxTries int) error {
	sc := a.Scenario()
	rng := rand.New(rand.NewSource(seed))
	for s := 0; s < sc.NumSessions(); s++ {
		if err := AssignSessionRandom(a, model.SessionID(s), p, ledger, rng, maxTries); err != nil {
			return err
		}
	}
	return nil
}
