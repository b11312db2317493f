package baseline

import (
	"errors"
	"testing"

	"vconf/internal/assign"
	"vconf/internal/cost"
	"vconf/internal/model"
)

// scenario: 2 agents, one session with two users; user 0 nearest agent 0,
// user 1 nearest agent 1; u1 demands 360p of u0's 1080p.
func buildScenario(t *testing.T, up, down float64, slots int) (*model.Scenario, model.Flow) {
	t.Helper()
	b := model.NewBuilder(nil)
	rs := b.Reps()
	r360, _ := rs.ByName("360p")
	r720, _ := rs.ByName("720p")
	r1080, _ := rs.ByName("1080p")
	for i := 0; i < 2; i++ {
		b.AddAgent(model.Agent{Upload: up, Download: down, TranscodeSlots: slots})
	}
	s := b.AddSession("s")
	u0 := b.AddUser("u0", s, r1080, nil)
	u1 := b.AddUser("u1", s, r720, nil)
	b.DemandFrom(u1, u0, r360)
	b.SetInterAgentDelays([][]float64{{0, 20}, {20, 0}})
	b.SetAgentUserDelays([][]float64{{5, 50}, {50, 5}})
	sc, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return sc, model.Flow{Src: u0, Dst: u1}
}

func TestNearestAssignsNearestAndSourceTranscoding(t *testing.T) {
	sc, f := buildScenario(t, 1000, 1000, 4)
	a := assign.New(sc)
	p := cost.DefaultParams()
	ledger := cost.NewLedger(sc)
	if err := Assign(a, p, ledger); err != nil {
		t.Fatalf("Assign: %v", err)
	}
	if a.UserAgent(0) != 0 || a.UserAgent(1) != 1 {
		t.Fatalf("users at %d,%d; want 0,1", a.UserAgent(0), a.UserAgent(1))
	}
	if m, _ := a.FlowAgent(f); m != 0 {
		t.Fatalf("transcoder at %d, want source agent 0", m)
	}
	if !a.Complete() {
		t.Fatal("assignment incomplete after Assign")
	}
	// Ledger must carry exactly this session's load.
	ev, err := cost.NewEvaluator(sc, p)
	if err != nil {
		t.Fatal(err)
	}
	if err := ev.CheckFeasible(a); err != nil {
		t.Fatalf("CheckFeasible: %v", err)
	}
}

func TestNearestRollsBackOnCapacityFailure(t *testing.T) {
	// 6 Mbps download cannot take u0's 8 Mbps upstream at agent 0.
	sc, _ := buildScenario(t, 6, 6, 4)
	a := assign.New(sc)
	ledger := cost.NewLedger(sc)
	err := Assign(a, cost.DefaultParams(), ledger)
	if !errors.Is(err, ErrInfeasible) {
		t.Fatalf("Assign error = %v, want ErrInfeasible", err)
	}
	for u := 0; u < sc.NumUsers(); u++ {
		if a.UserAgent(model.UserID(u)) != assign.Unassigned {
			t.Fatalf("user %d not rolled back", u)
		}
	}
	down, up, tasks := ledger.Usage()
	for l := range down {
		if down[l] != 0 || up[l] != 0 || tasks[l] != 0 {
			t.Fatal("ledger polluted by failed admission")
		}
	}
}

func TestNearestFailsOnZeroTranscodeSlots(t *testing.T) {
	sc, _ := buildScenario(t, 1000, 1000, 0)
	a := assign.New(sc)
	err := Assign(a, cost.DefaultParams(), cost.NewLedger(sc))
	if !errors.Is(err, ErrInfeasible) {
		t.Fatalf("Assign error = %v, want ErrInfeasible (no slots)", err)
	}
}

func TestNearestFailsOnDelayCap(t *testing.T) {
	b := model.NewBuilder(nil)
	rs := b.Reps()
	r720, _ := rs.ByName("720p")
	b.AddAgent(model.Agent{Upload: 1000, Download: 1000, TranscodeSlots: 4})
	b.AddAgent(model.Agent{Upload: 1000, Download: 1000, TranscodeSlots: 4})
	s := b.AddSession("s")
	b.AddUser("u0", s, r720, nil)
	b.AddUser("u1", s, r720, nil)
	// Inter-agent delay alone busts the 400 ms cap.
	b.SetInterAgentDelays([][]float64{{0, 500}, {500, 0}})
	b.SetAgentUserDelays([][]float64{{5, 50}, {50, 5}})
	sc, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	a := assign.New(sc)
	errAssign := Assign(a, cost.DefaultParams(), cost.NewLedger(sc))
	if !errors.Is(errAssign, ErrInfeasible) {
		t.Fatalf("Assign error = %v, want ErrInfeasible (delay)", errAssign)
	}
}

func TestRemoveSessionRestoresLedger(t *testing.T) {
	sc, _ := buildScenario(t, 1000, 1000, 4)
	a := assign.New(sc)
	p := cost.DefaultParams()
	ledger := cost.NewLedger(sc)
	if err := Assign(a, p, ledger); err != nil {
		t.Fatal(err)
	}
	RemoveSession(a, 0, p, ledger)
	down, up, tasks := ledger.Usage()
	for l := range down {
		if down[l] != 0 || up[l] != 0 || tasks[l] != 0 {
			t.Fatal("ledger not restored after RemoveSession")
		}
	}
	if a.UserAgent(0) != assign.Unassigned {
		t.Fatal("session decisions not cleared")
	}
}

func TestAssignMultipleSessionsSharedCapacity(t *testing.T) {
	// Two identical sessions share two agents; capacity fits exactly one
	// session per agent pair configuration → second admission must fail
	// when capacity is tight but succeed when ample.
	build := func(t *testing.T, cap float64) *model.Scenario {
		b := model.NewBuilder(nil)
		rs := b.Reps()
		r720, _ := rs.ByName("720p")
		for i := 0; i < 2; i++ {
			b.AddAgent(model.Agent{Upload: cap, Download: cap, TranscodeSlots: 4})
		}
		for si := 0; si < 2; si++ {
			s := b.AddSession("s")
			b.AddUser("a", s, r720, nil)
			b.AddUser("b", s, r720, nil)
		}
		h := [][]float64{{5, 50, 5, 50}, {50, 5, 50, 5}}
		b.SetAgentUserDelays(h)
		b.SetInterAgentDelays([][]float64{{0, 20}, {20, 0}})
		sc, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		return sc
	}
	// Per session per agent: down = 5 (upstream) + 5 (incoming) = 10;
	// up = 5 (downstream) + 5 (outgoing) = 10. Two sessions need 20.
	sc := build(t, 12)
	a := assign.New(sc)
	ledger := cost.NewLedger(sc)
	err := Assign(a, cost.DefaultParams(), ledger)
	if !errors.Is(err, ErrInfeasible) {
		t.Fatalf("tight capacity: err = %v, want ErrInfeasible", err)
	}
	// First session must remain admitted.
	if a.UserAgent(0) == assign.Unassigned {
		t.Fatal("session 0 should stay admitted after session 1 fails")
	}

	sc2 := build(t, 25)
	a2 := assign.New(sc2)
	if err := Assign(a2, cost.DefaultParams(), cost.NewLedger(sc2)); err != nil {
		t.Fatalf("ample capacity: %v", err)
	}
}

// RemoveSession evicts an admitted session: subtracts its load from the
// ledger and clears its decision variables. Used by the dynamics experiments
// when sessions depart (Fig. 5).
func RemoveSession(a *assign.Assignment, s model.SessionID, p cost.Params, ledger cost.LedgerAPI) {
	scr := cost.GetScratch()
	defer cost.PutScratch(scr)
	ledger.Remove(p.SessionLoadSparse(a, s, scr))
	rollbackSession(a, s)
}
