package cost

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"vconf/internal/assign"
	"vconf/internal/model"
)

// sparseScenario: 2 sessions × 3 users over 4 agents with transcoding flows
// and tight-but-feasible capacities.
func sparseScenario(t *testing.T) *model.Scenario {
	t.Helper()
	b := model.NewBuilder(nil)
	rs := b.Reps()
	r360, _ := rs.ByName("360p")
	r720, _ := rs.ByName("720p")
	r1080, _ := rs.ByName("1080p")
	for i := 0; i < 4; i++ {
		b.AddAgent(model.Agent{Upload: 200, Download: 200, TranscodeSlots: 4,
			SigmaMS: model.UniformSigma(rs.Len(), 40)})
	}
	for s := 0; s < 2; s++ {
		sid := b.AddSession("s")
		u0 := b.AddUser("a", sid, r1080, nil)
		u1 := b.AddUser("b", sid, r720, nil)
		b.AddUser("c", sid, r720, nil)
		b.DemandFrom(u1, u0, r360)
	}
	sc, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return sc
}

// randomComplete assigns every variable uniformly at random.
func randomComplete(sc *model.Scenario, rng *rand.Rand) *assign.Assignment {
	a := assign.New(sc)
	for u := 0; u < sc.NumUsers(); u++ {
		a.SetUserAgent(model.UserID(u), model.AgentID(rng.Intn(sc.NumAgents())))
	}
	for _, f := range a.Flows() {
		a.SetFlowAgent(f, model.AgentID(rng.Intn(sc.NumAgents())))
	}
	return a
}

func TestSparseLoadMatchesDenseOnRandomStates(t *testing.T) {
	sc := sparseScenario(t)
	ev, err := NewEvaluator(sc, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	scr := ev.NewScratch()
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 200; trial++ {
		a := randomComplete(sc, rng)
		for s := 0; s < sc.NumSessions(); s++ {
			sid := model.SessionID(s)
			dense := sessionLoadDense(ev.Params(), a, sid)
			what := fmt.Sprintf("trial %d session %d", trial, s)
			sameLoad(t, what, ev.SessionLoadSparse(a, sid, scr), dense)
			sameLoad(t, what+" (SessionLoadOf)", ev.Params().SessionLoadOf(a, sid), dense)
			sparse := ev.SessionLoadSparse(a, sid, scr)
			if dense.TotalInterTraffic() != sparse.TotalInterTraffic() ||
				dense.TotalTasks() != sparse.TotalTasks() {
				t.Fatalf("%s: totals differ", what)
			}
			want := sessionObjectiveDense(ev, a, sid)
			sameBits(t, what+" Φ (BeginSession)", ev.BeginSession(a, sid, scr).Phi, want)
			sameBits(t, what+" Φ (SessionObjective)", ev.SessionObjective(a, sid), want)
		}
	}
}

func TestFitsDeltaChecksMatchDense(t *testing.T) {
	sc := sparseScenario(t)
	ev, err := NewEvaluator(sc, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	p := ev.Params()
	scr := ev.NewScratch()
	rng := rand.New(rand.NewSource(9))
	cur := NewSparseLoad(sc.NumAgents())
	agree := map[bool]int{}
	for trial := 0; trial < 300; trial++ {
		base := randomComplete(sc, rng)
		ledger := NewLedger(sc)
		for s := 0; s < sc.NumSessions(); s++ {
			addDense(ledger, sessionLoadDense(p, base, model.SessionID(s)))
		}
		// Occasionally degrade an agent so the repair branch is exercised
		// against an overloaded ledger.
		if trial%3 == 0 {
			if err := ledger.SetCapacityScale(model.AgentID(rng.Intn(sc.NumAgents())), 0.3); err != nil {
				t.Fatal(err)
			}
		}
		s := model.SessionID(rng.Intn(sc.NumSessions()))
		curDense := sessionLoadDense(p, base, s)
		cur.CopyFrom(ev.SessionLoadSparse(base, s, scr))
		removeDense(ledger, curDense)

		cand := randomComplete(sc, rng)
		candDense := sessionLoadDense(p, cand, s)
		candSparse := ev.SessionLoadSparse(cand, s, scr)

		denseRepair := fitsRepairDense(ledger, candDense, curDense)
		if sparseRepair := ledger.FitsRepairDelta(candSparse, cur); denseRepair != sparseRepair {
			t.Fatalf("trial %d: dense repair check %v vs FitsRepairDelta %v", trial, denseRepair, sparseRepair)
		}
		denseFits := fitsDense(ledger, candDense)
		if sparseFits := ledger.Fits(nil) && ledger.FitsTouched(candSparse); denseFits != sparseFits {
			t.Fatalf("trial %d: dense Fits %v vs FitsTouched %v", trial, denseFits, sparseFits)
		}
		if sparseFits := ledger.Fits(candSparse); denseFits != sparseFits {
			t.Fatalf("trial %d: dense Fits %v vs Fits %v", trial, denseFits, sparseFits)
		}
		agree[denseRepair]++
	}
	if agree[true] == 0 || agree[false] == 0 {
		t.Fatalf("capacity checks never exercised both outcomes: %v", agree)
	}
}

// TestFitsRepairUnchangedAgent: an agent where the candidate equals the
// current load passes the repair check even over capacity, and one where only
// the task count rises on a full agent is still refused.
func TestFitsRepairUnchangedAgent(t *testing.T) {
	sc := sparseScenario(t)
	n, l := sc.NumAgents(), model.AgentID(0)
	g := NewLedger(sc)
	full := NewSparseLoad(n)
	full.AddAt(l, 0, 0, 0, sc.Agent(l).TranscodeSlots)
	g.Add(full)
	cur, same, more := NewSparseLoad(n), NewSparseLoad(n), NewSparseLoad(n)
	cur.AddAt(l, 1, 1, 1, 1)
	same.AddAt(l, 1, 1, 1, 1)
	more.AddAt(l, 1, 1, 1, 2)
	if !g.FitsRepairDelta(same, cur) {
		t.Fatal("an unchanged agent over capacity refused the move")
	}
	if g.FitsRepairDelta(more, cur) {
		t.Fatal("a task added to a full agent passed")
	}
}

func TestSparseLoadHelpers(t *testing.T) {
	sc := sparseScenario(t)
	ev, err := NewEvaluator(sc, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	a := assign.New(sc)
	for _, u := range sc.Session(0).Users {
		a.SetUserAgent(u, 1)
	}
	for _, f := range a.SessionFlows(0) {
		if err := a.SetFlowAgent(f, 2); err != nil {
			t.Fatal(err)
		}
	}
	scr := ev.NewScratch()
	sl := ev.SessionLoadSparse(a, 0, scr)

	if got := sl.AppendAgents(nil); !slices.Equal(got, []model.AgentID{1, 2}) {
		t.Fatalf("AppendAgents = %v, want the loaded agents [1 2]", got)
	}

	cp := NewSparseLoad(sc.NumAgents())
	cp.CopyFrom(sl)
	if cp.TotalInterTraffic() != sl.TotalInterTraffic() || cp.TotalTasks() != sl.TotalTasks() {
		t.Fatal("CopyFrom changed totals")
	}
	down, up, inter, tasks := cp.At(2)
	d2, u2, i2, t2 := sl.At(2)
	if down != d2 || up != u2 || inter != i2 || tasks != t2 {
		t.Fatal("CopyFrom changed per-agent values")
	}
	cp.Reset()
	if cp.TotalInterTraffic() != 0 || cp.TotalTasks() != 0 {
		t.Fatal("Reset left residual load")
	}

	// Ledger round-trip: Add then Remove restores emptiness.
	ledger := NewLedger(sc)
	ledger.Add(sl)
	if ledger.Fits(nil) != true {
		t.Fatal("single session must fit")
	}
	ledger.Remove(sl)
	gd, gu, gt := ledger.Usage()
	for l := range gd {
		if gd[l] != 0 || gu[l] != 0 || gt[l] != 0 {
			t.Fatalf("ledger not empty after sparse round-trip at agent %d", l)
		}
	}
}

func TestObjectiveCacheServesSparseLoads(t *testing.T) {
	sc := sparseScenario(t)
	ev, err := NewEvaluator(sc, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(21))
	a := randomComplete(sc, rng)
	cache := NewObjectiveCache(ev)
	cache.SetActive(0, true)
	cache.SetActive(1, true)

	for s := 0; s < 2; s++ {
		sid := model.SessionID(s)
		sameLoad(t, fmt.Sprintf("session %d", s), cache.SessionLoad(a, sid), sessionLoadDense(ev.Params(), a, sid))
		sameBits(t, fmt.Sprintf("session %d Φ", s), cache.SessionObjective(a, sid), sessionObjectiveDense(ev, a, sid))
	}
	// Mutate session 0, invalidate, and verify the refreshed load reuses the
	// owned buffers while reflecting the new state.
	before := cache.SessionLoad(a, 0)
	a.SetUserAgent(sc.Session(0).Users[0], model.AgentID(3))
	cache.Invalidate(0)
	after := cache.SessionLoad(a, 0)
	if before != after {
		t.Fatal("cache must reuse the owned SparseLoad across refreshes")
	}
	sameLoad(t, "refreshed", after, sessionLoadDense(ev.Params(), a, 0))
	cache.SetActive(0, false)
	if cache.SessionLoad(a, 0) != nil {
		t.Fatal("inactive session must read nil load")
	}
}
