package cost

import (
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"vconf/internal/assign"
	"vconf/internal/model"
	"vconf/internal/workload"
)

// Tests of the one-entry contract (the header of sparse.go): a scratch keeps
// the state it last prepared, BeginSession of that session patches or reuses
// it bit-identically to a rebuild, any other session rebuilds, and every
// other writer of the load drops it.

// delayCacheFixture builds a bootstrapped prototype workload with every
// session assigned (nearest-agent greedy, capacity-unchecked — evaluation
// does not need feasibility).
func delayCacheFixture(t *testing.T, seed int64) (*Evaluator, *assign.Assignment) {
	t.Helper()
	sc, err := workload.Generate(workload.Prototype(seed))
	if err != nil {
		t.Fatal(err)
	}
	ev, err := NewEvaluator(sc, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	a := assign.New(sc)
	for u := 0; u < sc.NumUsers(); u++ {
		a.SetUserAgent(model.UserID(u), sc.NearestAgent(model.UserID(u)))
	}
	for _, f := range a.Flows() {
		if err := a.SetFlowAgent(f, sc.NearestAgent(f.Src)); err != nil {
			t.Fatal(err)
		}
	}
	return ev, a
}

func sameEval(t *testing.T, step int, s model.SessionID, warm, cold SessionEval) {
	t.Helper()
	if math.Float64bits(warm.Phi) != math.Float64bits(cold.Phi) ||
		math.Float64bits(warm.MeanDelayMS) != math.Float64bits(cold.MeanDelayMS) ||
		math.Float64bits(warm.WorstMS) != math.Float64bits(cold.WorstMS) {
		t.Fatalf("step %d session %d: reused evaluation diverged from rebuild:\nwarm %+v\ncold %+v",
			step, s, warm, cold)
	}
}

// samePrepared requires the state warm holds to be the one cold rebuilt, bit
// for bit: the evaluation, the delay base (off the diagonal, which is never
// written nor read), its maxima, the access delays, the recorded variables
// with their host counts over the whole fleet, and the load.
func samePrepared(t *testing.T, what string, warm, cold *Scratch) {
	t.Helper()
	if !warm.curOK || !cold.curOK || warm.sid != cold.sid {
		t.Fatalf("%s: prepared sessions %d (ok %v) and %d (ok %v)", what, warm.sid, warm.curOK, cold.sid, cold.curOK)
	}
	sameEval(t, 0, warm.sid, warm.eval, cold.eval)
	n := warm.n
	bits := func(xs []float64) []uint64 {
		out := make([]uint64, len(xs))
		for i, x := range xs {
			out[i] = math.Float64bits(x)
		}
		return out
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i != j && math.Float64bits(warm.base[i*n+j]) != math.Float64bits(cold.base[i*n+j]) {
				t.Fatalf("%s: delay base diverged at (%d,%d): %v vs %v", what, i, j, warm.base[i*n+j], cold.base[i*n+j])
			}
		}
	}
	if !slices.Equal(bits(warm.userMax), bits(cold.userMax)) || !slices.Equal(bits(warm.hOwn), bits(cold.hOwn)) {
		t.Fatalf("%s: maxima %v / access delays %v, want %v / %v", what, warm.userMax, warm.hOwn, cold.userMax, cold.hOwn)
	}
	if !slices.Equal(warm.curUsers, cold.curUsers) || !slices.Equal(warm.curFlows, cold.curFlows) ||
		!slices.Equal(warm.curHost, cold.curHost) {
		t.Fatalf("%s: recorded variables diverged: users %v flows %v, want %v %v (or their host counts)",
			what, warm.curUsers, warm.curFlows, cold.curUsers, cold.curFlows)
	}
	sameSparse(t, what+": load", &warm.cur, &cold.cur)
}

// TestDelayCacheBitIdenticalToRebuild walks a long random sequence — mostly
// the same session, switching now and then; hops priced by their decision
// and committed, moves applied behind the scratch's back, moves applied and
// reverted — and asserts after every step that BeginSession with reuse is
// bit-identical to a rebuild-path BeginSession on a separate scratch, in
// everything it prepares. Every outcome must occur.
func TestDelayCacheBitIdenticalToRebuild(t *testing.T) {
	ev, a := delayCacheFixture(t, 51)
	sc := ev.Scenario()
	warm := ev.NewScratch() // reuse on (default)
	cold := ev.NewScratch()
	cold.SetDelayCacheEnabled(false)

	rng := rand.New(rand.NewSource(51))
	var decisions []assign.Decision
	s := model.SessionID(0)
	commits := 0
	for step := 0; step < 600; step++ {
		if rng.Intn(4) == 0 {
			s = model.SessionID(rng.Intn(sc.NumSessions()))
		}
		we := ev.BeginSession(a, s, warm)
		ce := ev.BeginSession(a, s, cold)
		sameEval(t, step, s, we, ce)
		samePrepared(t, "step", warm, cold)

		decisions = a.AppendSessionNeighborDecisions(decisions[:0], s)
		if len(decisions) == 0 {
			continue
		}
		d := decisions[rng.Intn(len(decisions))]
		switch rng.Intn(3) {
		case 0: // a hop: price by the decision, apply, commit
			load, err := ev.NeighbourLoad(a, s, d, warm)
			if err != nil {
				t.Fatal(err)
			}
			phi, ok := ev.CandidatePhi(a, s, d, warm)
			if _, err := a.Apply(d); err != nil {
				t.Fatal(err)
			}
			if ok {
				ev.CommitSessionDecision(a, s, warm, load, phi)
				commits++
			}
		case 1: // a move another code path commits
			if _, err := a.Apply(d); err != nil {
				t.Fatal(err)
			}
		case 2: // a rejected proposal
			inv, err := a.Apply(d)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := a.Apply(inv); err != nil {
				t.Fatal(err)
			}
		}
	}
	hits, patches, rebuilds := warm.DelayCounts()
	if hits == 0 || patches == 0 || rebuilds == 0 || commits == 0 {
		t.Fatalf("walk did not exercise every outcome: hits=%d patches=%d rebuilds=%d commits=%d",
			hits, patches, rebuilds, commits)
	}
	if h, p, r := cold.DelayCounts(); h+p+r != 0 {
		t.Fatalf("rebuild-only scratch counted hits=%d patches=%d rebuilds=%d", h, p, r)
	}
}

// TestDelayCacheInvalidate pins InvalidateDelay: it forgets the prepared
// state when it is the named session's, so the next BeginSession rebuilds
// with identical results, and leaves another session's record alone.
// Tearing a session down (departure shape) and re-assigning it is also exact
// through the record.
func TestDelayCacheInvalidate(t *testing.T) {
	ev, a := delayCacheFixture(t, 52)
	sc := ev.Scenario()
	warm := ev.NewScratch()
	cold := ev.NewScratch()
	cold.SetDelayCacheEnabled(false)
	s := model.SessionID(0)

	ev.BeginSession(a, s, warm)
	warm.InvalidateDelay(s + 1)
	hits, _, rebuilds := warm.DelayCounts()
	ev.BeginSession(a, s, warm)
	if h, _, _ := warm.DelayCounts(); h != hits+1 {
		t.Fatal("invalidating another session dropped the prepared state")
	}
	warm.InvalidateDelay(s)
	if warm.curOK {
		t.Fatal("prepared state kept after InvalidateDelay")
	}
	sameEval(t, 0, s, ev.BeginSession(a, s, warm), ev.BeginSession(a, s, cold))
	if _, _, r := warm.DelayCounts(); r != rebuilds+1 {
		t.Fatalf("invalidated session did not rebuild: %d rebuilds, want %d", r, rebuilds+1)
	}

	// Departure shape: unassign everything, then re-assign elsewhere. The
	// record must patch to the torn-down state (+Inf delays) and back,
	// bit-identically.
	for _, u := range sc.Session(s).Users {
		a.SetUserAgent(u, assign.Unassigned)
	}
	sameEval(t, 1, s, ev.BeginSession(a, s, warm), ev.BeginSession(a, s, cold))
	samePrepared(t, "torn down", warm, cold)
	for _, u := range sc.Session(s).Users {
		a.SetUserAgent(u, model.AgentID(int(u)%sc.NumAgents()))
	}
	sameEval(t, 2, s, ev.BeginSession(a, s, warm), ev.BeginSession(a, s, cold))
	samePrepared(t, "re-assigned", warm, cold)
}

// TestDelayCacheUnchangedSessionIsAHit pins the pure hit: re-evaluating the
// session the scratch holds, with none of its variables moved, reuses the
// record outright.
func TestDelayCacheUnchangedSessionIsAHit(t *testing.T) {
	ev, a := delayCacheFixture(t, 53)
	scr := ev.NewScratch()
	s := model.SessionID(1)
	first := ev.BeginSession(a, s, scr)
	hits, _, _ := scr.DelayCounts()
	second := ev.BeginSession(a, s, scr)
	if h, _, _ := scr.DelayCounts(); h != hits+1 {
		t.Fatalf("unchanged re-evaluation was not a hit: %d hits, want %d", h, hits+1)
	}
	sameEval(t, 0, s, second, first)
}

// TestPreparedStateOneEntry pins the rules of the one entry a scratch keeps:
// after a hop's CommitSessionDecision the next BeginSession is a hit and
// allocates nothing; preparing another session rebuilds, and so does coming
// back; and neither Params.SessionLoadSparse on another session (which
// overwrites the load) nor NeighbourLoad's rebuild fallback (which applies
// and undoes the decision) leaves a record that disagrees with a rebuild.
func TestPreparedStateOneEntry(t *testing.T) {
	ev, a := wideFleet(t, 96, 8)
	sc := ev.Scenario()
	scr := ev.NewScratch()
	ref := ev.NewScratch()
	ref.SetDelayCacheEnabled(false)
	s, other := model.SessionID(3), model.SessionID(5)
	matches := func(what string) {
		t.Helper()
		ev.BeginSession(a, s, ref)
		samePrepared(t, what, scr, ref)
	}
	counts := func() [3]int {
		h, p, r := scr.DelayCounts()
		return [3]int{h, p, r}
	}

	// A hop moves member u between its agent and another member's, and
	// commits; the BeginSession that follows is a hit.
	u := sc.Session(s).Users[0]
	home, away := a.UserAgent(u), a.UserAgent(sc.Session(s).Users[1])
	hop := func() {
		ev.BeginSession(a, s, scr)
		home, away = away, home
		d := assign.Decision{Kind: assign.UserMove, User: u, To: home}
		load, err := ev.NeighbourLoad(a, s, d, scr)
		if err != nil {
			t.Fatal(err)
		}
		phi, ok := ev.CandidatePhi(a, s, d, scr)
		if !ok {
			t.Fatal("fixture: the hop breaks the delay cap")
		}
		if _, err := a.Apply(d); err != nil {
			t.Fatal(err)
		}
		ev.CommitSessionDecision(a, s, scr, load, phi)
	}
	hop()
	before := counts()
	if allocs := testing.AllocsPerRun(100, hop); allocs != 0 {
		t.Fatalf("a hop and its commit allocate %.1f times", allocs)
	}
	if got := counts(); got[0] != before[0]+101 || got[1] != before[1] || got[2] != before[2] {
		t.Fatalf("BeginSession after a commit: %v hits/patches/rebuilds, want %v plus 101 hits", got, before)
	}
	ev.BeginSession(a, s, scr)
	matches("after a commit")

	// Another session rebuilds, and then s rebuilds: one entry.
	before = counts()
	ev.BeginSession(a, other, scr)
	ev.BeginSession(a, s, scr)
	if got := counts(); got[2] != before[2]+2 {
		t.Fatalf("switching sessions: %v hits/patches/rebuilds, want %v plus 2 rebuilds", got, before)
	}
	matches("after a switch")

	// SessionLoadSparse of another session overwrites the load.
	ev.Params().SessionLoadSparse(a, other, scr)
	ev.BeginSession(a, s, scr)
	matches("after SessionLoadSparse of another session")

	// A member moved off every agent takes NeighbourLoad's rebuild branch.
	d := assign.Decision{Kind: assign.UserMove, User: u, To: assign.Unassigned}
	if _, err := ev.NeighbourLoad(a, s, d, scr); err != nil {
		t.Fatal(err)
	}
	if a.UserAgent(u) != home {
		t.Fatal("NeighbourLoad left its decision applied")
	}
	before = counts()
	ev.BeginSession(a, s, scr)
	if got := counts(); got[0] != before[0]+1 {
		t.Fatalf("BeginSession after NeighbourLoad's rebuild branch: %v, want %v plus a hit", got, before)
	}
	matches("after NeighbourLoad's rebuild branch")
}

// TestCandidatePhiStaleScratchFailsLoudly pins the staleness contract: a
// decision referencing a user outside the session prepared by BeginSession
// must panic with a descriptive message, not a negative slice index.
func TestCandidatePhiStaleScratchFailsLoudly(t *testing.T) {
	ev, a := delayCacheFixture(t, 54)
	sc := ev.Scenario()
	scr := ev.NewScratch()
	s := model.SessionID(0)
	ev.BeginSession(a, s, scr)

	// A user from a different session.
	var foreign model.UserID = -1
	for u := 0; u < sc.NumUsers(); u++ {
		if sc.User(model.UserID(u)).Session != s {
			foreign = model.UserID(u)
			break
		}
	}
	if foreign < 0 {
		t.Fatal("fixture has a single session; cannot build a stale decision")
	}
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("CandidatePhi accepted a decision for a user outside the prepared session")
		}
		msg, ok := r.(string)
		if !ok || !strings.Contains(msg, "not a member of session") {
			t.Fatalf("panic does not describe the contract violation: %v", r)
		}
	}()
	d := assign.Decision{Kind: assign.UserMove, User: foreign, To: 0}
	ev.CandidatePhi(a, s, d, scr)
}
