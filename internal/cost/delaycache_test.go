package cost

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"vconf/internal/assign"
	"vconf/internal/model"
	"vconf/internal/workload"
)

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
		t.Fatalf("step %d session %d: cached evaluation diverged from rebuild:\nwarm %+v\ncold %+v",
			step, s, warm, cold)
	}
}

// TestDelayCacheBitIdenticalToRebuild walks a long random decision sequence
// — moves applied permanently, moves applied and reverted, interleaved
// sessions — and asserts after every mutation that a cached BeginSession is
// bit-identical (Φ, delay summary, sparse load, and the full delay base) to
// a rebuild-path BeginSession on a separate scratch.
func TestDelayCacheBitIdenticalToRebuild(t *testing.T) {
	ev, a := delayCacheFixture(t, 51)
	sc := ev.Scenario()
	warm := ev.NewScratch() // delay cache on (default)
	cold := ev.NewScratch()
	cold.SetDelayCacheEnabled(false)

	rng := rand.New(rand.NewSource(51))
	var decisions []assign.Decision
	for step := 0; step < 400; step++ {
		s := model.SessionID(rng.Intn(sc.NumSessions()))
		we := ev.BeginSession(a, s, warm)
		ce := ev.BeginSession(a, s, cold)
		sameEval(t, step, s, we, ce)

		// The full base matrix (off-diagonal — the diagonal is never
		// written nor read) and the sparse load must match bitwise too.
		n := warm.n
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if i == j {
					continue
				}
				if math.Float64bits(warm.base[i*n+j]) != math.Float64bits(cold.base[i*n+j]) {
					t.Fatalf("step %d session %d: delay base diverged at (%d,%d): %v vs %v",
						step, s, i, j, warm.base[i*n+j], cold.base[i*n+j])
				}
			}
		}
		wl, cl := warm.CurLoad(), cold.CurLoad()
		for l := 0; l < sc.NumAgents(); l++ {
			if wl.down[l] != cl.down[l] || wl.up[l] != cl.up[l] ||
				wl.inter[l] != cl.inter[l] || wl.tasks[l] != cl.tasks[l] {
				t.Fatalf("step %d session %d: cached load diverged at agent %d", step, s, l)
			}
		}

		// Mutate: apply a random neighbor decision of this session, and
		// revert it half the time (a rejected proposal).
		decisions = a.AppendSessionNeighborDecisions(decisions[:0], s)
		if len(decisions) == 0 {
			continue
		}
		d := decisions[rng.Intn(len(decisions))]
		inv, err := a.Apply(d)
		if err != nil {
			t.Fatal(err)
		}
		if rng.Intn(2) == 0 {
			if _, err := a.Apply(inv); err != nil {
				t.Fatal(err)
			}
		}
	}
	dc := warm.DelayCacheStats()
	if dc == nil {
		t.Fatal("cached scratch never built a delay cache")
	}
	if dc.Hits() == 0 || dc.Patches() == 0 || dc.Rebuilds() == 0 {
		t.Fatalf("walk did not exercise all cache states: hits=%d patches=%d rebuilds=%d",
			dc.Hits(), dc.Patches(), dc.Rebuilds())
	}
	if cold.DelayCacheStats() != nil {
		t.Fatal("disabled scratch built a delay cache")
	}
}

// TestDelayCacheInvalidate pins the cold-entry fallback: an invalidated
// session full-rebuilds on the next BeginSession and produces identical
// results; tearing a session down (departure shape) and re-assigning it is
// also exact through the cache.
func TestDelayCacheInvalidate(t *testing.T) {
	ev, a := delayCacheFixture(t, 52)
	sc := ev.Scenario()
	warm := ev.NewScratch()
	cold := ev.NewScratch()
	cold.SetDelayCacheEnabled(false)
	s := model.SessionID(0)

	ev.BeginSession(a, s, warm)
	dc := warm.DelayCacheStats()
	if !dc.Warm(s) {
		t.Fatal("entry not warm after BeginSession")
	}
	rebuilds := dc.Rebuilds()
	warm.InvalidateDelay(s)
	if dc.Warm(s) {
		t.Fatal("entry still warm after InvalidateDelay")
	}
	sameEval(t, 0, s, ev.BeginSession(a, s, warm), ev.BeginSession(a, s, cold))
	if dc.Rebuilds() != rebuilds+1 {
		t.Fatalf("invalidated entry did not rebuild: %d rebuilds, want %d", dc.Rebuilds(), rebuilds+1)
	}

	// Departure shape: unassign everything, then re-assign elsewhere. The
	// warm entry must patch to the torn-down state (+Inf delays) and back,
	// bit-identically.
	for _, u := range sc.Session(s).Users {
		a.SetUserAgent(u, assign.Unassigned)
	}
	sameEval(t, 1, s, ev.BeginSession(a, s, warm), ev.BeginSession(a, s, cold))
	for _, u := range sc.Session(s).Users {
		a.SetUserAgent(u, model.AgentID(int(u)%sc.NumAgents()))
	}
	sameEval(t, 2, s, ev.BeginSession(a, s, warm), ev.BeginSession(a, s, cold))
}

// TestDelayCacheUnchangedSessionIsAHit pins the pure warm hit: re-evaluating
// a session whose variables did not move reuses the cached state outright.
func TestDelayCacheUnchangedSessionIsAHit(t *testing.T) {
	ev, a := delayCacheFixture(t, 53)
	scr := ev.NewScratch()
	s := model.SessionID(1)
	first := ev.BeginSession(a, s, scr)
	dc := scr.DelayCacheStats()
	hits := dc.Hits()
	second := ev.BeginSession(a, s, scr)
	if dc.Hits() != hits+1 {
		t.Fatalf("unchanged re-evaluation was not a hit: %d hits, want %d", dc.Hits(), hits+1)
	}
	sameEval(t, 0, s, second, first)
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

// InvalidateAll marks every entry cold and releases all retained buffers.
func (dc *DelayCache) InvalidateAll() {
	for i := range dc.ent {
		dc.ent[i] = delayEntry{}
	}
}

// Warm reports whether session s currently has a warm entry.
func (dc *DelayCache) Warm(s model.SessionID) bool {
	return int(s) >= 0 && int(s) < len(dc.ent) && dc.ent[s].valid
}
