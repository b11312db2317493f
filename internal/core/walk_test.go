package core

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"vconf/internal/assign"
	"vconf/internal/cost"
	"vconf/internal/model"
	"vconf/internal/workload"
)

const walkBudget = 12

// sameHop compares two hop results field by field, floats by their bits.
func sameHop(x, y HopResult) bool {
	bits := math.Float64bits
	return x.Moved == y.Moved && x.Decision == y.Decision && x.Feasible == y.Feasible &&
		bits(x.PhiBefore) == bits(y.PhiBefore) && bits(x.PhiAfter) == bits(y.PhiAfter) &&
		bits(x.TotalRate) == bits(y.TotalRate) &&
		bits(x.PhiBest) == bits(y.PhiBest) && bits(x.PhiSecond) == bits(y.PhiSecond)
}

// sameLedger compares two ledgers' usage vectors bit for bit.
func sameLedger(x, y *cost.Ledger) bool {
	xd, xu, xt := x.Usage()
	yd, yu, yt := y.Usage()
	for l := range xd {
		if math.Float64bits(xd[l]) != math.Float64bits(yd[l]) ||
			math.Float64bits(xu[l]) != math.Float64bits(yu[l]) || xt[l] != yt[l] {
			return false
		}
	}
	return true
}

// noiseLog is a stateful measurement-noise model that records every reading
// it is asked for, so two runs can be compared call by call.
type noiseLog struct {
	rng  *rand.Rand
	args []float64
}

func (n *noiseLog) read(phi float64) float64 {
	n.args = append(n.args, phi)
	return phi * (1 + 0.02*(n.rng.Float64()-0.5))
}

// TestWalkMatchesHopByHop is the memo's differential test: on the default
// representation set, where taking a load out of the ledger and putting it
// back is exact, a walk must be indistinguishable from the same number of
// HopSessionWith calls off the same seed — every field of every HopResult,
// the final assignment, the ledger bits and (under measurement noise) the
// exact sequence of readings asked of the noise model, which has to be
// Φ_cur and then each feasible candidate in order on a memo hit as on a
// miss. 50 seeds × 8 sessions per case, each walk starting where the last
// one ended, so the sessions are walked from bootstrap to convergence.
func TestWalkMatchesHopByHop(t *testing.T) {
	cases := []struct {
		name  string
		tune  func(*workload.FleetConfig)
		noise bool
		// refuses: the constraint must reject candidates the enumeration
		// offers (capacity through FitsRepairDelta, delay through CandidatePhi).
		refuses bool
	}{
		{name: "unconstrained", tune: func(*workload.FleetConfig) {}},
		{name: "capacity-tight", refuses: true, tune: func(fc *workload.FleetConfig) {
			fc.AgentBandwidthMbps = 250
			fc.AgentTranscodeSlots = 2
		}},
		{name: "delay-tight", refuses: true, tune: func(fc *workload.FleetConfig) { fc.DelayCapMS = 170 }},
		{name: "noise", noise: true, tune: func(*workload.FleetConfig) {}},
	}
	for _, tc := range cases {
		for _, window := range []int{0, hopWindow} {
			name := tc.name + "/full-scan"
			if window > 0 {
				name = tc.name + "/window-4"
			}
			t.Run(name, func(t *testing.T) {
				ev, a0, ledger0 := tunedFleetFixture(t, 5, tc.tune)
				sessions := ev.Scenario().NumSessions()
				cfgRef, cfgWalk := DefaultConfig(1), DefaultConfig(1)
				cfgRef.NeighborWindow, cfgWalk.NeighborWindow = window, window
				var noiseRef, noiseWalk *noiseLog
				if tc.noise {
					noiseRef = &noiseLog{rng: rand.New(rand.NewSource(5))}
					noiseWalk = &noiseLog{rng: rand.New(rand.NewSource(5))}
					cfgRef.Noise, cfgWalk.Noise = noiseRef.read, noiseWalk.read
				}
				aRef, ledgerRef, scrRef := a0.Clone(), ledger0.Clone(), NewHopScratch(ev)
				aWalk, ledgerWalk, scrWalk := a0.Clone(), ledger0.Clone(), NewHopScratch(ev)

				var total WalkStats
				offered, feasible := 0, 0
				for seed := int64(0); seed < 50; seed++ {
					for si := 0; si < sessions; si++ {
						s := model.SessionID(si)
						rngRef, rngWalk := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
						var ref []HopResult
						for i := 0; i < walkBudget; i++ {
							res, err := HopSessionWith(aRef, s, ev, ledgerRef, cfgRef, rngRef, scrRef)
							if err != nil {
								t.Fatal(err)
							}
							ref = append(ref, res)
							offered += len(scrRef.decisions)
							feasible += res.Feasible
							if !res.Moved {
								break
							}
						}
						var got []HopResult
						st, err := WalkSession(aWalk, s, ev, ledgerWalk, cfgWalk, rngWalk, scrWalk, nil, walkBudget,
							func(res HopResult) { got = append(got, res) })
						if err != nil {
							t.Fatal(err)
						}
						if st.Hops != len(got) || st.Reused > st.Hops {
							t.Fatalf("seed %d session %d: stats %+v for %d visited hops", seed, s, st, len(got))
						}
						total.Hops += st.Hops
						total.Reused += st.Reused
						if len(got) != len(ref) {
							t.Fatalf("seed %d session %d: walk made %d hops, hop by hop %d", seed, s, len(got), len(ref))
						}
						for i := range ref {
							if !sameHop(got[i], ref[i]) {
								t.Fatalf("seed %d session %d hop %d diverged:\n walk       %+v\n hop by hop %+v", seed, s, i, got[i], ref[i])
							}
						}
						if !aWalk.Equal(aRef) {
							t.Fatalf("seed %d session %d: assignments diverged", seed, s)
						}
						if !sameLedger(ledgerWalk, ledgerRef) {
							t.Fatalf("seed %d session %d: ledgers diverged", seed, s)
						}
						if rngRef.Int63() != rngWalk.Int63() {
							t.Fatalf("seed %d session %d: the walks drew differently from the rng", seed, s)
						}
					}
				}
				if total.Reused == 0 {
					t.Fatalf("no hop of %d reused a candidate set: the memo was not exercised", total.Hops)
				}
				if tc.refuses && feasible >= offered {
					t.Fatalf("the constraint refused no candidate (%d offered, %d feasible)", offered, feasible)
				}
				if tc.noise {
					if want := total.Hops + feasible; len(noiseRef.args) != want {
						t.Fatalf("noise model read %d times, want one per hop and per feasible candidate = %d", len(noiseRef.args), want)
					}
					if len(noiseWalk.args) != len(noiseRef.args) {
						t.Fatalf("noise model read %d times in the walk, %d hop by hop", len(noiseWalk.args), len(noiseRef.args))
					}
					for i := range noiseRef.args {
						if math.Float64bits(noiseWalk.args[i]) != math.Float64bits(noiseRef.args[i]) {
							t.Fatalf("noise reading %d diverged: %v in the walk, %v hop by hop", i, noiseWalk.args[i], noiseRef.args[i])
						}
					}
				}
				t.Logf("%d hops, %d reused; %d candidates offered, %d feasible", total.Hops, total.Reused, offered, feasible)
			})
		}
	}
}

// convergedFixture is fleetFixture after enough walks of every session that
// each sits at a local optimum of its chain.
func convergedFixture(tb testing.TB, sessionSize int, cfg Config, scr *HopScratch) (*cost.Evaluator, *assign.Assignment, *cost.Ledger) {
	tb.Helper()
	ev, a, ledger := fleetFixture(tb, sessionSize)
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 20*ev.Scenario().NumSessions(); i++ {
		s := model.SessionID(i % ev.Scenario().NumSessions())
		if _, err := WalkSession(a, s, ev, ledger, cfg, rng, scr, nil, walkBudget, func(HopResult) {}); err != nil {
			tb.Fatal(err)
		}
	}
	return ev, a, ledger
}

// TestWalkReusesRevisitedStates: at a local optimum with β = 400 the chain
// jumps away and falls straight back, so a 12-hop walk must take at least a
// third of its candidate sets from the memo; a one-hop walk has nothing to
// reuse.
func TestWalkReusesRevisitedStates(t *testing.T) {
	cfg := DefaultConfig(1)
	cfg.NeighborWindow = hopWindow
	scr := &HopScratch{}
	ev, a, ledger := convergedFixture(t, 5, cfg, scr)
	rng := rand.New(rand.NewSource(3))
	for s := 0; s < ev.Scenario().NumSessions(); s++ {
		st, err := WalkSession(a, model.SessionID(s), ev, ledger, cfg, rng, scr, nil, walkBudget, func(HopResult) {})
		if err != nil {
			t.Fatal(err)
		}
		if st.Hops != walkBudget || st.Reused < 4 {
			t.Errorf("session %d at a local optimum: %+v, want %d hops and at least 4 reused", s, st, walkBudget)
		}
		one, err := WalkSession(a, model.SessionID(s), ev, ledger, cfg, rng, scr, nil, 1, func(HopResult) {})
		if err != nil {
			t.Fatal(err)
		}
		if one != (WalkStats{Hops: 1}) {
			t.Errorf("session %d: a one-hop walk reports %+v, want one hop and nothing reused", s, one)
		}
	}
}

// TestWalkSessionZeroAllocs pins the warm 12-hop walk, memo included, at
// zero allocations on sessions of 5 and of 12 users.
func TestWalkSessionZeroAllocs(t *testing.T) {
	for _, n := range []int{5, 12} {
		cfg := DefaultConfig(1)
		cfg.NeighborWindow = hopWindow
		scr := &HopScratch{}
		ev, a, ledger := convergedFixture(t, n, cfg, scr)
		sessions := ev.Scenario().NumSessions()
		rng := rand.New(rand.NewSource(4))
		visit := func(HopResult) {}
		s := 0
		allocs := testing.AllocsPerRun(100, func() {
			if _, err := WalkSession(a, model.SessionID(s%sessions), ev, ledger, cfg, rng, scr, nil, walkBudget, visit); err != nil {
				t.Fatal(err)
			}
			s++
		})
		if allocs != 0 {
			t.Errorf("n = %d: a warm %d-hop walk allocates %v times, want 0", n, walkBudget, allocs)
		}
	}
}

// TestWalkSessionRefusalsZeroAllocs is TestWalkSessionZeroAllocs with a
// memo table on a capacity-tight fleet with degraded agents: the walks
// record witnesses of the neighbors the degraded agents refuse, store them
// with their states and check them again when the session's next walk
// starts, and once warm none of it allocates.
func TestWalkSessionRefusalsZeroAllocs(t *testing.T) {
	cfg := DefaultConfig(1)
	cfg.NeighborWindow = hopWindow
	ev, a, ledger := tunedFleetFixture(t, 5, func(fc *workload.FleetConfig) {
		fc.AgentBandwidthMbps = 250
		fc.AgentTranscodeSlots = 2
	})
	degrade(t, ev.Scenario().NumAgents(), ledger)
	sessions := ev.Scenario().NumSessions()
	scr, memo := NewHopScratch(ev), NewMemoTable(32<<10, sessions)
	rng := rand.New(rand.NewSource(4))
	var total WalkStats
	s := 0
	walk := func() {
		st, err := WalkSession(a, model.SessionID(s%sessions), ev, ledger, cfg, rng, scr, memo, walkBudget, func(HopResult) {})
		if err != nil {
			t.Fatal(err)
		}
		total.Hops += st.Hops
		total.ReusedAcross += st.ReusedAcross
		s++
	}
	for range 40 * sessions {
		walk()
	}
	total = WalkStats{}
	if allocs := testing.AllocsPerRun(200, walk); allocs != 0 {
		t.Errorf("a warm %d-hop walk with the table allocates %v times, want 0", walkBudget, allocs)
	}
	witnesses := 0
	for _, ms := range memo.sess {
		witnesses += len(ms.wit)
	}
	if total.ReusedAcross == 0 || witnesses == 0 || !memo.wrapped {
		t.Fatalf("%d of %d hops reused across walks, %d witnesses held, ring wrapped %v: the refusal path was not exercised",
			total.ReusedAcross, total.Hops, witnesses, memo.wrapped)
	}
	t.Logf("%d of %d hops reused across walks; %d witnesses held", total.ReusedAcross, total.Hops, witnesses)
}

// fault is the capacity scale degrade leaves agent l at: every third agent
// is degraded to 0.4 and, from the second on, every ninth fails.
func fault(l model.AgentID) float64 {
	switch {
	case l%9 == 3:
		return 0
	case l%3 == 0:
		return 0.4
	}
	return 1
}

// degrade puts the faults of fault on the ledgers of a fleet of the given
// number of agents: the refusals a memo table keeps.
func degrade(t *testing.T, agents int, gs ...*cost.Ledger) {
	t.Helper()
	for _, g := range gs {
		for l := range model.AgentID(agents) {
			if f := fault(l); f < 1 {
				if err := g.SetCapacityScale(l, f); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
}

// TestWalkConcurrentWorkersSharedPlan: two workers walk different sessions
// at once, each on a private assignment, ledger and scratch (the memo lives
// in the scratch), sharing the scenario's compiled plan, the evaluator and
// one proximity index. Under -race this proves a walk writes nothing shared;
// each worker must also reproduce what it computes alone.
func TestWalkConcurrentWorkersSharedPlan(t *testing.T) {
	ev, a0, ledger0 := fleetFixture(t, 6)
	sessions := ev.Scenario().NumSessions()
	ix := assign.NewProximityIndex(ev.Scenario(), hopWindow)
	cfg := DefaultConfig(3)
	cfg.NeighborWindow = hopWindow

	// run walks the sessions ≡ w (mod 2), 40 walks each, and returns the trail.
	run := func(w int) ([]HopResult, error) {
		a, ledger := a0.Clone(), ledger0.Clone()
		scr := NewHopScratch(ev)
		scr.SetProximityIndex(ix)
		rng := rand.New(rand.NewSource(int64(9 + w)))
		var trail []HopResult
		for i := 0; i < 40; i++ {
			s := model.SessionID((2*i + w) % sessions)
			if _, err := WalkSession(a, s, ev, ledger, cfg, rng, scr, nil, walkBudget,
				func(res HopResult) { trail = append(trail, res) }); err != nil {
				return nil, err
			}
		}
		return trail, nil
	}
	var alone [2][]HopResult
	for w := range alone {
		var err error
		if alone[w], err = run(w); err != nil {
			t.Fatal(err)
		}
	}
	var together [2][]HopResult
	var wg sync.WaitGroup
	for w := range together {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var err error
			if together[w], err = run(w); err != nil {
				t.Error(err)
			}
		}(w)
	}
	wg.Wait()
	for w := range together {
		if len(together[w]) != len(alone[w]) {
			t.Fatalf("worker %d: %d hops beside a sibling, %d alone", w, len(together[w]), len(alone[w]))
		}
		for i := range alone[w] {
			if !sameHop(together[w][i], alone[w][i]) {
				t.Fatalf("worker %d hop %d: %+v beside a sibling, %+v alone", w, i, together[w][i], alone[w][i])
			}
		}
	}
}

// TestWalkMemoCertificateSeesCapacityChange: a capacity change between
// walks must reach a memo table through its certificate. Session 0 is
// walked twice from the same state with one table (and one scratch): the
// second walk takes its states from the first. The fleet's capacity is then
// scaled down to almost nothing, and a third walk from the same state with
// the same table must see the degraded fleet — fewer feasible neighbors on its
// first hop, nothing reused across walks, and hop for hop what a walk with a
// fresh scratch and no memo computes.
func TestWalkMemoCertificateSeesCapacityChange(t *testing.T) {
	ev, a0, ledger := fleetFixture(t, 5)
	cfg := DefaultConfig(1)
	cfg.NeighborWindow = hopWindow
	walk := func(scr *HopScratch, memo *MemoTable) ([]HopResult, WalkStats) {
		var trail []HopResult
		st, err := WalkSession(a0.Clone(), 0, ev, ledger.Clone(), cfg, rand.New(rand.NewSource(6)), scr, memo, walkBudget,
			func(res HopResult) { trail = append(trail, res) })
		if err != nil {
			t.Fatal(err)
		}
		return trail, st
	}
	sameTrail := func(what string, got, want []HopResult) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("%s: %d hops, want %d", what, len(got), len(want))
		}
		for i := range want {
			if !sameHop(got[i], want[i]) {
				t.Fatalf("%s: hop %d: %+v, want %+v", what, i, got[i], want[i])
			}
		}
	}
	used, memo := NewHopScratch(ev), NewMemoTable(1<<20, ev.Scenario().NumSessions())
	before, _ := walk(used, memo)
	again, st := walk(used, memo)
	if st.ReusedAcross == 0 {
		t.Fatalf("a second walk from the same state reused nothing across walks: %+v", st)
	}
	sameTrail("second walk", again, before)
	for l := 0; l < ev.Scenario().NumAgents(); l++ {
		if err := ledger.SetCapacityScale(model.AgentID(l), 0.01); err != nil {
			t.Fatal(err)
		}
	}
	after, st := walk(used, memo)
	fresh, _ := walk(NewHopScratch(ev), nil)
	if after[0].Feasible >= before[0].Feasible {
		t.Fatalf("first hop sees %d feasible neighbors on the degraded fleet, %d before: the walk did not see the capacity change",
			after[0].Feasible, before[0].Feasible)
	}
	if st.ReusedAcross != 0 {
		t.Fatalf("the degraded walk reused %d hops across walks", st.ReusedAcross)
	}
	sameTrail("degraded walk", after, fresh)
}

// sessionState is one session's decision variables: member agents, then
// flow agents.
type sessionState struct{ users, flows []model.AgentID }

func stateOf(a *assign.Assignment, s model.SessionID) sessionState {
	var st sessionState
	for _, u := range a.Scenario().Session(s).Users {
		st.users = append(st.users, a.UserAgent(u))
	}
	st.flows = append(st.flows, a.SessionFlowAgents(s)...)
	return st
}

// setState gives session s the variables st, moving its load in the ledger
// with it; an empty st leaves the session unplaced and its load out.
func setState(t *testing.T, ev *cost.Evaluator, a *assign.Assignment, g *cost.Ledger, s model.SessionID, st sessionState) {
	t.Helper()
	users := ev.Scenario().Session(s).Users
	if a.UserAgent(users[0]) != assign.Unassigned {
		g.Remove(ev.Params().SessionLoadOf(a, s))
	}
	if st.users == nil {
		for _, u := range users {
			a.SetUserAgent(u, assign.Unassigned)
		}
		for _, f := range a.SessionFlows(s) {
			if err := a.SetFlowAgent(f, assign.Unassigned); err != nil {
				t.Fatal(err)
			}
		}
		return
	}
	for i, u := range users {
		a.SetUserAgent(u, st.users[i])
	}
	a.SetSessionFlowAgents(s, st.flows)
	g.Add(ev.Params().SessionLoadOf(a, s))
}

// TestSessionMemoMatchesFreshEvaluation is the memo table's differential
// test: every session walks 30 times with one table shared by all of them
// and, in lockstep from the same state and seed, with none. The table holds
// a few dozen states, so states are evicted and the ring wraps, and it runs
// once more with every state hashed to one chain, so lookups tell states
// apart by their full key alone. The capacity-tight fleet carries degrade's
// faults, so states hold refusals the table keeps, and an agent perturbed
// returns to its fault's scale afterwards. Before every other walk the two
// ledgers get the same perturbation, taken in turn:
//
//  1. an agent of the session's envelope scaled to 0 for the walk, or
//  2. to 0.4;
//  3. another session's load pushing an envelope agent to within 1e-9 of its
//     download cap, 4. on either side of the certificate's slack;
//  5. the table side's ledger alone reading a wrong value — empty, or scaled
//     to 0 — at an agent no state of the walk reaches;
//  6. an agent of the session's envelope or witnesses scaled to 0 for one
//     walk, which records refusals there, and restored to 1 for a second
//     walk, which must see them lifted, or 7. the same from 0.4;
//  8. another session's load at a witness agent taken out, which may lift
//     the refusal;
//  9. load added at a witness agent, which keeps it;
//  10. the session departs — its load leaves the ledgers while the other
//     sessions walk — and arrives again into the state an earlier walk
//     started from, with nothing changed, or 11. with an envelope agent
//     scaled to 0, or 12. to 0.4, in between.
//
// Every HopResult must agree field by field, and so must the assignments
// and the ledgers after each walk. Every perturbation must have been
// applied, re-arrivals must have reused states of the earlier incarnation,
// and in capacity-tight, states holding a capacity refusal must have been
// served across walks.
func TestSessionMemoMatchesFreshEvaluation(t *testing.T) {
	const limit = 16 << 10
	for _, tc := range []struct {
		name           string
		tight, collide bool
	}{
		{"roomy", false, false},
		{"capacity-tight", true, false},
		{"roomy-one-chain", false, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ev, a0, ledger0 := tunedFleetFixture(t, 5, func(fc *workload.FleetConfig) {
				if tc.tight {
					fc.AgentBandwidthMbps = 250
					fc.AgentTranscodeSlots = 2
				}
			})
			sc := ev.Scenario()
			// rest is the scale an agent returns to after a perturbation.
			rest := func(model.AgentID) float64 { return 1 }
			if tc.tight {
				degrade(t, sc.NumAgents(), ledger0)
				rest = fault
			}
			cfg := DefaultConfig(1)
			cfg.NeighborWindow = hopWindow
			ix := assign.NewProximityIndex(sc, hopWindow)
			aMemo, ledgerMemo, scrMemo := a0.Clone(), ledger0.Clone(), NewHopScratch(ev)
			aFresh, ledgerFresh, scrFresh := a0.Clone(), ledger0.Clone(), NewHopScratch(ev)
			both := []*cost.Ledger{ledgerMemo, ledgerFresh}
			memo := NewMemoTable(limit, sc.NumSessions())
			memo.collide = tc.collide
			sessions := sc.NumSessions()
			// started[s] is the state session s's last unperturbed walk
			// started from; away[s] the perturbation its departure awaits
			// arriving again with (0: present).
			started := make([]sessionState, sessions)
			away, turn := make([]int, sessions), make([]int, sessions)
			var total, rearrived WalkStats
			var perturbed [13]int
			servedRefusing := 0
			wrapped := false
			// walk walks session s once with the table and once without it,
			// in lockstep from the same state and seed, and compares them.
			walk := func(seed int64, s model.SessionID, kind int) WalkStats {
				t.Helper()
				var fresh, got []HopResult
				start := aFresh.Clone()
				rngFresh, rngMemo := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
				if _, err := WalkSession(aFresh, s, ev, ledgerFresh, cfg, rngFresh, scrFresh, nil, walkBudget,
					func(res HopResult) { fresh = append(fresh, res) }); err != nil {
					t.Fatal(err)
				}
				st, err := WalkSession(aMemo, s, ev, ledgerMemo, cfg, rngMemo, scrMemo, memo, walkBudget,
					func(res HopResult) { got = append(got, res) })
				if err != nil {
					t.Fatal(err)
				}
				if len(got) != len(fresh) {
					t.Fatalf("seed %d session %d (perturbation %d): %d hops with the table, %d without", seed, s, kind, len(got), len(fresh))
				}
				for i := range fresh {
					if !sameHop(got[i], fresh[i]) {
						t.Fatalf("seed %d session %d (perturbation %d) hop %d:\n table %+v\n fresh %+v", seed, s, kind, i, got[i], fresh[i])
					}
				}
				if st.ReusedAcross > 0 {
					// Hops served across walks are from distinct states new
					// to the walk, so those beyond the walk's refusal-free
					// states held a refusal.
					bg := ledgerFresh.Clone()
					bg.Remove(ev.Params().SessionLoadOf(aFresh, s))
					servedRefusing += max(0, st.ReusedAcross-refusalFreeStates(t, ev, start, bg, s, cfg, fresh))
				}
				total.Hops += st.Hops
				total.Reused += st.Reused
				total.ReusedAcross += st.ReusedAcross
				return st
			}
			compare := func(seed int64, s model.SessionID) {
				t.Helper()
				if !aMemo.Equal(aFresh) || !sameLedger(ledgerMemo, ledgerFresh) {
					t.Fatalf("seed %d session %d: the walks left different states", seed, s)
				}
				if b := memo.Bytes(); b > limit {
					t.Fatalf("the table allocated %d bytes, over its limit of %d", b, limit)
				}
				wrapped = wrapped || memo.wrapped
			}
			// scale sets agent x's capacity scale on the given ledgers and
			// returns its undo.
			scale := func(x model.AgentID, f float64, gs ...*cost.Ledger) func() {
				for _, g := range gs {
					if err := g.SetCapacityScale(x, f); err != nil {
						t.Fatal(err)
					}
				}
				return func() {
					for _, g := range gs {
						if err := g.SetCapacityScale(x, rest(x)); err != nil {
							t.Fatal(err)
						}
					}
				}
			}
			// push adds load (sign 1) or takes it out (-1) on the given
			// ledgers and returns its undo.
			push := func(load *cost.SparseLoad, sign int, gs ...*cost.Ledger) func() {
				for _, g := range gs {
					if sign > 0 {
						g.Add(load)
					} else {
						g.Remove(load)
					}
				}
				return func() {
					for _, g := range gs {
						if sign > 0 {
							g.Remove(load)
						} else {
							g.Add(load)
						}
					}
				}
			}
			at := func(x model.AgentID, down, up float64, tasks int) *cost.SparseLoad {
				load := cost.NewSparseLoad(sc.NumAgents())
				load.AddAt(x, down, up, 0, tasks)
				return load
			}
			for seed := int64(0); seed < 30; seed++ {
				for si := range sessions {
					s := model.SessionID(si)
					// Every other walk is unperturbed, so the table has
					// refilled before the next perturbation. A departed
					// session stays away for one of those and arrives again
					// in place of its next perturbation.
					kind := 0
					if seed%2 == 1 {
						if kind = away[si]; kind == 0 {
							kind = 1 + (turn[si]+si)%(len(perturbed)-1)
							turn[si]++
						}
					} else if away[si] > 0 {
						continue
					}
					env, wit := memo.sess[s].env, memo.sess[s].wit
					if kind >= 10 && away[si] == 0 {
						if len(env) == 0 || started[si].users == nil {
							continue
						}
						// Depart: the other sessions walk without this one.
						setState(t, ev, aMemo, ledgerMemo, s, sessionState{})
						setState(t, ev, aFresh, ledgerFresh, s, sessionState{})
						away[si] = kind
						perturbed[kind]++
						continue
					}
					undo := func() {}
					var x model.AgentID
					switch {
					case away[si] > 0:
						// Arrive again into an earlier walk's start state.
						if kind > 10 {
							undo = scale(model.AgentID(env[int(seed)%len(env)].Agent), map[int]float64{11: 0, 12: 0.4}[kind], both...)
						}
						setState(t, ev, aMemo, ledgerMemo, s, started[si])
						setState(t, ev, aFresh, ledgerFresh, s, started[si])
						away[si] = 0
					case kind == 0:
						started[si] = stateOf(aMemo, s)
					case kind <= 4 && len(env) > 0:
						x = model.AgentID(env[int(seed)%len(env)].Agent)
						perturbed[kind]++
						switch kind {
						case 1, 2:
							undo = scale(x, map[int]float64{1: 0, 2: 0.4}[kind], both...)
						case 3, 4:
							// The walk takes the session's own load out first;
							// fill the rest of the agent's download up to the
							// envelope's slack, 0.5e-9 inside it or 1e-9 past.
							down, _, _ := ledgerMemo.UsageAt(x)
							own, _, _, _ := ev.Params().SessionLoadOf(aMemo, s).At(x)
							e := env[int(seed)%len(env)]
							fill := map[int]float64{3: 0.5e-9, 4: 2e-9}[kind]
							extra := sc.Agent(x).Download + fill - (down - own) - e.Down
							if extra <= 0 {
								perturbed[kind]--
								break
							}
							undo = push(at(x, extra, 0, 0), 1, both...)
						}
					case kind == 5:
						// Only the table side's ledger is wrong, and only
						// where no state of this walk reads it.
						var ok bool
						if x, ok = unreached(ix, aMemo, s, env, wit); !ok {
							break
						}
						perturbed[kind]++
						if perturbed[kind]%2 == 0 {
							undo = scale(x, 0, ledgerMemo)
						} else {
							down, up, tasks := ledgerMemo.UsageAt(x)
							undo = push(at(x, down, up, tasks), -1, ledgerMemo)
						}
					case kind <= 7 && len(env)+len(wit) > 0:
						if len(wit) > 0 {
							x = model.AgentID(wit[int(seed)%len(wit)].Agent)
						} else {
							x = model.AgentID(env[int(seed)%len(env)].Agent)
						}
						scale(x, map[int]float64{6: 0, 7: 0.4}[kind], both...)
						walk(seed, s, kind)
						compare(seed, s)
						if slices.ContainsFunc(memo.sess[s].wit, func(w cost.Refusal) bool { return model.AgentID(w.Agent) == x }) {
							perturbed[kind]++
						}
						undo = scale(x, 1, both...)
					case kind <= 9 && len(wit) > 0:
						x = model.AgentID(wit[int(seed)%len(wit)].Agent)
						if kind == 9 {
							perturbed[kind]++
							undo = push(at(x, 1, 1, 1), 1, both...)
							break
						}
						for o := range sessions {
							if o == si || away[o] > 0 {
								continue
							}
							if down, up, _, tasks := ev.Params().SessionLoadOf(aMemo, model.SessionID(o)).At(x); down+up > 0 || tasks > 0 {
								perturbed[kind]++
								undo = push(at(x, down, up, tasks), -1, both...)
								break
							}
						}
					}
					st := walk(seed, s, kind)
					if kind == 10 {
						rearrived.Hops += st.Hops
						rearrived.ReusedAcross += st.ReusedAcross
					}
					undo()
					compare(seed, s)
				}
			}
			if total.ReusedAcross == 0 || rearrived.ReusedAcross == 0 {
				t.Fatalf("%d hops reused a state across walks, %d of them on arriving again: the table was not exercised",
					total.ReusedAcross, rearrived.ReusedAcross)
			}
			if tc.tight && servedRefusing == 0 {
				t.Fatalf("no state holding a capacity refusal was served across walks")
			}
			for kind, n := range perturbed {
				// The roomy fleet refuses nothing at a scale of 0.4 and
				// keeps no witness from one walk to the next.
				if n == 0 && kind > 0 && (tc.tight || kind < 7 || kind > 9) {
					t.Fatalf("perturbation %d never applied", kind)
				}
			}
			// The head wraps only to words the tail has left, so states were
			// evicted too.
			if !wrapped {
				t.Fatal("the ring never wrapped")
			}
			t.Logf("%d hops: %d reused within walks, %d across (%d of %d on arriving again, at least %d holding a refusal); perturbations %v",
				total.Hops, total.Reused, total.ReusedAcross, rearrived.ReusedAcross, rearrived.Hops, servedRefusing, perturbed)
		})
	}
}

// refusalFreeStates counts the distinct states session s's walk priced —
// from the state start holds, along trail — among whose neighbors capacity
// refused none, against the walk's background bg.
func refusalFreeStates(t *testing.T, ev *cost.Evaluator, start *assign.Assignment, bg *cost.Ledger, s model.SessionID, cfg Config, trail []HopResult) int {
	t.Helper()
	probe, seen, n := NewHopScratch(ev), map[string]bool{}, 0
	for _, res := range trail {
		if key := fmt.Sprint(appendKey(nil, start, s)); !seen[key] {
			seen[key] = true
			ev.BeginSession(start, s, probe.eval)
			probe.decisions = probe.appendNeighbors(start, s, cfg)
			if _, err := probe.price(start, s, ev, bg, true); err != nil {
				t.Fatal(err)
			}
			if len(probe.wit) == 0 {
				n++
			}
		}
		if res.Moved {
			if _, err := start.Apply(res.Decision); err != nil {
				t.Fatal(err)
			}
		}
	}
	return n
}

// unreached returns an agent that no state a walk of session s can reach
// reads — outside its members' windows and its members' and flows' current
// agents — preferring one of the session's envelope or witnesses.
func unreached(ix *assign.ProximityIndex, a *assign.Assignment, s model.SessionID, env []cost.EnvelopeAgent, wit []cost.Refusal) (model.AgentID, bool) {
	reach := map[model.AgentID]bool{}
	for _, u := range a.Scenario().Session(s).Users {
		reach[a.UserAgent(u)] = true
		for _, l := range ix.UserWindow(u) {
			reach[l] = true
		}
	}
	for _, l := range a.SessionFlowAgents(s) {
		reach[l] = true
	}
	var cands []model.AgentID
	for _, e := range env {
		cands = append(cands, model.AgentID(e.Agent))
	}
	for _, w := range wit {
		cands = append(cands, model.AgentID(w.Agent))
	}
	for l := range a.Scenario().NumAgents() {
		cands = append(cands, model.AgentID(l))
	}
	for _, l := range cands {
		if !reach[l] {
			return l, true
		}
	}
	return 0, false
}
