package cost

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"vconf/internal/assign"
	"vconf/internal/model"
)

// Tests of NeighbourLoad's single-flow-move delta (prepareFlow, flowLoad)
// against a rebuild of the moved state; usermove_test.go holds the
// member-move one.

// dyadicReps is a lo 0.375 / mid 1.75 / hi 4.125 Mbps set: every bitrate a
// multiple of 2⁻⁸ Mbps, so the exactness certificate holds.
func dyadicReps(t *testing.T) *model.RepresentationSet {
	t.Helper()
	reps, err := model.NewRepresentationSet([]model.RepSpec{
		{Name: "lo", Mbps: 0.375}, {Name: "mid", Mbps: 1.75}, {Name: "hi", Mbps: 4.125},
	})
	if err != nil {
		t.Fatal(err)
	}
	return reps
}

// flowMoveCases tallies the moves checkFlowMoves priced on the delta, by
// the edge cases the delta's rules distinguish.
type flowMoveCases struct {
	delta, rebuilt                      int
	toSource, toDest, fromSource, empty int
	dupEdge                             int
}

// checkFlowMoves tries every single-flow move of session s from the state a
// holds: BeginSession, then the delta (which must apply exactly when the
// certificate holds and the moved flow's source, destination and old
// transcoder are assigned) and NeighbourLoad, whose load must be the
// reference's in all four components at every agent, with the touched set
// and marks of a fresh rebuild. a is left as it was.
func checkFlowMoves(t *testing.T, ev *Evaluator, a *assign.Assignment, s model.SessionID, scr *Scratch, tally *flowMoveCases) {
	t.Helper()
	sc := a.Scenario()
	plan := sc.Plan(s)
	flows := a.SessionFlowsShared(s)
	for f, fl := range flows {
		i, j := sc.MemberIndex(fl.Src), sc.MemberIndex(fl.Dst)
		k, lv := a.UserAgent(fl.Src), a.UserAgent(fl.Dst)
		m := a.SessionFlowAgents(s)[f]
		for m2 := model.AgentID(0); int(m2) < sc.NumAgents(); m2++ {
			if m2 == m {
				continue
			}
			what := fmt.Sprintf("flow %d (%d→%d) %d→%d", f, i, j, m, m2)
			ev.BeginSession(a, s, scr)
			before := slices.Clone(scr.cur.touched)
			want := ev.exact && k != assign.Unassigned && lv != assign.Unassigned && m != assign.Unassigned
			if got := ev.exact && ev.moveLoad(a, s, scr, assign.FlowMove, f, m2); got != want {
				t.Fatalf("%s: delta applied = %v, want %v", what, got, want)
			}
			ref := sameNeighbour(t, what, ev, a, s, assign.Decision{Kind: assign.FlowMove, Flow: fl, To: m2}, scr)
			if !want {
				tally.rebuilt++
				continue
			}
			tally.delta++
			if m2 == k {
				tally.toSource++
			}
			if m2 == lv {
				tally.toDest++
			}
			if m == k {
				tally.fromSource++
			}
			if slices.Contains(before, int32(m)) && !slices.Contains(ref, int32(m)) {
				tally.empty++
			}
			mem := plan.Members[i]
			for g := int(mem.FlowStart); g < int(mem.FlowEnd); g++ {
				to := a.SessionFlowAgents(s)[g]
				if g != f && (to == m || to == m2) && plan.Flows[g].Rep == plan.Flows[f].Rep &&
					a.UserAgent(sc.Session(s).Users[plan.Flows[g].Dst]) == lv {
					tally.dupEdge++
					break
				}
			}
		}
	}
}

// sameNeighbour prices d with NeighbourLoad from the state a holds, which
// BeginSession prepared on scr, and requires the load to be that of the
// state d reaches (sameCandidate). a is left as it was.
func sameNeighbour(t *testing.T, what string, ev *Evaluator, a *assign.Assignment, s model.SessionID, d assign.Decision, scr *Scratch) []int32 {
	t.Helper()
	load, err := ev.NeighbourLoad(a, s, d, scr)
	if err != nil {
		t.Fatal(err)
	}
	inv, err := a.Apply(d)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Apply(inv)
	return sameCandidate(t, what, ev, a, s, load)
}

// sameCandidate requires the candidate load of session s to be the
// reference's in all four components at every agent, with the touched set
// and marks of a fresh rebuild, and returns the rebuild's touched agents in
// ascending order.
func sameCandidate(t *testing.T, what string, ev *Evaluator, a *assign.Assignment, s model.SessionID, cand *SparseLoad) []int32 {
	t.Helper()
	sameLoad(t, what, cand, sessionLoadDense(ev.p, a, s))
	fresh := ev.p.SessionLoadOf(a, s)
	got, ref := slices.Clone(cand.touched), slices.Clone(fresh.touched)
	slices.Sort(got)
	slices.Sort(ref)
	if !slices.Equal(got, ref) {
		t.Fatalf("%s: touched %v, rebuild touches %v", what, got, ref)
	}
	for l := range cand.mark {
		if cand.mark[l] != fresh.mark[l] {
			t.Fatalf("%s: mark[%d] = %v, rebuild %v", what, l, cand.mark[l], fresh.mark[l])
		}
	}
	return ref
}

// checkNeighbourSequence prices every one-decision neighbour of session s
// in the hop's order on one scratch prepared once, as Alg. 1's candidate
// loop does, so each delta starts from the cand the one before it left;
// each candidate must match the reference. a is left as it was.
func checkNeighbourSequence(t *testing.T, ev *Evaluator, a *assign.Assignment, s model.SessionID, scr *Scratch) {
	t.Helper()
	ev.BeginSession(a, s, scr)
	for _, d := range a.AppendSessionNeighborDecisions(nil, s) {
		sameNeighbour(t, "neighbour "+d.String(), ev, a, s, d, scr)
	}
}

// flowMoveScenario is one session of n members over numAgents agents,
// each member demanding a random representation from about half of the
// others, so a source's flows often share a representation and a
// destination agent.
func flowMoveScenario(t *testing.T, rng *rand.Rand, reps *model.RepresentationSet, n, numAgents int, downscaleOnly bool) *model.Scenario {
	t.Helper()
	b := model.NewBuilder(reps)
	if downscaleOnly {
		b.RestrictDownscaleOnly()
	}
	for l := 0; l < numAgents; l++ {
		b.AddAgent(model.Agent{Upload: 1000, Download: 1000, TranscodeSlots: 16,
			SigmaMS:               model.UniformSigma(reps.Len(), 20),
			TrafficPricePerMbps:   0.5 + 0.1*float64(l),
			TranscodePricePerTask: 1 + 0.1*float64(l),
		})
	}
	s := b.AddSession("s")
	users := make([]model.UserID, n)
	for i := range users {
		users[i] = b.AddUser("u", s, model.Representation(rng.Intn(reps.Len())), nil)
	}
	for _, u := range users {
		for _, v := range users {
			if u != v && rng.Intn(2) == 0 {
				b.DemandFrom(u, v, model.Representation(rng.Intn(reps.Len())))
			}
		}
	}
	sc, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return sc
}

// TestFlowMoveLoadDeltaMatchesRebuild: every single-flow move of random
// exact-rate sessions of 2…14 members, packed on three agents or spread
// over eight, StrictPaperTraffic and DownscaleOnly on and off, some members
// unassigned, prices on the delta to the rebuild's load bit for bit — the
// transcoder moving to the source's or the destination's agent or off the
// source's, a move that empties a transcoder and duplicate (m, lv, r) edges
// included. A non-dyadic set refuses the certificate and still matches.
func TestFlowMoveLoadDeltaMatchesRebuild(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	const numAgents = 8
	var tally flowMoveCases
	for n := 2; n <= 14; n++ {
		for variant := 0; variant < 8; variant++ {
			packed, strict, downscale := variant&1 != 0, variant&2 != 0, variant&4 != 0
			sc := flowMoveScenario(t, rng, dyadicReps(t), n, numAgents, downscale)
			p := DefaultParams()
			p.StrictPaperTraffic = strict
			ev, err := NewEvaluator(sc, p)
			if err != nil {
				t.Fatal(err)
			}
			if !ev.exact {
				t.Fatal("dyadic rates refused the certificate")
			}
			span := numAgents
			if packed {
				span = 3
			}
			a := assign.New(sc)
			for u := 0; u < sc.NumUsers(); u++ {
				a.SetUserAgent(model.UserID(u), model.AgentID(rng.Intn(span)))
			}
			for _, fl := range a.Flows() {
				if err := a.SetFlowAgent(fl, model.AgentID(rng.Intn(span))); err != nil {
					t.Fatal(err)
				}
			}
			if n > 2 && rng.Intn(3) == 0 { // a partial state, as during admission
				a.SetUserAgent(model.UserID(rng.Intn(n)), assign.Unassigned)
			}
			checkFlowMoves(t, ev, a, 0, ev.NewScratch(), &tally)
		}
	}
	t.Logf("%+v", tally)
	if tally.delta == 0 || tally.rebuilt == 0 || tally.toSource == 0 || tally.toDest == 0 ||
		tally.fromSource == 0 || tally.empty == 0 || tally.dupEdge == 0 {
		t.Fatalf("an edge case was never exercised: %+v", tally)
	}

	// Every writer of cur keeps the delta honest: after BeginSession
	// prepares a state, SessionLoadSparse overwrites cur with another one,
	// and a flow move from the prepared state must still price right.
	sc := flowMoveScenario(t, rng, dyadicReps(t), 6, numAgents, false)
	ev, err := NewEvaluator(sc, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	a := randomComplete(sc, rng)
	scr := ev.NewScratch()
	move := func(fl model.Flow, to model.AgentID) {
		t.Helper()
		if err := a.SetFlowAgent(fl, to); err != nil {
			t.Fatal(err)
		}
	}
	for _, fl := range a.Flows() {
		from, _ := a.FlowAgent(fl)
		ev.BeginSession(a, 0, scr)
		move(fl, (from+1)%numAgents)
		ev.SessionLoadSparse(a, 0, scr) // cur now holds another state
		move(fl, from)                  // back to the prepared one
		sameNeighbour(t, "move after SessionLoadSparse", ev, a, 0,
			assign.Decision{Kind: assign.FlowMove, Flow: fl, To: (from + 2) % numAgents}, scr)
	}

	// Rates off the 2⁻⁸ grid, or above 2¹⁶ Mbps, refuse the certificate.
	big, err := model.NewRepresentationSet([]model.RepSpec{{Name: "lo", Mbps: 1}, {Name: "huge", Mbps: 1 << 17}})
	if err != nil {
		t.Fatal(err)
	}
	for _, reps := range []*model.RepresentationSet{nonDyadicReps(t), big} {
		sc := flowMoveScenario(t, rng, reps, 6, numAgents, false)
		ev, err := NewEvaluator(sc, DefaultParams())
		if err != nil {
			t.Fatal(err)
		}
		if ev.exact {
			t.Fatalf("rates %v carry the certificate", reps.Bitrate(1))
		}
		checkFlowMoves(t, ev, randomComplete(sc, rng), 0, ev.NewScratch(), &flowMoveCases{})
	}
}
