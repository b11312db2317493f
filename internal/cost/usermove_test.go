package cost

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"vconf/internal/assign"
	"vconf/internal/model"
)

// userMoveCases tallies the moves checkUserMoves priced on the delta, by the
// edge cases the delta's rules distinguish.
type userMoveCases struct {
	delta, rebuilt                    int
	empty, ontoOwnTrans, ontoTransOfJ int
	sharedEdge, strictOntoSource      int
}

// checkUserMoves tries every single-member move of session s from the state
// a holds: BeginSession, Apply, then the delta (which must apply exactly when
// the certificate holds and every member and flow is assigned) and
// CandidateLoad, whose load must be the reference's in all four components
// at every agent, with the touched set and marks of a fresh rebuild. a is
// left as it was.
func checkUserMoves(t *testing.T, ev *Evaluator, a *assign.Assignment, s model.SessionID, scr *Scratch, tally *userMoveCases) {
	t.Helper()
	sc := a.Scenario()
	plan := sc.Plan(s)
	users := sc.Session(s).Users
	full := true
	for _, u := range users {
		full = full && a.UserAgent(u) != assign.Unassigned
	}
	for _, to := range a.SessionFlowAgents(s) {
		full = full && to != assign.Unassigned
	}
	for i, u := range users {
		k := a.UserAgent(u)
		for k2 := model.AgentID(0); int(k2) < sc.NumAgents(); k2++ {
			if k2 == k {
				continue
			}
			what := fmt.Sprintf("member %d %d→%d", i, k, k2)
			ev.BeginSession(a, s, scr)
			before := slices.Clone(scr.cur.touched)
			inv, err := a.Apply(assign.Decision{Kind: assign.UserMove, User: u, To: k2})
			if err != nil {
				t.Fatal(err)
			}
			want := ev.exact && full
			if got := ev.loadDelta(a, s, scr); got != want {
				t.Fatalf("%s: delta applied = %v, want %v", what, got, want)
			}
			ref := sameCandidate(t, what, ev, a, s, ev.CandidateLoad(a, s, scr))
			if _, err := a.Apply(inv); err != nil {
				t.Fatal(err)
			}
			if !want {
				tally.rebuilt++
				continue
			}
			tally.delta++
			if slices.Contains(before, int32(k)) && !slices.Contains(ref, int32(k)) {
				tally.empty++
			}
			flowTo := a.SessionFlowAgents(s)
			for j := range users {
				mj := plan.Members[j]
				for g := mj.FlowStart; g < mj.FlowEnd; g++ {
					if flowTo[g] != k2 {
						continue
					}
					if j == i {
						tally.ontoOwnTrans++
					} else {
						tally.ontoTransOfJ++
					}
				}
				if j == i {
					continue
				}
				ji := plan.Pair(j, i).Flow
				if ji < 0 {
					continue
				}
				if ev.p.StrictPaperTraffic && a.UserAgent(users[j]) == k2 {
					tally.strictOntoSource++
				}
				for g := mj.FlowStart; g < mj.FlowEnd; g++ {
					lv := a.UserAgent(users[plan.Flows[g].Dst])
					if g != ji && flowTo[g] == flowTo[ji] && plan.Flows[g].Rep == plan.Flows[ji].Rep &&
						(lv == k || lv == k2) {
						tally.sharedEdge++
						break
					}
				}
			}
		}
	}
}

// TestUserMoveLoadDeltaMatchesRebuild: every single-member move of random
// exact-rate sessions of 2…14 members, packed on three agents or spread
// over eight, StrictPaperTraffic and DownscaleOnly on and off, prices on the
// delta to the rebuild's load bit for bit — a move that empties its old
// agent, lands on a transcoder of the member's own stream or of another
// source's, meets a shared (m, lv, r) edge of a flow toward the member, and
// lands on that flow's source agent under the strict formula included.
// Partial states (a member unassigned) are rebuilt, and a non-dyadic set
// refuses the certificate and still matches. Every neighbour is also priced
// in the hop's order on one prepared scratch, each delta starting from the
// cand the one before it left.
func TestUserMoveLoadDeltaMatchesRebuild(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	const numAgents = 8
	var tally userMoveCases
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
			if n > 2 && rng.Intn(6) == 0 { // a partial state, as during admission
				a.SetUserAgent(model.UserID(rng.Intn(n)), assign.Unassigned)
			}
			checkUserMoves(t, ev, a, 0, ev.NewScratch(), &tally)
			checkNeighbourSequence(t, ev, a, 0, ev.NewScratch())
		}
	}
	t.Logf("%+v", tally)
	if tally.delta == 0 || tally.rebuilt == 0 || tally.empty == 0 || tally.ontoOwnTrans == 0 ||
		tally.ontoTransOfJ == 0 || tally.sharedEdge == 0 || tally.strictOntoSource == 0 {
		t.Fatalf("an edge case was never exercised: %+v", tally)
	}

	// Every writer of cur keeps the delta honest: after BeginSession
	// prepares a state, SessionLoadSparse overwrites cur with another one,
	// and a member move from the prepared state must still price right.
	sc := flowMoveScenario(t, rng, dyadicReps(t), 6, numAgents, false)
	ev, err := NewEvaluator(sc, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	a := randomComplete(sc, rng)
	scr := ev.NewScratch()
	for u := range sc.NumUsers() {
		from := a.UserAgent(model.UserID(u))
		ev.BeginSession(a, 0, scr)
		a.SetUserAgent(model.UserID(u), (from+1)%numAgents)
		ev.SessionLoadSparse(a, 0, scr) // cur now holds another state
		a.SetUserAgent(model.UserID(u), (from+2)%numAgents)
		sameLoad(t, "move after SessionLoadSparse", ev.CandidateLoad(a, 0, scr), sessionLoadDense(ev.p, a, 0))
		a.SetUserAgent(model.UserID(u), from)
	}

	// Rates off the 2⁻⁸ grid refuse the certificate; the moves rebuild.
	sc = flowMoveScenario(t, rng, nonDyadicReps(t), 6, numAgents, false)
	if ev, err = NewEvaluator(sc, DefaultParams()); err != nil {
		t.Fatal(err)
	}
	if ev.exact {
		t.Fatal("non-dyadic rates carry the certificate")
	}
	checkUserMoves(t, ev, randomComplete(sc, rng), 0, ev.NewScratch(), &userMoveCases{})
}

// BenchmarkCandidateLoadUserMove times CandidateLoad over every member move
// of a session of n members on the shipped bitrate set, packed on four of 16
// agents with about one transcoding flow per member, against rebuilding the
// same candidates.
func BenchmarkCandidateLoadUserMove(b *testing.B) {
	for _, n := range []int{5, 12} {
		for _, path := range []string{"delta", "rebuild"} {
			b.Run(fmt.Sprintf("n=%d/%s", n, path), func(b *testing.B) {
				rng := rand.New(rand.NewSource(int64(n)))
				mb := model.NewBuilder(nil)
				for l := 0; l < 16; l++ {
					mb.AddAgent(model.Agent{Upload: 1000, Download: 1000, TranscodeSlots: 16})
				}
				s := mb.AddSession("s")
				users := make([]model.UserID, n)
				for i := range users {
					users[i] = mb.AddUser("u", s, model.Representation(rng.Intn(mb.Reps().Len())), nil)
				}
				for _, u := range users {
					if v := users[rng.Intn(n)]; u != v {
						mb.DemandFrom(u, v, model.Representation(rng.Intn(mb.Reps().Len())))
					}
				}
				sc, err := mb.Build()
				if err != nil {
					b.Fatal(err)
				}
				ev, err := NewEvaluator(sc, DefaultParams())
				if err != nil {
					b.Fatal(err)
				}
				a := assign.New(sc)
				for i, u := range users {
					a.SetUserAgent(u, model.AgentID(i%4))
				}
				for _, fl := range a.Flows() {
					if err := a.SetFlowAgent(fl, model.AgentID(rng.Intn(4))); err != nil {
						b.Fatal(err)
					}
				}
				scr := ev.NewScratch()
				ev.BeginSession(a, s, scr)
				b.ReportAllocs()
				b.ResetTimer()
				for it := 0; it < b.N; it++ {
					u := users[it%n]
					from := a.UserAgent(u)
					a.SetUserAgent(u, model.AgentID((int(from)+1+it/n%15)%16))
					if path == "delta" {
						ev.CandidateLoad(a, s, scr)
					} else {
						ev.p.sessionLoadSparse(a, s, &scr.cand, scr)
					}
					a.SetUserAgent(u, from)
				}
			})
		}
	}
}
