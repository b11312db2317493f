package model

import (
	"math/rand"
	"testing"
)

// TestPlanMatchesDemandMaps: the compiled plan against its definition — the
// users' demand maps with the DownscaleOnly clamp — for every participant
// pair of random scenarios: the pair table, each member's last-mile sum and
// flow range, the flow table against SessionThetaFlows, plus the accessors
// answered from it.
func TestPlanMatchesDemandMaps(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for trial := 0; trial < 50; trial++ {
		b := NewBuilder(nil)
		if trial%2 == 1 {
			b.RestrictDownscaleOnly()
		}
		reps := b.Reps().Len()
		b.AddAgent(Agent{Upload: 1, Download: 1})
		var users []UserID
		for s := 0; s < 3; s++ {
			sid := b.AddSession("s")
			first := len(users)
			for i, n := 0, 1+rng.Intn(5); i < n; i++ {
				users = append(users, b.AddUser("u", sid, Representation(rng.Intn(reps)), nil))
			}
			for _, u := range users[first:] {
				for _, v := range users[first:] {
					if u != v && rng.Intn(2) == 0 {
						b.DemandFrom(u, v, Representation(rng.Intn(reps)))
					}
				}
			}
		}
		sc, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		// want is Downstream by definition, from the demand map.
		want := func(dst, src UserID) Representation {
			r := sc.Users[dst].DownstreamFrom(&sc.Users[src])
			if up := sc.Users[src].Upstream; sc.DownscaleOnly && r > up {
				return up
			}
			return r
		}
		thetaSum := 0
		for s := range sc.Sessions {
			plan := sc.Plan(SessionID(s))
			members := sc.Sessions[s].Users
			flows := sc.SessionThetaFlows(SessionID(s))
			next := 0
			for i, u := range members {
				if sc.MemberIndex(u) != i {
					t.Fatalf("MemberIndex(%d) = %d, want %d", u, sc.MemberIndex(u), i)
				}
				up := sc.Users[u].Upstream
				m := plan.Members[i]
				if m.UpRep != up || m.UpMbps != sc.Reps.Bitrate(up) || int(m.FlowStart) != next {
					t.Fatalf("member %d: plan %+v, upstream %d, first flow %d", u, m, up, next)
				}
				in := 0.0 // the sequential sum, in Participants order
				for jj, v := range sc.Participants(u) {
					pr := plan.Row(i)[jj]
					if plan.Pair(i, sc.MemberIndex(v)) != &plan.Row(i)[jj] {
						t.Fatalf("Pair(%d,%d) is not row %d slot %d", i, sc.MemberIndex(v), i, jj)
					}
					out := want(v, u)
					in += sc.Reps.Bitrate(want(u, v))
					if Representation(pr.Rep) != out {
						t.Fatalf("pair %d→%d: plan %+v, want rep %d", u, v, pr, out)
					}
					f := Flow{Src: u, Dst: v}
					theta := out != up
					if sc.Theta(u, v) != theta || sc.Downstream(v, u) != out || sc.DownstreamRep(f) != out {
						t.Fatalf("pair %d→%d: Theta %v Downstream %d, want %v %d", u, v, sc.Theta(u, v), sc.Downstream(v, u), theta, out)
					}
					idx := -1
					if theta {
						idx = next
						if flows[idx] != f {
							t.Fatalf("SessionThetaFlows[%d] = %v, want %v", idx, flows[idx], f)
						}
						if pf := plan.Flows[idx]; int(pf.Dst) != sc.MemberIndex(v) || Representation(pf.Rep) != out || pf.OutMbps != sc.Reps.Bitrate(out) {
							t.Fatalf("flow %d→%d: plan %+v, want destination %d at rep %d", u, v, pf, sc.MemberIndex(v), out)
						}
						next++
					}
					if int(pr.Flow) != idx || sc.ThetaFlowIndex(f) != idx {
						t.Fatalf("pair %d→%d: flow index %d / %d, want %d", u, v, pr.Flow, sc.ThetaFlowIndex(f), idx)
					}
				}
				if m.InMbps != in || int(m.FlowEnd) != next {
					t.Fatalf("member %d: plan %+v, want last-mile downstream %v and flows ending at %d", u, m, in, next)
				}
			}
			if next != len(flows) || len(plan.Flows) != len(flows) {
				t.Fatalf("session %d: %d transcoding pairs, %d flows, %d plan flows", s, next, len(flows), len(plan.Flows))
			}
			thetaSum += next
		}
		if sc.ThetaSum() != thetaSum {
			t.Fatalf("ThetaSum = %d, want %d", sc.ThetaSum(), thetaSum)
		}
		// Users of different sessions, and a user with itself, are no pair.
		first, last := users[0], users[len(users)-1]
		if sc.Theta(first, last) || sc.Theta(first, first) || sc.ThetaFlowIndex(Flow{Src: first, Dst: last}) != -1 {
			t.Fatal("a non-participant pair reads as a transcoding flow")
		}
		if sc.Downstream(last, first) != sc.Users[first].Upstream {
			t.Fatal("Downstream across sessions must default to the source's upstream")
		}
	}
}

// TestPlanViewsDoNotAllocate: Plan hands out views of tables compiled at
// construction — nothing is built on the evaluation path.
func TestPlanViewsDoNotAllocate(t *testing.T) {
	sc := buildTwoSessionScenario(t)
	var sink float64
	if allocs := testing.AllocsPerRun(100, func() {
		for s := 0; s < sc.NumSessions(); s++ {
			plan := sc.Plan(SessionID(s))
			for i, m := range plan.Members {
				sink += m.InMbps
				for _, pr := range plan.Row(i) {
					sink += float64(pr.Rep)
				}
				for _, fl := range plan.Flows[m.FlowStart:m.FlowEnd] {
					sink += fl.OutMbps
				}
			}
		}
	}); allocs != 0 {
		t.Fatalf("walking the plan allocates %v times per run, want 0", allocs)
	}
	_ = sink
}

// SessionThetaFlows returns the transcoding flows (source, destination)
// inside session s, in deterministic order.
func (sc *Scenario) SessionThetaFlows(s SessionID) []Flow {
	var flows []Flow
	plan := sc.Plan(s)
	for i, u := range sc.Sessions[s].Users {
		row := plan.Row(i)
		for jj, v := range sc.participants[u] {
			if row[jj].Flow >= 0 {
				flows = append(flows, Flow{Src: u, Dst: v})
			}
		}
	}
	return flows
}

// Row returns member i's pairs, aligned with Participants(Users[i]).
func (p SessionPlan) Row(i int) []PlanPair {
	w := len(p.Members) - 1
	return p.Pairs[i*w : (i+1)*w]
}
