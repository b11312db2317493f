package model

// This file compiles each session's constant evaluation structure once, at
// scenario construction: everything the cost functions look up per
// (source, destination) pair — θ, the effective downstream representation
// and its bitrate, the pair's transcoding-flow index — is a pure function of
// the immutable scenario, yet the hop walk of Alg. 1 re-derived it through
// map probes for every candidate of every hop. The plan is three flat tables
// shared read-only by every evaluator, scratch and worker; it is never
// mutated after NewScenario returns.

// PlanMember is the compiled per-member data of a session plan.
type PlanMember struct {
	// UpMbps is κ(r^u_u): the bitrate of the member's upstream.
	UpMbps float64
	// InMbps is the member's last-mile downstream: the bitrates of the
	// effective downstream representations of its n−1 incoming flows, summed
	// in Participants order. This sum is the canonical association of the
	// first term of constraint (6); cost's load kernel adds it once per
	// member, and the kernel's test-side reference forms the same sum.
	InMbps float64
	// UpRep is r^u_u, the member's upstream representation.
	UpRep Representation
	// The member's transcoding flows are Flows[FlowStart:FlowEnd].
	FlowStart, FlowEnd int32
}

// PlanPair is the compiled data of one directed participant pair (i, j):
// member i as the source, its participant j as the destination.
type PlanPair struct {
	// Flow is the index of flow i→j among the session's transcoding flows
	// (source-major, the order assign.SessionFlowAgents is aligned with),
	// or -1 when θ_ij = 0.
	Flow int32
	// Rep is the effective downstream representation of flow i→j.
	Rep int32
}

// PlanFlow is the compiled data of one transcoding flow (θ_ij = 1).
type PlanFlow struct {
	// OutMbps is the bitrate of the flow's effective downstream
	// representation (what the destination receives of the source's stream).
	OutMbps float64
	// Dst is the destination's member index.
	Dst int32
	// Rep is the effective downstream representation.
	Rep int32
}

// SessionPlan is one session's view into the scenario's compiled plan.
// Members is aligned with Session.Users; Pairs holds member i's n−1 pairs
// at [i·(n−1), (i+1)·(n−1)) in Participants order; Flows is aligned with
// assign.SessionFlowAgents (source-major, each source's flows in
// Participants order). All are shared slices; callers
// must not mutate them.
type SessionPlan struct {
	Members []PlanMember
	Pairs   []PlanPair
	Flows   []PlanFlow
}

// Pair returns the pair with source member i and destination member j
// (i ≠ j).
func (p SessionPlan) Pair(i, j int) *PlanPair {
	if j > i {
		j--
	}
	return &p.Pairs[i*(len(p.Members)-1)+j]
}

// planRef locates one user in the plan: its session, the offset of its row
// in the flat pair table, and its position in the session's Users list.
type planRef struct {
	session, row, pos int32
}

// Plan returns session s's compiled evaluation plan.
func (sc *Scenario) Plan(s SessionID) SessionPlan {
	return SessionPlan{
		Members: sc.planMembers[sc.memberStart[s]:sc.memberStart[s+1]],
		Pairs:   sc.planPairs[sc.pairStart[s]:sc.pairStart[s+1]],
		Flows:   sc.planFlows[sc.flowStart[s]:sc.flowStart[s+1]],
	}
}

// MemberIndex returns u's position in its session's Users list.
func (sc *Scenario) MemberIndex(u UserID) int { return int(sc.planRefs[u].pos) }

// pair returns the plan entry of flow src→dst, or nil when the two users do
// not form a participant pair (different sessions, or src == dst).
func (sc *Scenario) pair(src, dst UserID) *PlanPair {
	a, b := sc.planRefs[src], sc.planRefs[dst]
	if src == dst || a.session != b.session {
		return nil
	}
	if b.pos > a.pos {
		b.pos--
	}
	return &sc.planPairs[a.row+b.pos]
}

// ThetaFlowIndex returns the index of f among the transcoding flows of its
// session (source-major), or -1 when f needs no transcoding.
func (sc *Scenario) ThetaFlowIndex(f Flow) int {
	if p := sc.pair(f.Src, f.Dst); p != nil {
		return int(p.Flow)
	}
	return -1
}

// ThetaFlowTable returns every transcoding flow of the scenario, session by
// session, source-major; start[s]..start[s+1] delimit session
// s's. Shared; callers must not mutate either.
func (sc *Scenario) ThetaFlowTable() (flows []Flow, start []int32) {
	return sc.thetaFlows, sc.flowStart
}

// buildPlan compiles every session's plan into the flat tables and counts
// θ^sum. It needs participants to be built.
func (sc *Scenario) buildPlan() {
	ns := len(sc.Sessions)
	sc.planRefs = make([]planRef, len(sc.Users))
	sc.memberStart = make([]int32, ns+1)
	sc.pairStart = make([]int32, ns+1)
	sc.flowStart = make([]int32, ns+1)
	members, pairs := 0, 0
	for si := range sc.Sessions {
		n := len(sc.Sessions[si].Users)
		members += n
		pairs += n * (n - 1)
		sc.memberStart[si+1] = int32(members)
		sc.pairStart[si+1] = int32(pairs)
	}
	sc.planMembers = make([]PlanMember, 0, members)
	sc.planPairs = make([]PlanPair, 0, pairs)
	for si := range sc.Sessions {
		first := len(sc.planFlows)
		for i, u := range sc.Sessions[si].Users {
			sc.planRefs[u] = planRef{session: int32(si), row: int32(len(sc.planPairs)), pos: int32(i)}
			up := sc.Users[u].Upstream
			mem := PlanMember{UpMbps: sc.Reps.Bitrate(up), UpRep: up, FlowStart: int32(len(sc.planFlows) - first)}
			for jj, v := range sc.participants[u] {
				mem.InMbps += sc.Reps.Bitrate(sc.demand(u, v))
				out := sc.demand(v, u)
				pr := PlanPair{Flow: -1, Rep: int32(out)}
				// Flow u→v needs transcoding when v's effective demand for
				// u's stream differs from what u produces (under
				// DownscaleOnly, upward demands clamp to the upstream and
				// therefore never transcode).
				if out != up {
					pr.Flow = int32(len(sc.planFlows) - first)
					j := jj // v's member index: Participants is Users without u
					if jj >= i {
						j++
					}
					sc.planFlows = append(sc.planFlows, PlanFlow{OutMbps: sc.Reps.Bitrate(out), Dst: int32(j), Rep: pr.Rep})
					sc.thetaFlows = append(sc.thetaFlows, Flow{Src: u, Dst: v})
				}
				sc.planPairs = append(sc.planPairs, pr)
			}
			mem.FlowEnd = int32(len(sc.planFlows) - first)
			sc.planMembers = append(sc.planMembers, mem)
		}
		sc.flowStart[si+1] = int32(len(sc.planFlows))
	}
	sc.thetaSum = len(sc.planFlows)
}
