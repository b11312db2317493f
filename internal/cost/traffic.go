package cost

import (
	"vconf/internal/assign"
	"vconf/internal/model"
)

// SessionLoadOf returns session s's load under assignment a as a fresh
// SparseLoad the caller owns. It prices on a pooled scratch and copies the
// result out, so it allocates one fleet-sized load and nothing else; callers
// in a loop price on a scratch of their own (SessionLoadSparse) instead.
// Users or flows that are still Unassigned contribute nothing, which makes
// it usable during incremental bootstrap admission.
func (p Params) SessionLoadOf(a *assign.Assignment, s model.SessionID) *SparseLoad {
	scr := GetScratch()
	defer PutScratch(scr)
	out := NewSparseLoad(a.Scenario().NumAgents())
	out.CopyFrom(p.SessionLoadSparse(a, s, scr))
	return out
}

// SessionLoadSparse computes session s's load into the scratch's CurLoad
// with zero allocations.
func (e *Evaluator) SessionLoadSparse(a *assign.Assignment, s model.SessionID, scr *Scratch) *SparseLoad {
	return e.p.SessionLoadSparse(a, s, scr)
}

// SessionLoadSparse is the evaluator-free form for callers that hold only
// the parameters (admission policies): the scratch binds to a's scenario. A
// session with unassigned users or flows gets the load of its assigned part.
func (p Params) SessionLoadSparse(a *assign.Assignment, s model.SessionID, scr *Scratch) *SparseLoad {
	scr.bind(a.Scenario())
	p.sessionLoadSparse(a, s, &scr.cur, scr)
	scr.dropCur()
	return &scr.cur
}

// sessionLoadSparse computes session s's load under a into dst: the
// last-mile terms of constraints (5)/(6), the μ inter-agent traffic of
// §III-B and the ν transcoding tasks of constraint (7). Users and flows
// still Unassigned contribute nothing.
//
// A source sends its raw stream once per agent hosting a destination, not
// once per destination, so the kernel groups the session by hosting agent
// first — g distinct agents with a member count each — and every source then
// walks its own transcoding flows and those g agents instead of its n−1
// pairs: O(n·g + F). Everything constant across candidates is read from the
// scenario's compiled plan; the only per-candidate inputs are the members'
// agents and the session's flow-agent view.
//
// Per slot the sequence of additions is the map-based reference's (kept
// test-side in dense_ref_test.go), except where the order provably does not
// matter: terms 1–2 of μ add the same value upRate once to each of a set of
// distinct destination slots and repeatedly to up[k], so the order in which
// the destination agents are visited is free.
//
// Note on constraint (3): the paper requires exactly one agent per flow, and
// its ν/μ terms implicitly assume all same-representation flows of a source
// share one transcoder (a task serves every destination demanding that rep).
// When a solver nonetheless splits same-rep flows across agents, traffic
// edges follow each flow's own γ agent and each agent pays its own ν task,
// so capacity accounting stays exact.
func (p Params) sessionLoadSparse(a *assign.Assignment, s model.SessionID, dst *SparseLoad, scr *Scratch) {
	sc := a.Scenario()
	dst.Reset()
	plan := sc.Plan(s)
	flowTo := a.SessionFlowAgents(s)

	// The members' agents, and the distinct hosting agents in order of first
	// appearance with the number of members each hosts.
	lambda, hosts := scr.lambda[:0], scr.hosts[:0]
	for _, u := range sc.Session(s).Users {
		l := a.UserAgent(u)
		lambda = append(lambda, l)
		if l == assign.Unassigned {
			continue
		}
		if scr.hostCnt[l] == 0 {
			hosts = append(hosts, int32(l))
		}
		scr.hostCnt[l]++
	}
	scr.lambda, scr.hosts = lambda, hosts

	for i, k := range lambda { // k: source agent of member i
		if k == assign.Unassigned {
			continue
		}
		mem := &plan.Members[i]
		upRate := mem.UpMbps
		flows := plan.Flows[mem.FlowStart:mem.FlowEnd]
		to := flowTo[mem.FlowStart:mem.FlowEnd] // aligned with flows

		// Last-mile upstream: member i uploads its stream into agent k
		// (first term of constraint (5)). Last-mile downstream: agent k
		// uploads to i the streams of every other participant at their
		// effective representations (first term of constraint (6)); the
		// n−1 terms are a constant of the scenario, summed on their own in
		// Participants order and added once (model.PlanMember.InMbps).
		// up[k] stays in a register until term 3: terms 1–2 add to it and
		// to slots other than k only.
		dst.addDown(k, upRate)
		up := dst.up[k] + mem.InMbps

		// One pass over i's transcoding flows collects the transcoding agents
		// of its stream with their ν tasks (deduped per distinct (transcoder,
		// representation) pair) and counts, per agent, the destinations that
		// do not take the raw stream — a flow with θ = 1 is never native,
		// whether or not its transcoder is assigned yet.
		scr.transList = scr.transList[:0]
		scr.taskKeys = scr.taskKeys[:0]
		for f := range flows {
			fl := &flows[f]
			if lv := lambda[fl.Dst]; lv != assign.Unassigned {
				scr.transDst[lv]++
			}
			m := to[f]
			if m == assign.Unassigned {
				continue
			}
			if !scr.transMark[m] {
				scr.transMark[m] = true
				scr.transList = append(scr.transList, int32(m))
			}
			dup := false
			for _, tk := range scr.taskKeys {
				if tk.m == int32(m) && tk.r == fl.Rep {
					dup = true
					break
				}
			}
			if !dup {
				scr.taskKeys = append(scr.taskKeys, mrKey{m: int32(m), r: fl.Rep})
				dst.addTask(m)
			}
		}

		// Term 1 of μ: one raw copy k → every transcoding agent m ≠ k.
		for _, m32 := range scr.transList {
			if m := model.AgentID(m32); m != k {
				up += upRate
				dst.addIn(m, upRate)
			}
		}

		// Term 2 of μ: raw stream k → agents hosting native-representation
		// destinations, unless the raw copy already arrived for transcoding
		// there (the (1−ν'_lu) factor). Every member on an agent l ≠ k is a
		// destination of i, so l hosts a native one exactly when it hosts
		// more members than transcoded destinations of i.
		for _, l32 := range hosts {
			if l := model.AgentID(l32); l != k && scr.hostCnt[l] > scr.transDst[l] && !scr.transMark[l] {
				up += upRate
				dst.addIn(l, upRate)
			}
		}
		dst.up[k] = up

		// Term 3 of μ: transcoded stream at rep r from its transcoder m to
		// every agent hosting a destination demanding r; one copy per (m,
		// destination agent, r). The paper's strict formula multiplies by
		// (1−λ_lu): no transcoded traffic is counted toward the source's own
		// agent. The same walk clears the per-source counts.
		scr.sentEdges = scr.sentEdges[:0]
		for f := range flows {
			fl := &flows[f]
			lv := lambda[fl.Dst]
			if lv == assign.Unassigned {
				continue
			}
			scr.transDst[lv] = 0
			m := to[f]
			if m == assign.Unassigned || lv == m {
				continue
			}
			if p.StrictPaperTraffic && lv == k {
				continue
			}
			dup := false
			for _, ek := range scr.sentEdges {
				if ek.m == int32(m) && ek.lv == int32(lv) && ek.r == fl.Rep {
					dup = true
					break
				}
			}
			if dup {
				continue
			}
			scr.sentEdges = append(scr.sentEdges, edgeKey3{m: int32(m), lv: int32(lv), r: fl.Rep})
			dst.addEdge(m, lv, fl.OutMbps)
		}
		for _, m32 := range scr.transList {
			scr.transMark[m32] = false
		}
	}
	for _, l32 := range hosts {
		scr.hostCnt[l32] = 0
	}
}
