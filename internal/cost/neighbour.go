package cost

// The neighbourhood kernel prices the states one decision away from the one
// BeginSession prepared (Alg. 1 line 12's F_s) one decision variable at a
// time. A hop's candidates come grouped by variable — one member, or one
// flow, tried on each agent of its window — and everything about a move but
// its target agent is the same for all of them, so it is worked out once
// per variable: what the moved member or flow leaves behind at its old
// agent, the per-agent facts its terms at a target are decided by, and the
// constants of the flow delays it re-routes. Each target then costs only
// the change it makes: moveLoad prices the load as cur plus both sides of
// the move, and moveDelay re-evaluates the re-routed delays at the target.
// The load and delay halves are prepared on first use, so a caller that
// needs only one pays only for it.
//
// NeighbourLoad and CandidatePhi take the decision and leave the assignment
// alone: a caller prices a neighbour by its decision and applies only the
// move it keeps. A preparation is valid while cur, the delay base and hOwn
// describe the state it was made from: every writer of any of them drops it
// (Scratch.dropCur, CommitSessionDecision).

import (
	"fmt"
	"math"
	"slices"

	"vconf/internal/assign"
	"vconf/internal/model"
)

// moveVar is the variable the kernel last prepared on a scratch and what a
// move of it does independently of the agent it moves to.
type moveVar struct {
	kind assign.DecisionKind // 0: nothing prepared
	v    int                 // the member (UserMove) or flow (FlowMove) index
	// loadReady and delayReady report which halves are prepared; delta
	// whether the load of a move takes the exact delta (otherwise every
	// target is rebuilt).
	loadReady, delayReady, delta bool

	// i is the moved member; k is its agent, or the moved flow's source's,
	// and up that member's upstream rate.
	i  int
	k  model.AgentID
	up float64

	// A flow: its destination agent lv, old transcoder m and rate out; edge
	// is whether its term-3 edge exists under StrictPaperTraffic; onM,
	// hostM and dstM are m's entries of onAt, curHost and dstAt.
	lv, m       model.AgentID
	out         float64
	edge        bool
	onM         uint8
	hostM, dstM int32

	// A member: each other source's terms toward it (srcs), the number of
	// agents its raw stream reaches (U) and of copies it sends from k, its
	// strict term-3 edges toward k (edgesK), the change of the traffic into
	// k, and per other member the constants of flows i→j and j→i (pairs, in
	// member order without i).
	srcs            []moveSrc
	copies, copiesK int
	edgesK          []agentUp
	inK             float64
	pairs           []pairDelay
}

// moveSrc is another source j's stake in a move of member i: j's agent,
// and either i's place among j's native destinations (ji < 0, rate j's
// upstream) or j→i's flow ji with its transcoder m, representation r and
// rate. at is the agent whose upload carries that traffic (kj or m), and
// leavesK whether the move takes it off the traffic into k.
type moveSrc struct {
	j, ji   int32
	kj, m   model.AgentID
	at      model.AgentID
	r       int32
	rate    float64
	leavesK bool
}

// agentUp is a change of one agent's upload.
type agentUp struct {
	at model.AgentID
	up float64
}

// pairDelay holds what the delays of flows i→j and j→i need of member j:
// its access delay h and agent lj, and each flow's leg.
type pairDelay struct {
	h       float64
	lj      model.AgentID
	out, in delayLeg
}

// delayLeg is the part of one flow's delay that does not depend on the
// moved member's agent: native, infinite (an end or the transcoder
// unassigned), or transcoded at m with σ and the transcoder's inter-agent
// delay to (out) or from (in) the other member.
type delayLeg struct {
	kind  uint8
	m     model.AgentID
	d     float64
	sigma float64
}

const (
	legNative = iota
	legTrans
	legInf
)

// Per-agent flags of a prepared variable (Scratch.onAt): for a flow, another
// flow of its source transcodes there (onAny), with the same representation
// (onRep), toward the same destination agent (onRepLv); for a member, the
// agent receives one of its raw copies (inU).
const (
	onAny uint8 = 1 << iota
	onRep
	onRepLv
	inU
)

// CandidateLoad rebuilds into CandLoad the load of the state a holds, the
// candidate applied. Its one caller is the benchmark battery's layer pass
// (bench/layers.go), and it goes when that pass moves to NeighbourLoad.
func (e *Evaluator) CandidateLoad(a *assign.Assignment, s model.SessionID, scr *Scratch) *SparseLoad {
	e.p.sessionLoadSparse(a, s, &scr.cand, scr)
	return &scr.cand
}

// NeighbourLoad computes into CandLoad the load of the state decision d
// reaches from the one BeginSession prepared, without applying d: a holds
// the prepared state, and holds it again on return. d must name a member or
// flow of that session (a user outside it panics, see moveVar); one that
// leaves its variable where it is prices as CurLoad. The kernel prices d
// when it can; otherwise d is applied, the candidate rebuilt and d undone.
// The error is Apply's.
func (e *Evaluator) NeighbourLoad(a *assign.Assignment, s model.SessionID, d assign.Decision, scr *Scratch) (*SparseLoad, error) {
	if kind, v := scr.moveVar(d); v >= 0 && e.exact && scr.curOK && scr.sid == s &&
		e.moveLoad(a, s, scr, kind, v, d.To) {
		return &scr.cand, nil
	}
	inv, err := a.Apply(d)
	if err != nil {
		return nil, err
	}
	e.p.sessionLoadSparse(a, s, &scr.cand, scr)
	_, err = a.Apply(inv)
	return &scr.cand, err
}

// CandidatePhi evaluates Φ_s and delay feasibility of the state decision d
// reaches from the one BeginSession prepared, with the load in CandLoad
// (NeighbourLoad must have priced the same decision). It
// reads the moved variable from d alone, so a may hold either state. Only
// the flows d moved are re-evaluated: a UserMove's 2(n−1), a FlowMove's one.
// The per-user maxima are updated from the base's in O(n) — the moved
// member's own maximum from its n−1 new incoming delays, every other user's
// from its one changed entry (candColumnMax) — and a maximum is the same
// number in whatever order it is taken, so the summary is bit-identical to a
// full delaySummary over the patched matrix. The base delay matrix and its
// maxima are only read. Returns ok = false (and phi 0) when the candidate
// violates the Dmax delay cap.
//
// Staleness contract: d must move a variable of the session most recently
// prepared by BeginSession on this scratch (the decision's user, or both
// flow endpoints, are members). A decision referencing any other session —
// a stale scratch, or candidates generated for the wrong session — is a
// caller bug and panics with a descriptive message.
func (e *Evaluator) CandidatePhi(a *assign.Assignment, s model.SessionID, d assign.Decision, scr *Scratch) (phi float64, ok bool) {
	kind, v := scr.moveVar(d)
	if v < 0 {
		panic(fmt.Sprintf("cost: CandidatePhi: %v moves no variable of session %d", d, scr.sid))
	}
	mean, ok := e.moveDelay(a, s, scr, kind, v, d.To)
	if !ok {
		return 0, false
	}
	return e.phiFromSparse(mean, &scr.cand), true
}

// moveVar resolves d to the variable it moves in the prepared session: the
// member index of a UserMove, the flow index of a FlowMove; -1 when d moves
// no variable (a pair that does not transcode, an invalid kind). It panics
// on a user outside the session.
func (scr *Scratch) moveVar(d assign.Decision) (assign.DecisionKind, int) {
	switch d.Kind {
	case assign.UserMove:
		return d.Kind, scr.memberIndex(d.User)
	case assign.FlowMove:
		if i, j := scr.memberIndex(d.Flow.Src), scr.memberIndex(d.Flow.Dst); i != j {
			return d.Kind, int(scr.plan.Pair(i, j).Flow)
		}
	}
	return d.Kind, -1
}

// use makes member or flow v of the prepared session the kernel's variable,
// unless it already is: it clears the previous variable's per-agent entries
// and marks both halves unprepared.
func (scr *Scratch) use(kind assign.DecisionKind, v int) {
	mv := &scr.mv
	if mv.kind == kind && mv.v == v {
		return
	}
	for _, l := range scr.mvAgents {
		scr.onAt[l], scr.dstAt[l] = 0, 0
	}
	scr.mvAgents = scr.mvAgents[:0]
	mv.kind, mv.v = kind, v
	mv.loadReady, mv.delayReady, mv.delta = false, false, false
}

// moveLoad prices a move of member or flow v to agent to into cand as cur
// plus the change, preparing the variable's load half first if needed, and
// reports whether it could; a move to v's own agent is cur itself. The
// scenario must carry the exactness certificate and cur a recorded state of
// the session.
func (e *Evaluator) moveLoad(a *assign.Assignment, s model.SessionID, scr *Scratch, kind assign.DecisionKind, v int, to model.AgentID) bool {
	at := scr.curUsers
	if kind == assign.FlowMove {
		at = scr.curFlows
	}
	if at[v] == to { // a move to where v already is
		scr.cand.CopyFrom(&scr.cur)
		return true
	}
	scr.use(kind, v)
	mv := &scr.mv
	if !mv.loadReady {
		mv.loadReady = true
		if kind == assign.FlowMove {
			e.prepareFlow(a, s, scr, v)
		} else {
			e.prepareMember(scr, v)
		}
	}
	if !mv.delta || to == assign.Unassigned {
		return false
	}
	if kind == assign.FlowMove {
		scr.flowLoad(to)
	} else {
		e.memberLoad(scr, to)
	}
	return true
}

// prepareFlow prepares the load of a move of flow f, of source member i (on
// agent k) to a destination on agent lv, off its transcoder m. Only source
// i's terms change, and only at k, m, the new transcoder m2 and lv: the ν
// tasks (m, r) and (m2, r), the raw copies k → m and k → m2 of terms 1–2 (an
// agent l ≠ k takes one when it transcodes for i or hosts a native
// destination of i), and the term-3 edges (m, lv, r) and (m2, lv, r). Each
// is decided by whether another flow of i shares it and by the members on
// the agent: one scan of i's flows records in onAt and dstAt, per agent,
// i's other flows there and i's destinations there. The delta needs the
// source, the destination and m assigned.
func (e *Evaluator) prepareFlow(a *assign.Assignment, s model.SessionID, scr *Scratch, f int) {
	mv, plan := &scr.mv, &scr.plan
	fl := &plan.Flows[f]
	i := e.sc.MemberIndex(a.SessionFlowsShared(s)[f].Src)
	lambda, flowTo := scr.curUsers, scr.curFlows
	k, lv, m := lambda[i], lambda[fl.Dst], flowTo[f]
	if k == assign.Unassigned || lv == assign.Unassigned || m == assign.Unassigned {
		return
	}
	mem := &plan.Members[i]
	for g := int(mem.FlowStart); g < int(mem.FlowEnd); g++ {
		gf := &plan.Flows[g]
		l := lambda[gf.Dst]
		if l != assign.Unassigned {
			scr.dstAt[l]++
			scr.mvAgents = append(scr.mvAgents, int32(l))
		}
		t := flowTo[g]
		if g == f || t == assign.Unassigned {
			continue
		}
		on := onAny
		if gf.Rep == fl.Rep {
			on |= onRep
			if l == lv {
				on |= onRepLv
			}
		}
		scr.onAt[t] |= on
		scr.mvAgents = append(scr.mvAgents, int32(t))
	}
	mv.k, mv.lv, mv.m = k, lv, m
	mv.up, mv.out = mem.UpMbps, fl.OutMbps
	mv.edge = !(e.p.StrictPaperTraffic && lv == k)
	mv.onM, mv.hostM, mv.dstM = scr.onAt[m], scr.curHost[m], scr.dstAt[m]
	mv.delta = true
}

// flowLoad prices the prepared flow's move to transcoder m2: cur without
// the flow's ν task, raw copy and edge at m, each unless another flow of
// the source keeps it (the copy also when m hosts a native destination of
// the source), and with them at m2 under the same rules.
func (scr *Scratch) flowLoad(m2 model.AgentID) {
	mv, c := &scr.mv, &scr.cand
	k, lv, m := mv.k, mv.lv, mv.m
	c.CopyFrom(&scr.cur)
	if mv.onM&onRep == 0 {
		c.tasks[m]--
	}
	if m != k && mv.onM&onAny == 0 && mv.hostM <= mv.dstM {
		c.up[k] -= mv.up
		c.addIn(m, -mv.up)
	}
	if mv.edge && lv != m && mv.onM&onRepLv == 0 {
		c.addEdge(m, lv, -mv.out)
	}
	on := scr.onAt[m2]
	if on&onRep == 0 {
		c.addTask(m2)
	}
	if m2 != k && on&onAny == 0 && scr.curHost[m2] <= scr.dstAt[m2] {
		c.up[k] += mv.up
		c.addIn(m2, mv.up)
	}
	if mv.edge && lv != m2 && on&onRepLv == 0 {
		c.addEdge(m2, lv, mv.out)
	}
	// Only m can be left empty: k and lv host members, whose last-mile
	// upstream keeps their download above zero (and inter ≤ down).
	c.untouchIfEmpty(m)
}

// prepareMember prepares the load of a move of member i off agent k; the
// delta needs every member and flow assigned, and a bit per representation.
//
//   - Source i's block: its last-mile terms leave k, and it sends one raw
//     copy to each agent of U (its transcoders and the agents hosting a
//     native destination of it) but its own. U does not depend on where i
//     sits, so only up[k], up[k2] and the copies into k and k2 change.
//     Under StrictPaperTraffic its term-3 edges toward k appear and those
//     toward k2 vanish, one per (transcoder, representation).
//   - Every other source j, at k and k2 only. When i is a native
//     destination of j, j's raw copy into k goes if i was its last native
//     destination there, and one into k2 comes if k2 had none (the kernel's
//     term-2 rule over the host counts before and after the move). When j→i
//     transcodes at m, its edge (m, k, r) goes unless another flow of j
//     shares it, and (m, k2, r) comes unless one already does.
//
// Everything at k is decided here, from one scan of each source's flows;
// the k2 side per target (memberLoad). The traffic into k and into k2 is
// summed apart and added once.
func (e *Evaluator) prepareMember(scr *Scratch, i int) {
	mv, plan := &scr.mv, &scr.plan
	if e.sc.Reps.Len() > 64 { // repBits holds a bit per representation
		return
	}
	lambda, flowTo := scr.curUsers, scr.curFlows
	for _, l := range lambda {
		if l == assign.Unassigned {
			return
		}
	}
	for _, l := range flowTo {
		if l == assign.Unassigned {
			return
		}
	}
	n1 := scr.n - 1
	k := lambda[i]
	hostK := int(scr.curHost[k])
	strict := e.p.StrictPaperTraffic
	inK := 0.0
	mv.srcs, mv.copies = slices.Grow(mv.srcs[:0], n1)[:n1], 0
	for x := range mv.srcs {
		j := x + b2i(x >= i)
		kj := lambda[j]
		if plan.Pairs[i*n1+j-b2i(j > i)].Flow < 0 {
			scr.markU(kj)
		}
		mj := &plan.Members[j]
		ji := plan.Pairs[j*n1+i-b2i(i > j)].Flow
		src := &mv.srcs[x]
		src.j, src.ji, src.kj, src.m, src.at, src.r, src.rate = int32(j), ji, kj, assign.Unassigned, kj, -1, mj.UpMbps
		if ji >= 0 {
			src.m, src.r, src.rate = flowTo[ji], plan.Flows[ji].Rep, plan.Flows[ji].OutMbps
			src.at = src.m
		}
		var dstK int // j's transcoded destinations on k
		var transK, shareK bool
		for g := mj.FlowStart; g < mj.FlowEnd; g++ {
			lv, tg := lambda[plan.Flows[g].Dst], flowTo[g]
			dstK += b2i(lv == k)
			transK = transK || tg == k
			if g != ji && tg == src.m && plan.Flows[g].Rep == src.r {
				shareK = shareK || lv == k
			}
		}
		if ji < 0 {
			src.leavesK = k != kj && !transK && hostK == dstK+1
		} else {
			src.leavesK = k != src.m && !(strict && k == kj) && !shareK
		}
		if src.leavesK {
			inK -= src.rate
		}
	}

	mem := &plan.Members[i]
	flows, to := plan.Flows[mem.FlowStart:mem.FlowEnd], flowTo[mem.FlowStart:mem.FlowEnd]
	for _, m := range to {
		scr.markU(m)
	}
	mv.copiesK = mv.copies
	if scr.onAt[k]&inU != 0 {
		mv.copiesK--
		inK += mem.UpMbps
	}
	mv.edgesK = mv.edgesK[:0]
	for f := 0; strict && f < len(flows); f++ {
		lv, m, bit := lambda[flows[f].Dst], to[f], uint64(1)<<flows[f].Rep
		if lv == k && lv != m && scr.repBits[m]&bit == 0 {
			scr.repBits[m] |= bit
			mv.edgesK = append(mv.edgesK, agentUp{at: m, up: flows[f].OutMbps})
			inK += flows[f].OutMbps
		}
	}
	for f := 0; strict && f < len(to); f++ {
		scr.repBits[to[f]] = 0
	}
	mv.i, mv.k, mv.up, mv.inK = i, k, mem.UpMbps, inK
	mv.delta = true
}

// markU adds agent l to the prepared member's U.
func (scr *Scratch) markU(l model.AgentID) {
	if scr.onAt[l]&inU == 0 {
		scr.onAt[l] |= inU
		scr.mvAgents = append(scr.mvAgents, int32(l))
		scr.mv.copies++
	}
}

// memberLoad prices the prepared member's move to agent k2: cur with every
// source's k side as prepared and its k2 side (one scan of its flows for
// its destinations, transcoders and shared edge at k2), the member's own
// copies and strict edges at k and k2, and its last-mile terms. Only k can
// be left empty: every other agent changed hosts a member or a transcoder.
func (e *Evaluator) memberLoad(scr *Scratch, k2 model.AgentID) {
	mv, plan, c := &scr.mv, &scr.plan, &scr.cand
	lambda, flowTo := scr.curUsers, scr.curFlows
	strict := e.p.StrictPaperTraffic
	c.CopyFrom(&scr.cur)
	hostK2 := int(scr.curHost[k2])
	// An agent without members or tasks of the session holds no destination,
	// transcoder or edge of any source: nothing there to scan for.
	busy := hostK2 > 0 || scr.cur.tasks[k2] > 0
	inK2 := 0.0 // the change of the traffic into k2
	for x := range mv.srcs {
		src := &mv.srcs[x]
		if src.leavesK {
			c.up[src.at] -= src.rate
		}
		mj := &plan.Members[src.j]
		var dstK2 int // j's transcoded destinations on k2
		var transK2, shareK2 bool
		for g := mj.FlowStart; busy && g < mj.FlowEnd; g++ {
			lv, tg := lambda[plan.Flows[g].Dst], flowTo[g]
			dstK2 += b2i(lv == k2)
			transK2 = transK2 || tg == k2
			if g != src.ji && tg == src.m && plan.Flows[g].Rep == src.r {
				shareK2 = shareK2 || lv == k2
			}
		}
		var comes bool
		if src.ji < 0 {
			comes = k2 != src.kj && !transK2 && hostK2 == dstK2
		} else {
			comes = k2 != src.m && !(strict && k2 == src.kj) && !shareK2
		}
		if comes {
			c.up[src.at] += src.rate
			inK2 += src.rate
		}
	}

	mem := &plan.Members[mv.i]
	up, copiesK2 := mv.up, mv.copies
	if scr.onAt[k2]&inU != 0 {
		copiesK2--
		inK2 -= up
	}
	for _, eg := range mv.edgesK {
		c.up[eg.at] += eg.up
	}
	if strict {
		flows, to := plan.Flows[mem.FlowStart:mem.FlowEnd], flowTo[mem.FlowStart:mem.FlowEnd]
		for f := range flows {
			lv, m, bit := lambda[flows[f].Dst], to[f], uint64(1)<<flows[f].Rep
			if lv == k2 && lv != m && scr.repBits[m]&bit == 0 {
				scr.repBits[m] |= bit
				c.up[m] -= flows[f].OutMbps
				inK2 -= flows[f].OutMbps
			}
		}
		for _, m := range to {
			scr.repBits[m] = 0
		}
	}
	k := mv.k
	c.addDown(k2, up)
	c.addIn(k2, inK2)
	c.up[k2] += mem.InMbps + up*float64(copiesK2)
	c.down[k] -= up
	c.addIn(k, mv.inK)
	c.up[k] -= mem.InMbps + up*float64(mv.copiesK)
	c.untouchIfEmpty(k)
}

// moveDelay is the delay summary of a move of member or flow v to agent to:
// the mean of the per-user maxima and whether the worst delay keeps the cap.
// A member's delay half is prepared first if needed. Each re-routed flow's
// delay is flowDelay's terms in flowDelay's order of additions.
func (e *Evaluator) moveDelay(a *assign.Assignment, s model.SessionID, scr *Scratch, kind assign.DecisionKind, v int, to model.AgentID) (mean float64, ok bool) {
	n := scr.n
	if n < 2 {
		return 0, true
	}
	sc, cm := e.sc, scr.candMax
	copy(cm, scr.userMax)
	if kind == assign.FlowMove {
		i, j := sc.MemberIndex(a.SessionFlowsShared(s)[v].Src), int(scr.plan.Flows[v].Dst)
		cm[j] = scr.candColumnMax(i, j, scr.flowDelayVia(a, i, j, scr.plan.Pair(i, j), to))
	} else {
		scr.use(kind, v)
		mv := &scr.mv
		if !mv.delayReady {
			mv.delayReady = true
			e.prepareMemberDelay(a, s, scr, v)
		}
		i := mv.i
		hi := ownDelay(sc, to, scr.members[i])
		own := 0.0
		for x := range mv.pairs {
			pd := &mv.pairs[x]
			j := x + b2i(x >= i)
			out, in := math.Inf(1), math.Inf(1)
			if to != assign.Unassigned {
				switch pd.out.kind {
				case legNative:
					out = hi + pd.h + sc.D(to, pd.lj)
				case legTrans:
					out = hi + pd.h + sc.D(to, pd.out.m) + pd.out.d + pd.out.sigma
				}
				switch pd.in.kind {
				case legNative:
					in = pd.h + hi + sc.D(pd.lj, to)
				case legTrans:
					in = pd.h + hi + pd.in.d + sc.D(pd.in.m, to) + pd.in.sigma
				}
			}
			cm[j] = scr.candColumnMax(i, j, out)
			if in > own {
				own = in
			}
		}
		cm[i] = own
	}
	sum, worst := 0.0, 0.0
	for _, m := range cm {
		sum += m
		if m > worst {
			worst = m
		}
	}
	if worst > sc.DMaxMS {
		return 0, false
	}
	return sum / float64(n), true
}

// prepareMemberDelay prepares the delays of member i's move: per other
// member j, the constants of flows i→j and j→i.
func (e *Evaluator) prepareMemberDelay(a *assign.Assignment, s model.SessionID, scr *Scratch, i int) {
	mv, plan := &scr.mv, &scr.plan
	n1 := scr.n - 1
	mv.i = i
	mv.pairs = slices.Grow(mv.pairs[:0], n1)[:n1]
	flowTo := a.SessionFlowAgents(s)
	upRep := plan.Members[i].UpRep
	for x := range mv.pairs {
		j := x + b2i(x >= i)
		pd := &mv.pairs[x]
		pd.h, pd.lj = scr.hOwn[j], a.UserAgent(scr.members[j])
		e.leg(&pd.out, pd.lj, flowTo, plan.Pairs[i*n1+j-b2i(j > i)], upRep, true)
		e.leg(&pd.in, pd.lj, flowTo, plan.Pairs[j*n1+i-b2i(i > j)], plan.Members[j].UpRep, false)
	}
}

// leg prepares into g the delay leg of the flow between the moved member and
// member j on agent lj that pr describes: i→j when out, j→i otherwise; from
// is the flow source's upstream representation.
func (e *Evaluator) leg(g *delayLeg, lj model.AgentID, flowTo []model.AgentID, pr model.PlanPair, from model.Representation, out bool) {
	switch {
	case lj == assign.Unassigned:
		g.kind = legInf
	case pr.Flow < 0:
		g.kind = legNative
	case flowTo[pr.Flow] == assign.Unassigned:
		g.kind = legInf
	default:
		m := flowTo[pr.Flow]
		g.kind, g.m, g.sigma = legTrans, m, e.sc.Agent(m).Sigma(from, model.Representation(pr.Rep))
		if out {
			g.d = e.sc.D(m, lj)
		} else {
			g.d = e.sc.D(lj, m)
		}
	}
}
