package cost

// This file implements the sparse, allocation-free hop evaluation pipeline.
// A single-variable decision touches O(session size) agents, not the whole
// fleet, so the steady-state candidate loop of Alg. 1 must not pay O(L) per
// neighbor: SparseLoad keeps a touched-agent index list over dense scratch
// arrays, Scratch holds every reusable buffer one evaluation needs, and
// BeginSession prepares the session's load, delay base and summary that the
// neighbourhood kernel (neighbour.go) prices each one-decision move against,
// named by its decision and never applied: once per moved variable what the
// move leaves behind, then per target agent only the change the target makes
// to the load and the delays of the flows the move re-routes.
//
// Exactness contract: this file is the one program path for a session's
// load and objective. The candidate and warm-cache paths are bit-identical to
// a from-scratch evaluation (BeginSession's rebuild branch, which the
// Evaluator's objective and report methods run), and the load kernel and Φ_s
// assembly are bit-identical to the map-based reference kept test-side in
// dense_ref_test.go. Accumulations follow the reference's per-slot sequence
// of additions, and cost sums iterate touched agents in ascending agent
// order, which is the order the reference's fleet-wide loops visit them
// (skipped zero entries are exact identity additions). The flow-move and
// member-move deltas reorder additions freely, so they run only where the
// scenario's rates certify that every partial sum is exact (exactRates);
// elsewhere the candidate is rebuilt. Flow-delay sums carry no such
// certificate and keep flowDelay's order of additions. The differential
// tests here and in internal/core assert the contract state by state and by
// replaying whole engine runs.

import (
	"fmt"
	"math"
	"slices"
	"sync"

	"vconf/internal/assign"
	"vconf/internal/model"
)

// SparseLoad is one session's resource usage, per agent: dense per-agent
// arrays for O(1) indexing plus the list of touched agents, so iteration,
// reset, ledger accounting, and cost sums are O(touched) instead of
// O(NumAgents). Loads of different sessions add: agent l's global usage is
// the sum of every session's components at l. Per agent l:
//
//   - down: the session's download usage in Mbps — last-mile upstream of the
//     users subscribed at l plus incoming inter-agent traffic (left side of
//     constraint (5));
//   - up: its upload usage — last-mile downstream to the users at l plus
//     outgoing inter-agent traffic (left side of constraint (6));
//   - tasks: the transcoding tasks ν it runs at l, one per distinct (source,
//     output representation) pair (left side of constraint (7));
//   - inter: x_ls, the incoming inter-agent traffic in Mbps, the argument of
//     the bandwidth cost g_l.
//
// The zero value is unusable; loads are created by SessionLoadOf,
// Evaluator.NewScratch, NewSparseLoad, or ObjectiveCache.
type SparseLoad struct {
	down, up, inter []float64
	tasks           []int
	touched         []int32
	mark            []bool
	sorted          bool
}

// NewSparseLoad creates an empty sparse load over numAgents agents.
func NewSparseLoad(numAgents int) *SparseLoad {
	sl := &SparseLoad{}
	sl.ensure(numAgents)
	return sl
}

func (sl *SparseLoad) ensure(numAgents int) {
	if len(sl.down) == numAgents {
		return
	}
	sl.down = make([]float64, numAgents)
	sl.up = make([]float64, numAgents)
	sl.inter = make([]float64, numAgents)
	sl.tasks = make([]int, numAgents)
	sl.mark = make([]bool, numAgents)
	sl.touched = sl.touched[:0]
	sl.sorted = true
}

// Reset clears the load in O(touched).
func (sl *SparseLoad) Reset() {
	for _, l := range sl.touched {
		sl.down[l] = 0
		sl.up[l] = 0
		sl.inter[l] = 0
		sl.tasks[l] = 0
		sl.mark[l] = false
	}
	sl.touched = sl.touched[:0]
	sl.sorted = true
}

func (sl *SparseLoad) touch(l model.AgentID) {
	if !sl.mark[l] {
		sl.mark[l] = true
		sl.touched = append(sl.touched, int32(l))
		sl.sorted = false
	}
}

func (sl *SparseLoad) addDown(l model.AgentID, w float64) {
	sl.touch(l)
	sl.down[l] += w
}

func (sl *SparseLoad) addTask(l model.AgentID) {
	sl.touch(l)
	sl.tasks[l]++
}

// addIn records w Mbps of inter-agent traffic arriving at dst: the receiving
// half of addEdge.
func (sl *SparseLoad) addIn(dst model.AgentID, w float64) {
	sl.touch(dst)
	sl.down[dst] += w
	sl.inter[dst] += w
}

// addEdge records w Mbps of inter-agent traffic src → dst.
func (sl *SparseLoad) addEdge(src, dst model.AgentID, w float64) {
	sl.touch(src)
	sl.up[src] += w
	sl.addIn(dst, w)
}

// untouchIfEmpty drops l from the touched set when all its components are
// zero, as a rebuild would never have touched it.
func (sl *SparseLoad) untouchIfEmpty(l model.AgentID) {
	if sl.down[l] == 0 && sl.up[l] == 0 && sl.tasks[l] == 0 {
		sl.mark[l] = false
		j := slices.Index(sl.touched, int32(l))
		sl.touched = slices.Delete(sl.touched, j, j+1)
	}
}

// sortTouched orders the touched list ascending so cost sums visit agents in
// the same order as a fleet-wide loop (bit-identical floating-point sums).
// Insertion sort: the list is a handful of entries.
func (sl *SparseLoad) sortTouched() {
	if sl.sorted {
		return
	}
	t := sl.touched
	for i := 1; i < len(t); i++ {
		for j := i; j > 0 && t[j-1] > t[j]; j-- {
			t[j-1], t[j] = t[j], t[j-1]
		}
	}
	sl.sorted = true
}

// CopyFrom makes sl an exact copy of src (same agent-count dimensions).
func (sl *SparseLoad) CopyFrom(src *SparseLoad) {
	sl.ensure(len(src.down))
	sl.Reset()
	for _, l := range src.touched {
		sl.mark[l] = true
		sl.down[l] = src.down[l]
		sl.up[l] = src.up[l]
		sl.inter[l] = src.inter[l]
		sl.tasks[l] = src.tasks[l]
	}
	sl.touched = append(sl.touched, src.touched...)
	sl.sorted = src.sorted
}

// packedLoad is a load at rest: one record per touched agent, in touched
// order, nothing sized by the fleet. The caches that keep a load per session
// (delayEntry.load, ObjectiveCache.load) hold this form and unpack it into a
// SparseLoad to compute with it; pack and unpack are the O(touched) loop
// CopyFrom is and move every component unchanged.
type packedLoad struct {
	recs   []packedAgent
	sorted bool
}

type packedAgent struct {
	agent           int32
	tasks           int32 // a session's tasks on one agent: at most its flows
	down, up, inter float64
}

// pack makes pl an exact record of src, reusing pl's storage.
func (pl *packedLoad) pack(src *SparseLoad) {
	pl.recs = slices.Grow(pl.recs[:0], len(src.touched))
	for _, l := range src.touched {
		pl.recs = append(pl.recs, packedAgent{
			agent: l, tasks: int32(src.tasks[l]),
			down: src.down[l], up: src.up[l], inter: src.inter[l],
		})
	}
	pl.sorted = src.sorted
}

// unpack makes dst the load pl records; dst keeps its dimensions.
func (pl *packedLoad) unpack(dst *SparseLoad) {
	dst.Reset()
	for i := range pl.recs {
		r := &pl.recs[i]
		dst.mark[r.agent] = true
		dst.down[r.agent] = r.down
		dst.up[r.agent] = r.up
		dst.inter[r.agent] = r.inter
		dst.tasks[r.agent] = int(r.tasks)
		dst.touched = append(dst.touched, r.agent)
	}
	dst.sorted = pl.sorted
}

// sortAgents is sortTouched for a load at rest: records ascending by agent.
func (pl *packedLoad) sortAgents() {
	if !pl.sorted {
		slices.SortFunc(pl.recs, func(a, b packedAgent) int { return int(a.agent - b.agent) })
		pl.sorted = true
	}
}

// AddAt adds the given components to the load at agent l. The kernel fills
// loads from an assignment; AddAt is for loads no assignment produces, such
// as background usage a ledger test puts on an agent.
func (sl *SparseLoad) AddAt(l model.AgentID, down, up, inter float64, tasks int) {
	sl.touch(l)
	sl.down[l] += down
	sl.up[l] += up
	sl.inter[l] += inter
	sl.tasks[l] += tasks
}

// At returns the load components at agent l.
func (sl *SparseLoad) At(l model.AgentID) (down, up, inter float64, tasks int) {
	return sl.down[l], sl.up[l], sl.inter[l], sl.tasks[l]
}

// TotalInterTraffic returns Σ_l x_ls: the session's total inter-agent
// traffic in Mbps — the paper's headline operational-cost metric. It sums in
// ascending agent order, bit-identical to a fleet-wide sum.
func (sl *SparseLoad) TotalInterTraffic() float64 {
	sl.sortTouched()
	t := 0.0
	for _, l := range sl.touched {
		t += sl.inter[l]
	}
	return t
}

// TotalTasks returns Σ_l y_ls.
func (sl *SparseLoad) TotalTasks() int {
	n := 0
	for _, l := range sl.touched {
		n += sl.tasks[l]
	}
	return n
}

// AppendAgents appends the IDs of agents carrying load (nonzero download,
// upload or tasks) to dst in ascending order and returns it — the committed
// agent-set extraction behind the orchestrator's footprint and
// touched-session index.
func (sl *SparseLoad) AppendAgents(dst []model.AgentID) []model.AgentID {
	sl.sortTouched()
	for _, l := range sl.touched {
		if sl.down[l] > 0 || sl.up[l] > 0 || sl.tasks[l] > 0 {
			dst = append(dst, model.AgentID(l))
		}
	}
	return dst
}

// ---------------------------------------------------------------------------
// Evaluation scratch

// mrKey dedups transcoding tasks of one source: a task is a distinct
// (transcoder, output representation) pair.
type mrKey struct {
	m, r int32
}

// edgeKey3 dedups transcoded-output edges: one copy per (transcoder,
// destination agent, representation).
type edgeKey3 struct {
	m, lv, r int32
}

// Scratch bundles every reusable buffer a session evaluation needs: the
// current and candidate sparse loads, the per-source dedup sets of the μ
// traffic terms, and the per-flow delay matrix with per-user maxima that
// CandidatePhi updates incrementally. A Scratch is not safe for concurrent
// use; pool one per worker (core and the orchestrator shard pool do).
type Scratch struct {
	sc *model.Scenario

	cur, cand SparseLoad

	// Working state of the load computation, all zero between calls: the
	// members' agents and the session's distinct hosting agents with their
	// member counts, gathered once per evaluation, and the per-source sets —
	// transcoding agents, transcoded destinations per agent, ν task keys,
	// sent transcoded edges.
	lambda    []model.AgentID
	hosts     []int32
	hostCnt   []int32
	transMark []bool
	transList []int32
	transDst  []int32
	taskKeys  []mrKey
	sentEdges []edgeKey3

	// repBits dedupes a moved member's term-3 edges toward one agent (its old
	// one in prepareMember, a target in memberLoad): bit r of its
	// transcoder's word. Zero between calls.
	repBits []uint64

	// Delay state of the session prepared by BeginSession. base is the
	// active n×n flow-delay matrix (row = source member index): it aliases
	// the session's DelayCache entry when the cache is on, and ownBase —
	// the scratch-owned rebuild buffer — when it is off.
	// userMax holds the base's per-user maxima (it aliases the cache entry's
	// like base does, ownMax otherwise); candMax is the per-candidate copy
	// CandidatePhi updates. hOwn[i] is member i's access delay
	// H(λ(u_i), u_i), read once per bind and per move, never per flow.
	sid     model.SessionID
	members []model.UserID
	plan    model.SessionPlan
	n       int
	base    []float64
	ownBase []float64
	userMax []float64
	ownMax  []float64
	candMax []float64
	hOwn    []float64

	// dc is the persistent per-session delay cache (see delaycache.go),
	// created lazily unless disabled; movedMembers is the warm path's
	// reusable moved-member index buffer.
	dc           *DelayCache
	dcOff        bool
	movedMembers []int32

	// The state cur holds the load of, which the neighbourhood kernel prices
	// moves from: the bound session's member and flow agents, valid while
	// curOK, and curHost, its member count per agent. Every writer of cur
	// sets or clears them (dropCur).
	curOK    bool
	curUsers []model.AgentID
	curFlows []model.AgentID
	curHost  []int32

	// The neighbourhood kernel's prepared variable (see neighbour.go) and its
	// per-agent flags and destination counts, nonzero only at the agents
	// listed in mvAgents.
	mv       moveVar
	onAt     []uint8
	dstAt    []int32
	mvAgents []int32
}

// NewScratch returns a Scratch sized for the evaluator's scenario.
func (e *Evaluator) NewScratch() *Scratch {
	scr := &Scratch{}
	scr.Ensure(e)
	return scr
}

// Ensure (re)binds the scratch to the evaluator's scenario, resizing buffers
// when dimensions changed. Cheap when already bound (pointer compare); call
// it when reusing pooled scratches across evaluators.
func (scr *Scratch) Ensure(e *Evaluator) { scr.bind(e.Scenario()) }

// bind is Ensure for a scenario; a zero Scratch binds on first use.
func (scr *Scratch) bind(sc *model.Scenario) {
	if scr.sc == sc {
		return
	}
	scr.sc = sc
	L := sc.NumAgents()
	scr.cur.ensure(L)
	scr.cur.Reset()
	scr.cand.ensure(L)
	scr.cand.Reset()
	scr.hostCnt = make([]int32, L)
	scr.transMark = make([]bool, L)
	scr.transList = scr.transList[:0]
	scr.transDst = make([]int32, L)
	scr.repBits = make([]uint64, L)
	scr.curHost = make([]int32, L)
	scr.onAt = make([]uint8, L)
	scr.dstAt = make([]int32, L)
	scr.mvAgents = scr.mvAgents[:0]
	scr.taskKeys = scr.taskKeys[:0]
	scr.sentEdges = scr.sentEdges[:0]
	scr.members = nil
	scr.n = 0
	scr.curUsers = scr.curUsers[:0]
	scr.curOK = false
	scr.mv.kind = 0
	// The delay cache is dimensioned for one scenario; rebinding drops it
	// (it is rebuilt lazily against the new scenario).
	scr.dc = nil
}

// SetDelayCacheEnabled toggles the persistent per-session delay cache. On
// (the default) BeginSession reuses and patches cached delay state; off,
// it rebuilds the full delay base every call — the pre-cache reference
// path the differential tests replay against. Warm entries survive a
// disable/re-enable round trip (their signatures re-validate them).
func (scr *Scratch) SetDelayCacheEnabled(on bool) { scr.dcOff = !on }

// InvalidateDelay marks session s's delay-cache entry cold, if a cache
// exists. Engines and the orchestrator call it on session departure and
// re-arrival, where every variable changes and a full rebuild beats
// patching.
func (scr *Scratch) InvalidateDelay(s model.SessionID) {
	if scr.dc != nil {
		scr.dc.Invalidate(s)
	}
}

// DelayCacheStats exposes the scratch's delay cache for tests and
// benchmarks (nil when disabled or never used).
func (scr *Scratch) DelayCacheStats() *DelayCache { return scr.dc }

// delayCache returns the scratch's cache, creating it lazily, or nil when
// disabled.
func (scr *Scratch) delayCache() *DelayCache {
	if scr.dcOff {
		return nil
	}
	if scr.dc == nil {
		scr.dc = NewDelayCache(scr.sc)
	}
	return scr.dc
}

// CurLoad returns the current-state load computed by the last BeginSession
// (or SessionLoadSparse). Valid until the next call on this scratch.
func (scr *Scratch) CurLoad() *SparseLoad { return &scr.cur }

// LedgerOf returns a ledger holding the load of every session of a's
// scenario under a (sessions without assigned variables add nothing).
func (p Params) LedgerOf(a *assign.Assignment) *Ledger {
	sc := a.Scenario()
	g := NewLedger(sc)
	var scr Scratch
	for s := 0; s < sc.NumSessions(); s++ {
		g.Add(p.SessionLoadSparse(a, model.SessionID(s), &scr))
	}
	return g
}

// scratches pools the scratches of callers that price loads without a
// scratch of their own; see GetScratch.
var scratches = sync.Pool{New: func() any { return new(Scratch) }}

// GetScratch takes a scratch from a process-wide pool: admission policies,
// whose signatures carry no scratch, price every placement attempt on it,
// and so do SessionLoadOf and the Evaluator's objective and report methods.
// It rebinds to whatever scenario it is next used with; return it with
// PutScratch when done.
func GetScratch() *Scratch { return scratches.Get().(*Scratch) }

// PutScratch returns a scratch taken with GetScratch.
func PutScratch(scr *Scratch) { scratches.Put(scr) }

// phiFromSparse assembles Φ_s = α1·F + α2·G + α3·H from the delay mean and
// the session's load: G and H are summed in one ascending walk of the touched
// agents, each in its own accumulator, so each sum keeps the order of a
// fleet-wide loop (a sum whose α is zero is not used).
func (e *Evaluator) phiFromSparse(meanDelayMS float64, sl *SparseLoad) float64 {
	phi := 0.0
	if e.p.Alpha1 > 0 {
		phi += e.p.Alpha1 * meanDelayMS
	}
	if e.p.Alpha2 <= 0 && e.p.Alpha3 <= 0 {
		return phi
	}
	sl.sortTouched()
	g, h := 0.0, 0.0
	for _, l := range sl.touched {
		ag := e.sc.Agent(model.AgentID(l))
		if x := sl.inter[l]; x > 0 {
			g += e.p.trafficCost(ag.TrafficPricePerMbps, x)
		}
		if y := sl.tasks[l]; y > 0 {
			h += e.p.transcodeCost(ag.TranscodePricePerTask, y)
		}
	}
	if e.p.Alpha2 > 0 {
		phi += e.p.Alpha2 * g
	}
	if e.p.Alpha3 > 0 {
		phi += e.p.Alpha3 * h
	}
	return phi
}

// SessionEval summarizes one session's objective and delay picture.
type SessionEval struct {
	// Phi is Φ_s = α1·F + α2·G + α3·H.
	Phi float64
	// MeanDelayMS is F's argument: mean over users of max incoming delay.
	MeanDelayMS float64
	// WorstMS is the largest flow delay in the session.
	WorstMS float64
}

// DelayFeasible reports whether every flow respects the Dmax cap
// (constraint (8)).
func (se SessionEval) DelayFeasible(dMaxMS float64) bool { return se.WorstMS <= dMaxMS }

// BeginSession prepares the scratch for evaluating session s's neighborhood
// under assignment a: it computes the session's sparse load (CurLoad), fills
// the per-flow delay matrix and per-user delay maxima, and returns the
// current Φ_s and delay summary — all with zero allocations after warm-up.
//
// Every caller that prices neighbours calls BeginSession once per state,
// then for each candidate d, with the assignment left in the prepared state:
// NeighbourLoad(d) → a ledger check → CandidatePhi(d), and applies only the
// move it keeps. Candidates moving the same variable share its preparation
// (see neighbour.go).
// The base delay matrix always reflects the state a held at BeginSession
// time; the candidate evaluation only reads it.
//
// With the delay cache enabled (the default), the delay base, load and
// summary are retained per session across calls and re-validated against
// the session's decision variables, so a warm call recomputes only the
// flows whose endpoints moved since the last evaluation — O(moved flows)
// instead of O(n²) — and a call with an unchanged session costs only the
// signature comparison. The cached and rebuild paths are bit-identical
// (see delaycache.go for the staleness contract).
func (e *Evaluator) BeginSession(a *assign.Assignment, s model.SessionID, scr *Scratch) SessionEval {
	scr.Ensure(e)
	return e.beginSession(a, s, scr, scr.delayCache())
}

// beginSession is BeginSession over the delay cache dc. A nil dc selects the
// rebuild branch: everything is evaluated from the assignment and nothing is
// kept per session — what SetDelayCacheEnabled(false) selects, and what the
// Evaluator's objective and report methods run on a pooled scratch.
func (e *Evaluator) beginSession(a *assign.Assignment, s model.SessionID, scr *Scratch, dc *DelayCache) SessionEval {
	scr.Ensure(e)

	// Bind the session: its members and its compiled plan.
	scr.sid = s
	scr.members = e.sc.Session(s).Users
	scr.plan = e.sc.Plan(s)
	n := len(scr.members)
	scr.n = n
	if cap(scr.candMax) < n {
		scr.ownMax = make([]float64, n)
		scr.candMax = make([]float64, n)
		scr.hOwn = make([]float64, n)
	}
	scr.candMax = scr.candMax[:n]
	scr.hOwn = scr.hOwn[:n]
	// Every branch below leaves cur holding the load of the state recorded
	// here.
	scr.dropCur()
	for i, u := range scr.members {
		l := a.UserAgent(u)
		scr.hOwn[i] = ownDelay(e.sc, l, u)
		scr.curUsers = append(scr.curUsers, l)
		if l != assign.Unassigned {
			scr.curHost[l]++
		}
	}
	scr.curFlows = append(scr.curFlows[:0], a.SessionFlowAgents(s)...)
	scr.curOK = true

	if dc != nil {
		return e.beginSessionCached(a, s, scr, dc)
	}

	// Rebuild branch: the reference the cached path is bit-identical to.
	e.p.sessionLoadSparse(a, s, &scr.cur, scr)
	if cap(scr.ownBase) < n*n {
		scr.ownBase = make([]float64, n*n)
	}
	scr.base = scr.ownBase[:n*n]
	scr.userMax = scr.ownMax[:n]
	scr.fillDelayBase(a)
	return e.summarize(scr)
}

// dropCur forgets the state cur was recorded for, with its host counts, and
// the neighbourhood kernel's prepared variable.
func (scr *Scratch) dropCur() {
	for _, l := range scr.curUsers {
		if l != assign.Unassigned {
			scr.curHost[l] = 0
		}
	}
	scr.curUsers = scr.curUsers[:0]
	scr.curOK = false
	scr.mv.kind = 0
}

// summarize derives the evaluation of the bound session from its filled
// delay base and current load: the per-user maxima, their mean and the
// worst delay (all zero for a single-member session), and Φ_s.
func (e *Evaluator) summarize(scr *Scratch) SessionEval {
	out := SessionEval{}
	out.MeanDelayMS, out.WorstMS = scr.delaySummary(scr.userMax)
	out.Phi = e.phiFromSparse(out.MeanDelayMS, &scr.cur)
	return out
}

// ownDelay is H(l, u), or 0 for an unassigned user, whose flows flowDelay
// prices at +Inf without reading it.
func ownDelay(sc *model.Scenario, l model.AgentID, u model.UserID) float64 {
	if l == assign.Unassigned {
		return 0
	}
	return sc.H(l, u)
}

// flowDelay is FlowDelayMS for the flow from member i to member j of the
// bound session, with the constant inputs (θ, representations, the flow's
// slot in flowTo = a.SessionFlowAgents) read from the plan and the members'
// access delays from hOwn. Same terms, same order of additions:
// bit-identical to FlowDelayMS.
func (scr *Scratch) flowDelay(a *assign.Assignment, flowTo []model.AgentID, i, j int) float64 {
	pr := scr.plan.Pair(i, j)
	m := assign.Unassigned
	if pr.Flow >= 0 {
		m = flowTo[pr.Flow]
	}
	return scr.flowDelayVia(a, i, j, pr, m)
}

// flowDelayVia is flowDelay for the pair pr of members i and j, transcoded
// at m when pr transcodes.
func (scr *Scratch) flowDelayVia(a *assign.Assignment, i, j int, pr *model.PlanPair, m model.AgentID) float64 {
	sc := scr.sc
	lu, lv := a.UserAgent(scr.members[i]), a.UserAgent(scr.members[j])
	if lu == assign.Unassigned || lv == assign.Unassigned {
		return math.Inf(1)
	}
	d := scr.hOwn[i] + scr.hOwn[j]
	if pr.Flow < 0 {
		return d + sc.D(lu, lv)
	}
	if m == assign.Unassigned {
		return math.Inf(1)
	}
	sigma := sc.Agent(m).Sigma(scr.plan.Members[i].UpRep, model.Representation(pr.Rep))
	return d + sc.D(lu, m) + sc.D(m, lv) + sigma
}

// fillDelayBase computes every per-flow delay of the prepared session into
// scr.base (the full rebuild both the cold cache path and the reference
// path run).
func (scr *Scratch) fillDelayBase(a *assign.Assignment) {
	n := scr.n
	flowTo := a.SessionFlowAgents(scr.sid)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if j != i {
				scr.base[i*n+j] = scr.flowDelay(a, flowTo, i, j)
			}
		}
	}
}

// beginSessionCached is BeginSession's delay-cache path: bind the session's
// persistent entry as the active delay base, re-validate it against the
// live decision variables, and recompute only what moved. The session and n
// are already bound by the caller.
func (e *Evaluator) beginSessionCached(a *assign.Assignment, s model.SessionID, scr *Scratch, dc *DelayCache) SessionEval {
	n := scr.n
	ent := &dc.ent[s]
	flows := a.SessionFlowsShared(s)
	flowTo := a.SessionFlowAgents(s)
	if ent.base == nil {
		ent.base = make([]float64, n*n)
		ent.userMax = make([]float64, n)
		ent.userSig = make([]model.AgentID, n)
		ent.flowSig = make([]model.AgentID, len(flows))
		ent.valid = false
	}
	scr.base = ent.base
	scr.userMax = ent.userMax

	finish := func(out SessionEval) SessionEval {
		// Synchronize the entry to the evaluated state.
		ent.load.pack(&scr.cur)
		ent.phi, ent.mean, ent.worst = out.Phi, out.MeanDelayMS, out.WorstMS
		ent.valid = true
		return out
	}
	rebuild := func() SessionEval {
		e.p.sessionLoadSparse(a, s, &scr.cur, scr)
		scr.fillDelayBase(a)
		out := e.summarize(scr)
		for i, u := range scr.members {
			ent.userSig[i] = a.UserAgent(u)
		}
		copy(ent.flowSig, flowTo)
		return finish(out)
	}

	if !ent.valid {
		dc.rebuilds++
		return rebuild()
	}

	if moved := e.patchEntry(a, scr, ent, flows, flowTo); moved == 0 {
		// Unchanged signature: matrix, maxima, load, Φ_s and summary are
		// all bitwise-unchanged — reuse everything.
		dc.hits++
		ent.load.unpack(&scr.cur)
		return SessionEval{Phi: ent.phi, MeanDelayMS: ent.mean, WorstMS: ent.worst}
	}
	dc.patches++
	e.p.sessionLoadSparse(a, s, &scr.cur, scr)
	return finish(e.summarize(scr))
}

// patchEntry diffs the warm entry's decision signature against the live
// assignment and recomputes exactly the delay entries whose endpoints
// moved: a moved member invalidates its row and column, a moved flow one
// entry. Returns the number of moved variables (0 = the matrix is
// bitwise-unchanged). The recomputed values come from the same pure
// flowDelay a full rebuild would call, so the patched matrix is
// bit-identical to a rebuild.
func (e *Evaluator) patchEntry(a *assign.Assignment, scr *Scratch, ent *delayEntry,
	flows []model.Flow, flowTo []model.AgentID) int {
	n := scr.n
	scr.movedMembers = scr.movedMembers[:0]
	for i, u := range scr.members {
		if l := a.UserAgent(u); ent.userSig[i] != l {
			ent.userSig[i] = l
			scr.hOwn[i] = ownDelay(e.sc, l, u)
			scr.movedMembers = append(scr.movedMembers, int32(i))
		}
	}
	movedFlows := 0
	for k, l := range flowTo {
		if ent.flowSig[k] != l {
			ent.flowSig[k] = l
			i, j := e.sc.MemberIndex(flows[k].Src), e.sc.MemberIndex(flows[k].Dst)
			scr.base[i*n+j] = scr.flowDelay(a, flowTo, i, j)
			movedFlows++
		}
	}
	if len(scr.movedMembers) == 0 {
		return movedFlows
	}
	if 2*len(scr.movedMembers) >= n {
		// Patching m moved members costs 2m(n−1) flow evaluations vs
		// n(n−1) for a full refill: refill when half the session moved.
		// (The flow-moved entries above are simply overwritten again with
		// identical values.)
		scr.fillDelayBase(a)
	} else {
		for _, i32 := range scr.movedMembers {
			i := int(i32)
			for j := 0; j < n; j++ {
				if j == i {
					continue
				}
				scr.base[i*n+j] = scr.flowDelay(a, flowTo, i, j)
				scr.base[j*n+i] = scr.flowDelay(a, flowTo, j, i)
			}
		}
	}
	return movedFlows + len(scr.movedMembers)
}

// CommitSessionDecision is the hop pipeline's commit notification: after a
// chosen candidate is applied permanently (the assignment holds the
// committed state), the committing evaluation already has the state's
// sparse load (the winning NeighbourLoad) and its Φ_s (the winning
// CandidatePhi), so the session's warm delay-cache entry can be
// re-synchronized by patching just the committed decision's flows — the
// next BeginSession for the session is then a pure warm hit instead of a
// patch. load and phi must describe the committed state exactly (they are
// bit-identical to what a fresh BeginSession would compute, since Φ_s is a
// pure function of the session's variables). No-op when the cache is off,
// cold, or the scratch is prepared for a different session.
func (e *Evaluator) CommitSessionDecision(a *assign.Assignment, s model.SessionID, scr *Scratch, load *SparseLoad, phi float64) {
	if scr.dcOff || scr.dc == nil || scr.sid != s || int(s) >= len(scr.dc.ent) {
		return
	}
	ent := &scr.dc.ent[s]
	if !ent.valid || ent.base == nil {
		return
	}
	scr.mv.kind = 0 // the base and hOwn move to the committed state
	scr.base = ent.base
	scr.userMax = ent.userMax
	e.patchEntry(a, scr, ent, a.SessionFlowsShared(s), a.SessionFlowAgents(s))
	ent.mean, ent.worst = scr.delaySummary(scr.userMax)
	ent.load.pack(load)
	// Canonicalize to ascending agent order — the state phiFromSparse
	// leaves behind on the rebuild path. (Every load consumer is
	// order-insensitive per slot or sorts first, so this is cosmetic for
	// exactness but keeps warm-restored loads byte-comparable.)
	ent.load.sortAgents()
	ent.phi = phi
}

// delaySummary computes per-user maxima (into maxBuf), their mean, and the
// session-wide worst delay from the base matrix, exactly as SessionDelaysOf.
func (scr *Scratch) delaySummary(maxBuf []float64) (meanOfMax, worst float64) {
	n := scr.n
	for j := 0; j < n; j++ {
		maxBuf[j] = 0
	}
	for i := 0; i < n; i++ {
		row := scr.base[i*n : i*n+n]
		for j := 0; j < n; j++ {
			if j == i {
				continue
			}
			d := row[j]
			if d > maxBuf[j] {
				maxBuf[j] = d
			}
			if d > worst {
				worst = d
			}
		}
	}
	sum := 0.0
	for j := 0; j < n; j++ {
		sum += maxBuf[j]
	}
	return sum / float64(n), worst
}

// b2i is 1 for true and 0 for false.
func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// memberIndex resolves a user to its member index in the session prepared
// by BeginSession, failing loudly on the staleness-contract violation: a
// decision handed to CandidatePhi must reference only members of the
// session BeginSession last prepared on this scratch.
func (scr *Scratch) memberIndex(u model.UserID) int {
	if int(u) < 0 || int(u) >= scr.sc.NumUsers() || scr.sc.User(u).Session != scr.sid {
		panic(fmt.Sprintf(
			"cost: CandidatePhi: user %d is not a member of session %d prepared by BeginSession; "+
				"the scratch is stale — BeginSession must run for the decision's session before its candidates are evaluated",
			u, scr.sid))
	}
	return scr.sc.MemberIndex(u)
}

// candColumnMax returns destination j's maximum incoming delay when the
// entry from source i becomes v and the rest of column j keeps its base
// values. O(1) unless the entry that held the column's maximum went down,
// which forces a rescan of the column.
func (scr *Scratch) candColumnMax(i, j int, v float64) float64 {
	n := scr.n
	m := scr.userMax[j]
	if v >= m {
		return v
	}
	if scr.base[i*n+j] < m {
		return m // another source holds the maximum
	}
	m = v
	for r := 0; r < n; r++ {
		if r == i || r == j {
			continue
		}
		if d := scr.base[r*n+j]; d > m {
			m = d
		}
	}
	return m
}

// ---------------------------------------------------------------------------
// Ledger operations on a load

// Add accumulates a session load into the ledger in O(touched).
func (g *Ledger) Add(sl *SparseLoad) { g.AddRange(sl, 0, len(g.down)) }

// Remove subtracts a session load from the ledger in O(touched).
func (g *Ledger) Remove(sl *SparseLoad) { g.RemoveRange(sl, 0, len(g.down)) }

// fitsRepairAt is the per-agent FitsRepairDelta condition. An agent a move
// leaves unchanged passes without a look at its capacity: its new usage is
// its old.
func (g *Ledger) fitsRepairAt(l int, candDown, candUp float64, candTasks int, curDown, curUp float64, curTasks int) bool {
	if candDown == curDown && candUp == curUp && candTasks == curTasks {
		return true
	}
	const eps = 1e-9
	capDown, capUp, capTasks := g.effectiveCaps(l)
	newDown := g.down[l] + candDown
	newUp := g.up[l] + candUp
	newTasks := g.tasks[l] + candTasks
	oldDown := g.down[l] + curDown
	oldUp := g.up[l] + curUp
	oldTasks := g.tasks[l] + curTasks
	if newDown > capDown+eps && newDown > oldDown+eps {
		return false
	}
	if newUp > capUp+eps && newUp > oldUp+eps {
		return false
	}
	if newTasks > capTasks && newTasks > oldTasks {
		return false
	}
	return true
}

// FitsRepairDelta reports whether replacing a session's current load with
// the candidate keeps every agent within capacity OR, where an agent is
// already over its (possibly degraded) capacity, does not worsen it. This
// lets the chain execute repair migrations after a capacity degradation:
// strict Fits would freeze every session touching the overloaded agent. Only
// the agents candidate or current touch are visited — exact: on any other
// agent both loads contribute zero, so the condition holds trivially there
// whatever the background ledger.
func (g *Ledger) FitsRepairDelta(candidate, current *SparseLoad) bool {
	return g.FitsRepairDeltaRange(candidate, current, 0, len(g.down))
}

// FitsTouched is the strict capacity check (constraints (5)–(7)) restricted
// to the agents the candidate touches. It equals Fits(candidate) whenever
// the background ledger alone is feasible; callers that may run over a
// degraded or overloaded ledger must check Fits(nil) once per evaluation
// round and AND it in (or use FitsRepairDelta, which needs no such guard).
func (g *Ledger) FitsTouched(candidate *SparseLoad) bool {
	for _, l32 := range candidate.touched {
		l := int(l32)
		if g.overAt(l, candidate.down[l], candidate.up[l], candidate.tasks[l]) {
			return false
		}
	}
	return true
}

// EnvelopeAgent is one agent's entry of a load envelope at rest: upper
// bounds on the download, upload and tasks a set of loads puts on the agent.
// The bandwidths are float32 rounded up, so they stay upper bounds.
type EnvelopeAgent struct {
	Agent    int32
	Tasks    int32
	Down, Up float32
}

// Raise lifts the entry to cover a load of down, up and tasks on its agent.
func (e *EnvelopeAgent) Raise(down, up float64, tasks int) {
	e.Down = max(e.Down, roundUp32(down))
	e.Up = max(e.Up, roundUp32(up))
	e.Tasks = max(e.Tasks, int32(tasks))
}

func roundUp32(x float64) float32 {
	f := float32(x)
	if float64(f) < x {
		f = math.Nextafter32(f, float32(math.Inf(1)))
	}
	return f
}

// FitsEnvelope reports whether the envelope's bounds, added to the ledger's
// usage, stay within every agent's scaled capacity — the plain branch of
// the FitsRepairDelta condition. It is an exact certificate for the loads under
// the envelope: fl(usage + x) is monotone in x, so where the bound fits,
// every load it bounds fits too, and FitsRepairDelta accepts each of them
// whatever the current load.
func (g *Ledger) FitsEnvelope(env []EnvelopeAgent) bool {
	for _, e := range env {
		if g.overAt(int(e.Agent), float64(e.Down), float64(e.Up), int(e.Tasks)) {
			return false
		}
	}
	return true
}
