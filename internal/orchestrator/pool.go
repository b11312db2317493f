package orchestrator

import (
	"math"
	"math/rand"
	"sync"
	"time"

	"vconf/internal/assign"
	"vconf/internal/core"
	"vconf/internal/cost"
	"vconf/internal/model"
	"vconf/internal/shard"
	"vconf/internal/telemetry"
)

// reoptTask is one unit of shard-pool work: re-optimize one session's
// variables by a bounded Markov refinement walk. tally, when non-nil
// (pipelined mode), attributes the task's outcome to its event so per-event
// reports stay exact while events overlap.
type reoptTask struct {
	session model.SessionID
	seed    int64
	wg      *sync.WaitGroup
	tally   *eventTally
	// parent is the causal span of the event (or heal) that scheduled this
	// task; the finished task's attribution spans nest under it (zero when
	// telemetry is off).
	parent telemetry.Span
}

// eventTally accumulates one event's task outcomes; its fields are guarded
// by o.mu alongside the global stats counters. The pipelined path always
// attaches one (per-event reports stay exact while events overlap); the
// serial path attaches one only when telemetry is enabled, to feed the
// decision record. chosenAgent must be initialized to -1.
type eventTally struct {
	commits, rejects, noChange, conflicts int
	// Per-task telemetry, merged at task finish (telemetry enabled only):
	// phase durations and delay-cache outcome deltas.
	snapshotNs, walkNs, commitNs int64
	cacheWarm, cacheCold         int
	// The counterfactual-k reading of the event's first committed proposal
	// (see noteDecisive); only the decision record reads it.
	chosenAgent int
	cfGap       float64
	cfValid     bool
	// delayMS is the trigger session's post-decision mean-of-max delay
	// (admitted arrivals only; see Orchestrator.observeDelay).
	delayMS float64
}

// noteDecisive keeps the decisive hop of the event's first committed
// proposal: its target agent and its counterfactual-k gap (Φ runner-up −
// Φ chosen; +Inf, and not valid, when the hop had no runner-up).
func (ty *eventTally) noteDecisive(b bestState) {
	if ty.chosenAgent >= 0 || b.cfAgent < 0 {
		return
	}
	ty.chosenAgent = b.cfAgent
	if !math.IsInf(b.cfGap, 1) {
		ty.cfGap = b.cfGap
		ty.cfValid = true
	}
}

// bumpTask increments a global outcome counter and, for pipelined events,
// the matching per-event tally slot, under the state lock, and moves the
// worker's walk tallies into the stats with them.
func (o *Orchestrator) bumpTask(w *workerState, global, local *int) {
	o.mu.Lock()
	*global++
	if local != nil {
		*local++
	}
	o.flushWalk(w)
	o.mu.Unlock()
}

// flushWalk moves the hops worker w has walked since its last flush into the
// stats. The caller holds o.mu.
func (o *Orchestrator) flushWalk(w *workerState) {
	o.stats.WalkHops += w.walk.Hops
	o.stats.WalkReused += w.walk.Reused
	w.walk = core.WalkStats{}
}

func (t reoptTask) noChangeSlot() *int {
	if t.tally == nil {
		return nil
	}
	return &t.tally.noChange
}

func (t reoptTask) rejectSlot() *int {
	if t.tally == nil {
		return nil
	}
	return &t.tally.rejects
}

func (t reoptTask) conflictSlot() *int {
	if t.tally == nil {
		return nil
	}
	return &t.tally.conflicts
}

// telOutcome mirrors one task outcome into the telemetry sink's
// per-(class,region) sharded counters (no-op when telemetry is off).
func (o *Orchestrator) telOutcome(worker int, s model.SessionID, oc telemetry.TaskOutcome) {
	if o.tel == nil {
		return
	}
	o.tel.TaskOutcome(worker, o.tel.RegionOf(int(s)), o.tel.ClassOf(int(s)), oc)
}

// telConflict mirrors one lost commit race into the telemetry sink.
func (o *Orchestrator) telConflict(worker int, s model.SessionID) {
	if o.tel == nil {
		return
	}
	o.tel.TaskConflict(worker, o.tel.RegionOf(int(s)), o.tel.ClassOf(int(s)))
}

// taskSeed derives a deterministic per-task RNG seed, so a task's walk
// depends only on (config seed, session, event index) — never on which
// worker goroutine happens to pick it up.
func taskSeed(seed int64, s model.SessionID, eventIdx int) int64 {
	z := uint64(seed)*0x9e3779b97f4a7c15 + uint64(s)*0xbf58476d1ce4e5b9 + uint64(eventIdx)*0x94d049bb133111eb
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	return int64(z >> 1)
}

// dispatch hands the session set to the worker pool and blocks until every
// task has been refined and merged (the per-event barrier), returning the
// wall-clock latency — the orchestrator's headline responsiveness metric.
//
// The barrier is also what makes the lock-free parts of the sharded commit
// pipeline sound: within one dispatch the event loop is parked and every
// session appears in at most one task, so a task is the only goroutine
// reading or writing its session's variables in the live assignment.
func (o *Orchestrator) dispatch(sessions []model.SessionID, tally *eventTally, parent telemetry.Span) time.Duration {
	start := time.Now()
	var wg sync.WaitGroup
	for _, s := range sessions {
		wg.Add(1)
		o.tasks <- reoptTask{session: s, seed: taskSeed(o.cfg.Core.Seed, s, o.eventIdx), wg: &wg, tally: tally, parent: parent}
	}
	wg.Wait()
	o.mu.Lock()
	o.stats.Tasks += len(sessions)
	o.mu.Unlock()
	return time.Since(start)
}

// workerState is one worker's private buffers: the hop scratch, a dense
// snapshot ledger with its epoch stamps and commit route (sharded mode),
// a private assignment the refinement walk mutates, and the proposal
// buffers. Everything is reused across tasks — the RNG is re-seeded per
// task, which yields exactly the stream a fresh one would — so steady-state
// refinement allocates nothing.
type workerState struct {
	id  int // counter-shard index into the telemetry sink
	scr *core.HopScratch
	rng *rand.Rand
	// walk tallies the hops walked since the last flushWalk.
	walk core.WalkStats
	// probe is the reused per-task instrumentation scratch (telemetry
	// enabled only), so enabling the sink adds no per-task allocation.
	probe taskProbe
	// Sharded-pipeline state (nil/unused in single-lock mode).
	snap      *cost.Ledger
	epochs    shard.Epochs
	route     shard.Route
	snapRoute shard.Route
	agents    []model.AgentID
	aw        *assign.Assignment
	cur       *cost.SparseLoad
	userTo    []model.AgentID
	flowTo    []model.AgentID
	ds        []assign.Decision
}

// taskProbe carries one task's in-flight instrumentation: the task's start
// time (anchoring its span), phase durations, and the delay-cache counter
// baseline captured at task start (the cache counters are cumulative per
// scratch, so the task's contribution is the difference).
type taskProbe struct {
	start                               time.Time
	snapshotNs, walkNs, commitNs        int64
	commitStart                         time.Time
	baseHits, basePatches, baseRebuilds int64
}

// flushCommit closes an open commit-phase interval.
func (p *taskProbe) flushCommit() {
	if !p.commitStart.IsZero() {
		p.commitNs += time.Since(p.commitStart).Nanoseconds()
		p.commitStart = time.Time{}
	}
}

// beginTaskProbe resets the worker's probe and captures the delay-cache
// baseline. Caller must have checked o.tel != nil.
func (o *Orchestrator) beginTaskProbe(w *workerState) *taskProbe {
	w.probe = taskProbe{start: time.Now()}
	if dc := w.scr.Eval().DelayCacheStats(); dc != nil {
		w.probe.baseHits = int64(dc.Hits())
		w.probe.basePatches = int64(dc.Patches())
		w.probe.baseRebuilds = int64(dc.Rebuilds())
	}
	return &w.probe
}

// finishTaskProbe publishes one task's probe: phase counters and cache
// deltas to the sink (worker-sharded, lock-free), the probe's timers
// promoted into a task span with snapshot/walk/commit attribution children
// on the worker's trace lane, and — when the task carries an event tally —
// the same readings into the event's record fields under o.mu.
func (o *Orchestrator) finishTaskProbe(t reoptTask, w *workerState, probe *taskProbe) {
	probe.flushCommit()
	var hits, patches, rebuilds int64
	if dc := w.scr.Eval().DelayCacheStats(); dc != nil {
		hits = int64(dc.Hits()) - probe.baseHits
		patches = int64(dc.Patches()) - probe.basePatches
		rebuilds = int64(dc.Rebuilds()) - probe.baseRebuilds
	}
	o.tel.TaskPhases(w.id, probe.snapshotNs, probe.walkNs, probe.commitNs)
	o.tel.CacheEvals(w.id, hits, patches, rebuilds)
	// Promote the finished timers into spans: the task span covers the full
	// wall interval on the worker's lane (workers run tasks serially, so
	// lanes never self-overlap); the phase children are laid contiguously
	// from the start — attribution, not a literal timeline, since retries
	// interleave the phases (their sum never exceeds the task wall time).
	lane := taskLaneBase + int32(w.id)
	task := o.tel.EmitSpan("task", "task", t.parent, lane, probe.start, time.Since(probe.start).Nanoseconds(), int64(t.session))
	at := probe.start
	for _, ph := range [...]struct {
		name string
		ns   int64
	}{{"snapshot", probe.snapshotNs}, {"walk", probe.walkNs}, {"commit", probe.commitNs}} {
		if ph.ns <= 0 {
			continue
		}
		o.tel.EmitSpan(ph.name, "task", task, lane, at, ph.ns, int64(t.session))
		at = at.Add(time.Duration(ph.ns))
	}
	if t.tally != nil {
		o.mu.Lock()
		t.tally.snapshotNs += probe.snapshotNs
		t.tally.walkNs += probe.walkNs
		t.tally.commitNs += probe.commitNs
		t.tally.cacheWarm += int(hits + patches)
		t.tally.cacheCold += int(rebuilds)
		o.mu.Unlock()
	}
}

// worker is one solver shard: it refines tasks until the pool closes. id is
// the worker's counter-shard index in the telemetry sink.
func (o *Orchestrator) worker(id int) {
	w := &workerState{id: id, scr: core.NewHopScratch(o.ev), rng: rand.New(rand.NewSource(0))}
	w.scr.SetProximityIndex(o.nbrIdx)
	// The worker's scratch carries a private per-session delay cache that
	// stays warm across the hops of one refinement walk (and across tasks,
	// when the session's variables did not change in between). Entries
	// self-validate against the session's decision variables, so commits by
	// sibling workers and the event loop's arrivals/departures — all of
	// which rewrite those variables — are picked up as signature mismatches
	// on the next evaluation; stale state is never reused (see
	// cost.DelayCache's staleness contract).
	w.scr.Eval().SetDelayCacheEnabled(!o.cfg.Core.RebuildDelayBase)
	if o.shl != nil {
		w.snap = cost.NewLedger(o.sc)
		w.epochs = make(shard.Epochs, 0, o.shl.NumShards())
		w.aw = assign.New(o.sc)
		w.cur = cost.NewSparseLoad(o.sc.NumAgents())
	}
	for t := range o.tasks {
		if o.shl != nil {
			o.refineSharded(t, w)
		} else {
			o.refineSingleLock(t, w)
		}
		t.wg.Done()
	}
}

// ---------------------------------------------------------------------------
// Sharded commit pipeline

// refineSharded runs one re-optimization task against the lock-striped
// ledger: snapshot the capacity state shard by shard (epoch-stamped), walk
// the Markov refinement on worker-private state, and commit the best-seen
// proposal through shard.Ledger.CommitDelta — locking only the shards the
// proposal touches, so commits with disjoint routes proceed fully in
// parallel. A bounded retry loop re-snapshots and re-walks when a commit
// loses a cross-shard race (shard.Conflict).
//
// No lock guards the live assignment accesses here: the dispatch barrier
// guarantees this task is the sole owner of its session's variables (see
// dispatch), and o.mu is taken only for the brief stats/cache/runtime
// update after a successful capacity commit.
func (o *Orchestrator) refineSharded(t reoptTask, w *workerState) {
	if !o.cache.Active(t.session) {
		return
	}
	w.rng.Seed(t.seed)
	users := o.sc.Session(t.session).Users
	flows := o.a.SessionFlowsShared(t.session)
	// Index view of the session's live flow placements, aligned with flows.
	liveFlowTo := o.a.SessionFlowAgents(t.session)
	w.userTo = growAgents(w.userTo, len(users))
	w.flowTo = growAgents(w.flowTo, len(flows))

	// Instrumentation (telemetry enabled only): the probe times the
	// snapshot/walk/commit phases and diffs the delay-cache counters.
	var probe *taskProbe
	var t0 time.Time
	if o.tel != nil {
		probe = o.beginTaskProbe(w)
		defer o.finishTaskProbe(t, w, probe)
	}

	for attempt := 0; ; attempt++ {
		if probe != nil {
			probe.flushCommit()
			t0 = time.Now()
		}
		// Epoch-stamped capacity snapshot plus a private copy of the
		// session's decision variables: everything the walk reads. With a
		// candidate window configured, the walk can only read the session's
		// current agents plus the members' window agents, so only the
		// shards covering that set are copied — O(session·window) instead
		// of O(fleet) per task.
		if o.nbrIdx != nil {
			w.agents = w.agents[:0]
			for _, u := range users {
				if l := o.a.UserAgent(u); l >= 0 {
					w.agents = append(w.agents, l)
				}
				w.agents = append(w.agents, o.nbrIdx.UserWindow(u)...)
			}
			for _, l := range liveFlowTo {
				if l >= 0 {
					w.agents = append(w.agents, l)
				}
			}
			o.shl.ResetRoute(&w.snapRoute)
			o.shl.RouteAgents(&w.snapRoute, w.agents)
			w.epochs = o.shl.SnapshotRoute(w.snap, w.epochs, &w.snapRoute)
		} else {
			w.epochs = o.shl.SnapshotInto(w.snap, w.epochs[:0])
		}
		for _, u := range users {
			w.aw.SetUserAgent(u, o.a.UserAgent(u))
		}
		w.aw.SetSessionFlowAgents(t.session, liveFlowTo)

		if probe != nil {
			now := time.Now()
			probe.snapshotNs += now.Sub(t0).Nanoseconds()
			t0 = now
		}
		es := w.scr.Eval()
		startPhi := o.ev.BeginSession(w.aw, t.session, es).Phi
		w.cur.CopyFrom(es.CurLoad())

		best, err := o.walkBest(t, w, w.aw, w.snap, startPhi, w.userTo, w.flowTo)
		if err != nil {
			o.reportErr(err)
			return
		}
		if probe != nil {
			now := time.Now()
			probe.walkNs += now.Sub(t0).Nanoseconds()
			probe.commitStart = now
		}
		if !best.improved {
			o.bumpTask(w, &o.stats.NoChange, t.noChangeSlot())
			o.telOutcome(w.id, t.session, telemetry.OutcomeNoChange)
			return
		}

		// Rewind the private assignment to the best-seen state and derive
		// the net decisions against the live state.
		for i, u := range users {
			w.aw.SetUserAgent(u, w.userTo[i])
		}
		w.aw.SetSessionFlowAgents(t.session, w.flowTo)
		w.ds = w.ds[:0]
		for i, u := range users {
			if o.a.UserAgent(u) != w.userTo[i] {
				w.ds = append(w.ds, assign.Decision{Kind: assign.UserMove, User: u, To: w.userTo[i]})
			}
		}
		for i, f := range flows {
			if liveFlowTo[i] != w.flowTo[i] {
				w.ds = append(w.ds, assign.Decision{Kind: assign.FlowMove, Flow: f, To: w.flowTo[i]})
			}
		}
		if len(w.ds) == 0 {
			o.bumpTask(w, &o.stats.NoChange, t.noChangeSlot())
			o.telOutcome(w.id, t.session, telemetry.OutcomeNoChange)
			return
		}

		// Re-evaluate the proposed state through the sparse pipeline and
		// re-check improvement and the delay cap — the same guards the
		// single-lock commit path applies.
		newEval := o.ev.BeginSession(w.aw, t.session, es)
		newLoad := es.CurLoad()
		if newEval.Phi >= startPhi-o.cfg.ImprovementEps {
			o.bumpTask(w, &o.stats.NoChange, t.noChangeSlot())
			o.telOutcome(w.id, t.session, telemetry.OutcomeNoChange)
			return
		}
		if !newEval.DelayFeasible(o.sc.DMaxMS) {
			o.bumpTask(w, &o.stats.Rejects, t.rejectSlot())
			o.telOutcome(w.id, t.session, telemetry.OutcomeReject)
			return
		}

		// Capacity is the only state other sessions contend on: route,
		// lock, re-validate and apply atomically in the shard pipeline.
		switch o.shl.CommitDelta(newLoad, w.cur, w.epochs, &w.route) {
		case shard.Committed:
			for _, d := range w.ds {
				if _, err := o.a.Apply(d); err != nil {
					o.reportErr(err)
					return
				}
			}
			// Pipelined mode keeps the touched-set index and the objective
			// cache current from the committing worker's own evaluation, so
			// no later admission or retire ever recomputes this session from
			// the shared assignment while another event may own it. The
			// agent extraction runs on worker-private state before taking mu.
			var idxAgents []model.AgentID
			if o.pipe != nil {
				idxAgents = newLoad.AppendAgents(nil)
			}
			o.mu.Lock()
			if o.pipe != nil {
				o.cache.Prime(t.session, newEval.Phi, newLoad)
				o.touchIdx[t.session] = idxAgents
			} else {
				o.cache.Invalidate(t.session)
			}
			o.stats.Commits++
			o.flushWalk(w)
			if t.tally != nil {
				t.tally.commits++
				t.tally.noteDecisive(best)
			}
			if o.rt != nil {
				for _, d := range w.ds {
					if err := o.rt.Migrate(o.now, d); err != nil {
						o.refErr = err
						o.mu.Unlock()
						return
					}
				}
				o.stats.Migrations += len(w.ds)
			}
			o.mu.Unlock()
			o.telOutcome(w.id, t.session, telemetry.OutcomeCommit)
			return
		case shard.Conflict:
			// A sibling commit changed a routed shard after our snapshot:
			// the walk ran on stale residual capacities. Retry bounded.
			o.bumpTask(w, &o.stats.Conflicts, t.conflictSlot())
			o.telConflict(w.id, t.session)
			if attempt < o.cfg.CommitRetries {
				continue
			}
			o.bumpTask(w, &o.stats.Rejects, t.rejectSlot())
			o.telOutcome(w.id, t.session, telemetry.OutcomeReject)
			return
		default: // shard.Infeasible
			o.bumpTask(w, &o.stats.Rejects, t.rejectSlot())
			o.telOutcome(w.id, t.session, telemetry.OutcomeReject)
			return
		}
	}
}

// bestState is what one refinement walk found: the best session-local
// objective seen (the start's unless improved) and the hop that reached it:
// its target agent (-1 unless improved) and counterfactual-k gap.
type bestState struct {
	phi      float64
	improved bool
	cfAgent  int
	cfGap    float64
}

// walkBest runs task t's bounded refinement walk from the state a holds
// (objective startPhi) against the worker-private ledger and leaves the
// best state seen in userTo/flowTo, aligned with the session's users and
// flows: the chain may pass through worse states (that is what lets it
// escape local minima). The caller seeds w.rng.
func (o *Orchestrator) walkBest(t reoptTask, w *workerState, a *assign.Assignment, ledger *cost.Ledger,
	startPhi float64, userTo, flowTo []model.AgentID) (bestState, error) {
	users := o.sc.Session(t.session).Users
	curFlowTo := a.SessionFlowAgents(t.session)
	capture := func() {
		for i, u := range users {
			userTo[i] = a.UserAgent(u)
		}
		copy(flowTo, curFlowTo)
	}
	capture()
	best := bestState{phi: startPhi, cfAgent: -1}
	ws, err := core.WalkSession(a, t.session, o.ev, ledger, o.cfg.Core, w.rng, w.scr, o.cfg.HopBudget,
		func(res core.HopResult) {
			if res.Moved && res.PhiAfter < best.phi-o.cfg.ImprovementEps {
				best = bestState{phi: res.PhiAfter, improved: true,
					cfAgent: int(res.Decision.To), cfGap: res.PhiSecond - res.PhiAfter}
				capture()
			}
		})
	w.walk.Hops += ws.Hops
	w.walk.Reused += ws.Reused
	o.tel.WalkHops(w.id, ws.Hops, ws.Reused)
	return best, err
}

// growAgents resizes a reused agent-ID buffer to n entries.
func growAgents(buf []model.AgentID, n int) []model.AgentID {
	if cap(buf) < n {
		return make([]model.AgentID, n)
	}
	return buf[:n]
}

// ---------------------------------------------------------------------------
// Single-lock reference pipeline (Config.LedgerShards < 0)
//
// The pre-sharding commit path, kept verbatim: snapshot and commit both
// serialize on o.mu, proposals validate against the dense ledger while
// holding it. The P=1 sharded pipeline is bit-identical to this path (the
// differential tests replay identical schedules through both); it remains
// the before/after baseline for the shard-count benchmarks.

// proposal is the outcome of one refinement walk: the session's best-seen
// variable values.
type proposal struct {
	session model.SessionID
	users   []model.UserID
	flows   []model.Flow
	// userTo/flowTo are the proposed agents, aligned with users/flows.
	userTo []model.AgentID
	flowTo []model.AgentID
	best   bestState // best.phi is the proposed state's exact session-local Φ
}

// refineSingleLock snapshots the live state under the commit lock, runs a
// bounded warm-started Markov walk on the snapshot, and merges the best
// state found.
func (o *Orchestrator) refineSingleLock(t reoptTask, w *workerState) {
	var probe *taskProbe
	var t0 time.Time
	if o.tel != nil {
		probe = o.beginTaskProbe(w)
		defer o.finishTaskProbe(t, w, probe)
		t0 = time.Now()
	}
	// Snapshot under the commit lock: clone the assignment and ledger so
	// the walk runs without blocking other workers or the event loop.
	o.mu.Lock()
	if !o.cache.Active(t.session) {
		o.mu.Unlock()
		return
	}
	a := o.a.Clone()
	ledger := o.dense.Clone()
	startPhi := o.cache.SessionObjective(o.a, t.session)
	o.mu.Unlock()
	if probe != nil {
		now := time.Now()
		probe.snapshotNs += now.Sub(t0).Nanoseconds()
		t0 = now
	}

	users := o.sc.Session(t.session).Users
	flows := a.SessionFlows(t.session)
	prop := proposal{
		session: t.session,
		users:   users,
		flows:   flows,
		userTo:  make([]model.AgentID, len(users)),
		flowTo:  make([]model.AgentID, len(flows)),
	}
	w.rng.Seed(t.seed)
	var err error
	if prop.best, err = o.walkBest(t, w, a, ledger, startPhi, prop.userTo, prop.flowTo); err != nil {
		o.reportErr(err)
		return
	}
	if probe != nil {
		now := time.Now()
		probe.walkNs += now.Sub(t0).Nanoseconds()
		probe.commitStart = now
	}
	if !prop.best.improved {
		o.bumpTask(w, &o.stats.NoChange, t.noChangeSlot())
		o.telOutcome(w.id, t.session, telemetry.OutcomeNoChange)
		return
	}
	o.commitSingleLock(t, w, prop)
}

// commitSingleLock merges a proposal under the commit lock with optimistic
// validation: the session must still be active, the net decisions must
// still fit capacity and the delay cap against the *current* ledger, and
// the objective must still strictly improve. Accepted decisions are
// mirrored to the data plane as dual-feed migrations.
func (o *Orchestrator) commitSingleLock(t reoptTask, w *workerState, p proposal) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.flushWalk(w)
	if !o.cache.Active(p.session) {
		o.stats.Rejects++ // departed while refining
		if t.tally != nil {
			t.tally.rejects++
		}
		o.telOutcome(w.id, p.session, telemetry.OutcomeReject)
		return
	}
	curPhi := o.cache.SessionObjective(o.a, p.session)
	if p.best.phi >= curPhi-o.cfg.ImprovementEps {
		o.stats.NoChange++
		if t.tally != nil {
			t.tally.noChange++
		}
		o.telOutcome(w.id, p.session, telemetry.OutcomeNoChange)
		return
	}

	// Net decisions: one per variable that differs from the live state.
	var ds []assign.Decision
	for i, u := range p.users {
		if o.a.UserAgent(u) != p.userTo[i] {
			ds = append(ds, assign.Decision{Kind: assign.UserMove, User: u, To: p.userTo[i]})
		}
	}
	liveFlowTo := o.a.SessionFlowAgents(p.session)
	for i, f := range p.flows {
		if liveFlowTo[i] != p.flowTo[i] {
			ds = append(ds, assign.Decision{Kind: assign.FlowMove, Flow: f, To: p.flowTo[i]})
		}
	}
	if len(ds) == 0 {
		o.stats.NoChange++
		if t.tally != nil {
			t.tally.noChange++
		}
		o.telOutcome(w.id, p.session, telemetry.OutcomeNoChange)
		return
	}

	curLoad := o.cache.SessionLoad(o.a, p.session)
	o.dense.RemoveSparse(curLoad)
	invs := make([]assign.Decision, 0, len(ds))
	rollback := func() {
		for i := len(invs) - 1; i >= 0; i-- {
			o.a.Apply(invs[i])
		}
		o.dense.AddSparse(curLoad)
		o.stats.Rejects++
		if t.tally != nil {
			t.tally.rejects++
		}
		o.telOutcome(w.id, p.session, telemetry.OutcomeReject)
	}
	for _, d := range ds {
		inv, err := o.a.Apply(d)
		if err != nil {
			rollback()
			o.refErr = err
			return
		}
		invs = append(invs, inv)
	}
	// Re-evaluate the proposed state through the commit scratch: sparse
	// load, delta capacity check, and Φ with delay feasibility in one pass.
	newEval := o.ev.BeginSession(o.a, p.session, o.scr)
	newLoad := o.scr.CurLoad()
	if !o.dense.FitsRepairDelta(newLoad, curLoad) ||
		!newEval.DelayFeasible(o.sc.DMaxMS) ||
		newEval.Phi >= curPhi-o.cfg.ImprovementEps {
		rollback()
		return
	}
	o.dense.AddSparse(newLoad)
	o.cache.Invalidate(p.session)
	o.stats.Commits++
	if t.tally != nil {
		t.tally.commits++
		t.tally.noteDecisive(p.best)
	}
	o.telOutcome(w.id, p.session, telemetry.OutcomeCommit)
	if o.rt != nil {
		for _, d := range ds {
			if err := o.rt.Migrate(o.now, d); err != nil {
				o.refErr = err
				return
			}
		}
		o.stats.Migrations += len(ds)
	}
}

func (o *Orchestrator) reportErr(err error) {
	o.mu.Lock()
	if o.refErr == nil {
		o.refErr = err
	}
	o.mu.Unlock()
}
