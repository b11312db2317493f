package orchestrator

import (
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
// variables by a bounded Markov refinement walk. res is the task's own
// result slot in its event's state: the worker that runs the task is its
// only writer, and the event folds it after the event's tasks have all
// finished (eventState.foldTasks).
type reoptTask struct {
	session model.SessionID
	seed    int64
	wg      *sync.WaitGroup
	res     *taskResult
	// parent is the causal span of the event (or heal) that scheduled this
	// task; the finished task's attribution spans nest under it (zero when
	// telemetry is off).
	parent telemetry.Span
}

// taskResult is one task's result slot: what the sink counts (outcome,
// conflicts, walk hops and, with a sink, phase times and delay-cache
// outcomes) plus the decisive hop of a committed proposal — its target
// agent and its counterfactual-k gap, which only the decision record reads.
type taskResult struct {
	telemetry.TaskResult
	cfAgent int
	cfGap   float64
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

// dispatch hands one event's session set (event index seq) to the worker
// pool, task i writing results[i], and blocks until every task has been
// refined and merged, returning the wall-clock latency — the
// orchestrator's headline responsiveness metric.
//
// Session ownership is what makes the lock-free parts of the commit path
// sound: the scheduler runs one event's re-optimization at a time and
// admits no event whose trigger these sessions include — a fault's
// re-homed or re-balanced set is its footprint like any other event's —
// and every session appears in at most one task, so a task is the only
// goroutine reading or writing its session's variables in the live
// assignment.
func (o *Orchestrator) dispatch(sessions []model.SessionID, seq int, results []taskResult, parent telemetry.Span) time.Duration {
	start := time.Now()
	var wg sync.WaitGroup
	for i, s := range sessions {
		wg.Add(1)
		o.tasks <- reoptTask{session: s, seed: taskSeed(o.cfg.Core.Seed, s, seq), wg: &wg, res: &results[i], parent: parent}
	}
	wg.Wait()
	return time.Since(start)
}

// workerState is one worker's private buffers: the hop scratch, a dense
// snapshot ledger with its epoch stamps and commit route, a private
// assignment the refinement walk mutates, and the proposal
// buffers. Everything is reused across tasks — the RNG is re-seeded per
// task, which yields exactly the stream a fresh one would — so steady-state
// refinement allocates nothing.
type workerState struct {
	id  int // trace lane offset of the worker's task spans
	scr *core.HopScratch
	rng *rand.Rand
	// probe is the reused per-task instrumentation scratch (telemetry
	// enabled only), so enabling the sink adds no per-task allocation.
	probe     taskProbe
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
	baseHits, basePatches, baseRebuilds int
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
	w.probe.baseHits, w.probe.basePatches, w.probe.baseRebuilds = w.scr.Eval().DelayCounts()
	return &w.probe
}

// finishTaskProbe publishes one task's probe: phase times and cache
// deltas into the task's result slot, and the probe's timers promoted into
// a task span with snapshot/walk/commit attribution children on the
// worker's trace lane.
func (o *Orchestrator) finishTaskProbe(t reoptTask, w *workerState, probe *taskProbe) {
	probe.flushCommit()
	r := t.res
	hits, patches, rebuilds := w.scr.Eval().DelayCounts()
	r.CacheHits = int64(hits - probe.baseHits)
	r.CachePatches = int64(patches - probe.basePatches)
	r.CacheRebuilds = int64(rebuilds - probe.baseRebuilds)
	r.SnapshotNs, r.WalkNs, r.CommitNs = probe.snapshotNs, probe.walkNs, probe.commitNs
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
}

// worker is one solver shard: it refines tasks until the pool closes. id
// places the worker's task spans on their own trace lane.
func (o *Orchestrator) worker(id int) {
	w := &workerState{id: id, scr: core.NewHopScratch(o.ev), rng: rand.New(&lazySource{})}
	w.scr.SetProximityIndex(o.nbrIdx)
	w.scr.Eval().SetDelayCacheEnabled(!o.cfg.rebuildDelayBase)
	w.snap = cost.NewLedger(o.sc)
	w.epochs = make(shard.Epochs, 0, o.ledger.NumShards())
	w.aw = assign.New(o.sc)
	w.cur = cost.NewSparseLoad(o.sc.NumAgents())
	for t := range o.tasks {
		o.refine(t, w)
		t.wg.Done()
	}
}

// refine runs one re-optimization task against the lock-striped
// ledger: snapshot the capacity state shard by shard (epoch-stamped), walk
// the Markov refinement on worker-private state, and commit the best-seen
// proposal through shard.Ledger.CommitDelta — locking only the shards the
// proposal touches, so commits with disjoint routes proceed fully in
// parallel. A bounded retry loop re-snapshots and re-walks when a commit
// loses a cross-shard race (shard.Conflict).
//
// No lock guards the live assignment accesses here: this task is the sole
// owner of its session's variables (see dispatch), and o.mu is taken only
// for the brief cache/index/runtime update after a successful capacity
// commit. The outcome goes into the task's result slot, which only this
// worker writes.
func (o *Orchestrator) refine(t reoptTask, w *workerState) {
	r := t.res
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
			o.ledger.ResetRoute(&w.snapRoute)
			o.ledger.RouteAgents(&w.snapRoute, w.agents)
			w.epochs = o.ledger.SnapshotRoute(w.snap, w.epochs, &w.snapRoute)
		} else {
			w.epochs = o.ledger.SnapshotInto(w.snap, w.epochs[:0])
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

		best, err := o.walkBest(t, w, startPhi)
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
			r.Outcome = telemetry.OutcomeNoChange
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
			r.Outcome = telemetry.OutcomeNoChange
			return
		}

		// Re-evaluate the proposed state through the sparse pipeline and
		// re-check improvement and the delay cap.
		newEval := o.ev.BeginSession(w.aw, t.session, es)
		newLoad := es.CurLoad()
		if newEval.Phi >= startPhi-improvementEps {
			r.Outcome = telemetry.OutcomeNoChange
			return
		}
		if !newEval.DelayFeasible(o.sc.DMaxMS) {
			r.Outcome = telemetry.OutcomeReject
			return
		}

		// Capacity is the only state other sessions contend on: route,
		// lock, re-validate and apply atomically in the shard pipeline.
		switch o.ledger.CommitDelta(newLoad, w.cur, w.epochs, &w.route) {
		case shard.Committed:
			for _, d := range w.ds {
				if _, err := o.a.Apply(d); err != nil {
					o.reportErr(err)
					return
				}
			}
			r.Outcome = telemetry.OutcomeCommit
			r.cfAgent, r.cfGap = best.cfAgent, best.cfGap
			// Keep the touched-set index and the objective cache current
			// from the committing worker's own evaluation, so no later
			// admission or retire ever recomputes this session from the
			// shared assignment while another event may own it. The agent
			// extraction runs on worker-private state before taking mu.
			idxAgents := newLoad.AppendAgents(nil)
			o.mu.Lock()
			o.cache.Prime(t.session, newEval.Phi, newLoad)
			o.touchIdx[t.session] = idxAgents
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
			return
		case shard.Conflict:
			// A sibling commit changed a routed shard after our snapshot:
			// the walk ran on stale residual capacities. Retry bounded.
			r.Conflicts++
			if attempt < commitRetries {
				continue
			}
			r.Outcome = telemetry.OutcomeReject
			return
		default: // shard.Infeasible
			r.Outcome = telemetry.OutcomeReject
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

// walkBest runs task t's bounded refinement walk from the state the
// worker's private assignment holds (objective startPhi) against its
// ledger snapshot and leaves the best state seen in w.userTo/w.flowTo,
// aligned with the session's users and flows: the chain may pass through
// worse states (that is what lets it escape local minima). The walk's hop
// tallies add into the task's result slot. The caller seeds w.rng.
func (o *Orchestrator) walkBest(t reoptTask, w *workerState, startPhi float64) (bestState, error) {
	users := o.sc.Session(t.session).Users
	curFlowTo := w.aw.SessionFlowAgents(t.session)
	capture := func() {
		for i, u := range users {
			w.userTo[i] = w.aw.UserAgent(u)
		}
		copy(w.flowTo, curFlowTo)
	}
	capture()
	best := bestState{phi: startPhi, cfAgent: -1}
	ws, err := core.WalkSession(w.aw, t.session, o.ev, w.snap, o.cfg.Core, w.rng, w.scr, o.memo, o.cfg.HopBudget,
		func(res core.HopResult) {
			if res.Moved && res.PhiAfter < best.phi-improvementEps {
				best = bestState{phi: res.PhiAfter, improved: true,
					cfAgent: int(res.Decision.To), cfGap: res.PhiSecond - res.PhiAfter}
				capture()
			}
		})
	t.res.Hops += ws.Hops
	t.res.Reused += ws.Reused
	t.res.ReusedAcross += ws.ReusedAcross
	return best, err
}

// growAgents resizes a reused agent-ID buffer to n entries.
func growAgents(buf []model.AgentID, n int) []model.AgentID {
	if cap(buf) < n {
		return make([]model.AgentID, n)
	}
	return buf[:n]
}

func (o *Orchestrator) reportErr(err error) {
	o.mu.Lock()
	if o.refErr == nil {
		o.refErr = err
	}
	o.mu.Unlock()
}
