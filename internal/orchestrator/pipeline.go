package orchestrator

// This file is the pipelined event path (Config.Pipeline): HandleEvent/Run
// reworked onto the dependency-aware scheduler in internal/pipeline, so
// independent churn events overlap end-to-end instead of barriering one at
// a time.
//
// Consistency story (what makes overlap safe):
//
//   - Session ownership. An event's footprint session set is the trigger
//     plus its re-optimization set, fixed at admission; the scheduler
//     guarantees (a) no two events owning a common session ever execute
//     concurrently and (b) an event's admission never runs while an
//     in-flight event claims its trigger. Since session variables live in
//     disjoint slice ranges (internal/assign) and refinement tasks touch
//     only their own session, all unlocked assignment accesses stay
//     single-owner — the same invariant the per-event barrier used to
//     provide globally, now scoped per footprint.
//   - Touched-set consistency. Admissions must discover which sessions
//     share agents with the trigger *without* reading in-flight sessions'
//     assignment state. touchIdx[s] — the committed agent set per active
//     session, updated under o.mu at bootstrap, commit and departure — is
//     that read-only-under-mu mirror; overlap tests against it match the
//     serial path's SessionLoad/OverlapsAgents predicate exactly on
//     quiesced state (the cap-1 differential tests pin bit-identity).
//   - Objective consistency. The objective cache is never left dirty in
//     pipelined mode: arrivals refresh their session at admission,
//     committing workers Prime it from their own evaluation, departures
//     deactivate it. Retire-time objective sums therefore never recompute
//     from the shared assignment.
//   - Capacity. Unchanged: the lock-striped shard ledger validates every
//     commit against live usage, and the epoch-stamped Conflict/retry path
//     absorbs whatever footprint under-estimation admits (walks evaluated
//     on snapshots another in-flight event has since invalidated).

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"vconf/internal/agrank"
	"vconf/internal/assign"
	"vconf/internal/baseline"
	"vconf/internal/model"
	"vconf/internal/pipeline"
	"vconf/internal/shard"
	"vconf/internal/telemetry"
	"vconf/internal/workload"
)

// eventState carries one pipelined event across its scheduler stages. The
// report pointer is stable; callers read it after the retire channel
// closes.
type eventState struct {
	o     *Orchestrator
	e     workload.Event
	seq   int
	rep   *EventReport
	reopt []model.SessionID
	tally eventTally
	// stalled records whether this event's admission waited in the
	// scheduler (the OnAdmit hook), for the decision record.
	stalled bool
	// admitErr records this event's admission failure (written in the
	// dispatcher before the retire channel closes), so HandleEvent can tell
	// "this event never happened" from errors surfaced by other machinery.
	admitErr error
	// span traces the event from submission to retirement; task spans nest
	// under it (zero when telemetry is off).
	span telemetry.Span
	// sink, when non-nil, receives the finished report at retire (Run's
	// in-order collection; retires are serialized by the scheduler).
	sink *[]EventReport
	// emit, when non-nil, streams the finished report at retire
	// (RunSource's O(in-flight) alternative to sink; same serialization).
	emit func(EventReport)
}

// submitEvent validates e and hands it to the scheduler. The returned
// state's report is filled in across the event's stages and complete once
// the channel closes.
func (o *Orchestrator) submitEvent(e workload.Event, sink *[]EventReport, emit func(EventReport)) (*eventState, <-chan struct{}, error) {
	if e.Session < 0 || e.Session >= o.sc.NumSessions() {
		return nil, nil, fmt.Errorf("orchestrator: event session %d outside [0, %d)", e.Session, o.sc.NumSessions())
	}
	if e.Kind != workload.EventArrival && e.Kind != workload.EventDeparture {
		return nil, nil, fmt.Errorf("orchestrator: invalid event kind %d", e.Kind)
	}
	st := &eventState{
		o:     o,
		e:     e,
		seq:   o.eventIdx,
		rep:   &EventReport{Event: e, Admitted: true},
		tally: eventTally{chosenAgent: -1},
		sink:  sink,
		emit:  emit,
	}
	// In-flight events overlap, so each gets its own trace lane (reused
	// modulo pipelineLanes — far above any realistic MaxInFlight, so live
	// events never share one). The span opens at submission: queue wait is
	// part of the event's story.
	st.span = o.tel.StartRoot(eventSpanName(e.Kind), "event", 1+int32(st.seq%pipelineLanes))
	o.eventIdx++
	ch, err := o.pipe.Submit(pipeline.Exec{
		Trigger: int32(e.Session),
		OnAdmit: func(stalled bool) { st.stalled = stalled },
		Admit:   st.admit,
		Reopt:   st.reoptStage,
		Retire:  st.retire,
	})
	if err != nil {
		return nil, nil, err
	}
	return st, ch, nil
}

// handleEventPipelined submits one event and blocks until it retires.
// Because retirement follows arrival order, returning also means every
// earlier event has retired — the orchestrator is quiesced.
func (o *Orchestrator) handleEventPipelined(e workload.Event) (EventReport, error) {
	if err := o.takeRefErr(); err != nil {
		return EventReport{}, err
	}
	if e.Kind.IsFault() {
		// A fault is a full barrier: healing re-assigns sessions that
		// in-flight events may own, so drain the scheduler first, then heal
		// with exclusive ownership of the whole state.
		if err := o.pipe.Drain(); err != nil {
			return EventReport{}, err
		}
		return o.handleFault(e)
	}
	st, ch, err := o.submitEvent(e, nil, nil)
	if err != nil {
		return EventReport{}, err
	}
	rep := st.rep
	<-ch
	// Drain (a no-op wait here: our event retiring means the queue is
	// empty under the single-caller discipline) surfaces and clears any
	// stream error, so a failed event reports once and the orchestrator
	// keeps working — the serial path's error semantics.
	if err := o.pipe.Drain(); err != nil {
		// A failed admission never happened: release its event index, as
		// the serial path does by erroring before its increment — this is
		// what keeps task seeds (and so cap-1 bit-identity) aligned across
		// streams containing recovered errors. Safe under the single-caller
		// discipline: st.seq is necessarily the last index assigned.
		if st.admitErr != nil {
			o.eventIdx = st.seq
		}
		return *rep, err
	}
	if err := o.takeRefErr(); err != nil {
		return *rep, err
	}
	return *rep, nil
}

// runPipelined streams the schedule into the scheduler, letting events with
// disjoint footprints overlap, and returns the reports in schedule order.
// With a runtime attached, data-plane ticks interleave with in-flight
// migrations under the state lock, so telemetry stays race-free (tick
// timing relative to overlapping events is approximate by construction).
func (o *Orchestrator) runPipelined(events []workload.Event, horizonS float64) ([]EventReport, error) {
	reports := make([]EventReport, 0, len(events))
	for i, e := range events {
		if i > 0 && e.TimeS < events[i-1].TimeS {
			o.pipe.Drain()
			return reports, fmt.Errorf("orchestrator: out-of-order event %d at t=%v after t=%v",
				i, e.TimeS, events[i-1].TimeS)
		}
		if rt := o.runtime(); rt != nil {
			o.mu.Lock()
			var err error
			if dt := e.TimeS - rt.Now(); dt > 1e-9 {
				_, err = rt.Tick(dt)
			}
			o.mu.Unlock()
			if err != nil {
				o.pipe.Drain()
				return reports, err
			}
		}
		// Worker/runtime errors surface mid-stream, like the serial path's
		// per-event takeRefErr — not only after the whole schedule drained.
		if err := o.takeRefErr(); err != nil {
			o.pipe.Drain()
			return reports, err
		}
		if e.Kind.IsFault() {
			// Fault barrier: drain so every prior report has retired (and
			// appended itself to reports), heal, then append in order.
			if err := o.pipe.Drain(); err != nil {
				return reports, err
			}
			rep, err := o.handleFault(e)
			if err != nil {
				return reports, err
			}
			reports = append(reports, rep)
			continue
		}
		if _, _, err := o.submitEvent(e, &reports, nil); err != nil {
			if derr := o.pipe.Drain(); derr != nil {
				err = derr
			}
			return reports, err
		}
	}
	if err := o.pipe.Drain(); err != nil {
		return reports, err
	}
	if rt := o.runtime(); rt != nil {
		o.mu.Lock()
		var err error
		if dt := horizonS - rt.Now(); dt > 1e-9 {
			_, err = rt.Tick(dt)
		}
		o.mu.Unlock()
		if err != nil {
			return reports, err
		}
	}
	if err := o.takeRefErr(); err != nil {
		return reports, err
	}
	return reports, nil
}

// admit runs the admission stage, recording any failure in admitErr so the
// submitter can distinguish "this event never happened" (and release its
// event index) from asynchronously surfaced errors.
func (st *eventState) admit() (pipeline.Footprint, error) {
	fp, err := st.applyAdmission()
	if err != nil {
		st.admitErr = err
	}
	return fp, err
}

// applyAdmission is the event's serialized admission stage: apply the
// arrival or departure against the authoritative state and derive the
// conflict footprint. The scheduler guarantees the trigger session is
// unclaimed, so every trigger-session access here is single-owner;
// everything else goes through the stripe-locked ledger, the
// committed-agents index, or o.mu.
func (st *eventState) applyAdmission() (pipeline.Footprint, error) {
	o := st.o
	s := model.SessionID(st.e.Session)
	o.mu.Lock()
	defer o.mu.Unlock()
	o.advanceClock(st.e.TimeS)
	switch st.e.Kind {
	case workload.EventArrival:
		o.stats.Arrivals++
		if o.cache.Active(s) {
			return pipeline.Footprint{}, fmt.Errorf("orchestrator: arrival for already-active session %d", s)
		}
		if err := o.boot(o.a, s, o.ledger); err != nil {
			if errors.Is(err, agrank.ErrInfeasible) || errors.Is(err, baseline.ErrInfeasible) {
				o.stats.Dropped++
				if o.impaired > 0 {
					o.stats.DegradedRejects++
					o.tel.DegradedReject(o.tel.RegionOf(int(s)))
				}
				st.rep.Admitted = false
				return pipeline.Footprint{}, nil
			}
			return pipeline.Footprint{}, fmt.Errorf("orchestrator: bootstrap session %d: %w", s, err)
		}
		o.cache.SetActive(s, true)
		if o.rt != nil {
			if err := o.rt.ActivateSession(s, o.a); err != nil {
				return pipeline.Footprint{}, err
			}
		}
		// SessionLoad refreshes the cache entry here, under mu, while the
		// admission owns the session — leaving it clean for retire-time
		// objective sums.
		load := o.cache.SessionLoad(o.a, s)
		o.touchIdx[s] = load.AppendAgents(nil)
		touched := o.touchedIndexed(s, o.agentsOf(load))
		st.reopt = o.capReopt(s, touched)
	case workload.EventDeparture:
		o.stats.Departures++
		if !o.cache.Active(s) {
			o.stats.Skipped++
			st.rep.Admitted = false
			return pipeline.Footprint{}, nil
		}
		load := o.cache.SessionLoad(o.a, s)
		agents := o.agentsOf(load)
		o.ledger.RemoveSparse(load)
		for _, u := range o.sc.Session(s).Users {
			o.a.SetUserAgent(u, assign.Unassigned)
		}
		for _, f := range o.a.SessionFlows(s) {
			if err := o.a.SetFlowAgent(f, assign.Unassigned); err != nil {
				return pipeline.Footprint{}, err
			}
		}
		// Clearing the committed-agents index entry is also the delay-cache
		// invalidation point for pipelined mode: SetActive drops the
		// objective cache's delay entry, the commit scratch drops its own,
		// and because the departed session leaves touchIdx (and so every
		// future footprint and touched set), no in-flight evaluation can
		// leak its stale variables into a warm cache — worker entries
		// re-validate by signature the next time the session is owned.
		o.cache.SetActive(s, false)
		o.scr.InvalidateDelay(s)
		o.touchIdx[s] = nil
		if o.rt != nil {
			o.rt.DeactivateSession(s)
		}
		// The departed session freed capacity on its agents: sessions
		// loading those agents may now have better moves available.
		touched := o.touchedIndexed(s, agents)
		st.reopt = o.capReopt(model.SessionID(-1), touched)
	}
	st.rep.Reopt = st.reopt
	return o.footprintLocked(s, st.reopt), nil
}

// reoptStage feeds the event's re-optimization tasks to the shared worker
// pool and waits for them — the per-event (not global) barrier.
func (st *eventState) reoptStage() error {
	o := st.o
	if len(st.reopt) == 0 {
		o.observeDelay(&st.tally, st.e, st.rep.Admitted)
		return nil
	}
	start := time.Now()
	var wg sync.WaitGroup
	for _, s := range st.reopt {
		wg.Add(1)
		o.tasks <- reoptTask{
			session: s,
			seed:    taskSeed(o.cfg.Core.Seed, s, st.seq),
			wg:      &wg,
			tally:   &st.tally,
			parent:  st.span,
		}
	}
	wg.Wait()
	st.rep.Latency = time.Since(start)
	// Read the trigger's delay now, while this event still owns its
	// footprint — the scheduler releases it when this stage returns, before
	// retire runs.
	o.observeDelay(&st.tally, st.e, st.rep.Admitted)
	o.mu.Lock()
	o.stats.Tasks += len(st.reopt)
	o.mu.Unlock()
	return nil
}

// retire finalizes the event's report in arrival order: per-event outcome
// tallies, the post-event objective (every cache entry is clean by the
// pipelined-mode invariant, so this never reads in-flight assignment
// state), and the aggregate latency telemetry. At MaxInFlight > 1 the
// Objective/ActiveSessions fields sample whatever admissions have applied
// by retire time — deterministic in order, timing-dependent in value; the
// cap-1 differential tests pin the values bit-for-bit.
func (st *eventState) retire() {
	o := st.o
	o.mu.Lock()
	o.stats.Events++
	o.stats.ReoptTotal += st.rep.Latency
	if st.rep.Latency > o.stats.ReoptMax {
		o.stats.ReoptMax = st.rep.Latency
	}
	o.lat.ObserveDuration(st.rep.Latency)
	st.rep.Commits = st.tally.commits
	st.rep.Rejects = st.tally.rejects
	st.rep.NoChange = st.tally.noChange
	st.rep.Conflicts = st.tally.conflicts
	st.rep.Objective = o.cache.TotalObjective(o.a)
	st.rep.ActiveSessions = o.cache.NumActive()
	o.mu.Unlock()
	st.span.EndArg(int64(st.e.Session))
	o.emitRecord(st.rep, &st.tally, st.stalled)
	if st.sink != nil {
		*st.sink = append(*st.sink, *st.rep)
	}
	if st.emit != nil {
		st.emit(*st.rep)
	}
}

// touchedIndexed mirrors touchedLocked over the committed-agents index:
// active sessions (≠ trigger) whose committed load touches any marked
// agent, ascending. Reading the index instead of cached session loads is
// what keeps admissions from recomputing sessions another in-flight event
// owns. Caller holds o.mu.
func (o *Orchestrator) touchedIndexed(trigger model.SessionID, agents []bool) []model.SessionID {
	var out []model.SessionID
	for s := range o.cache.EachActive() {
		if s == trigger {
			continue
		}
		for _, l := range o.touchIdx[s] {
			if agents[l] {
				out = append(out, s)
				break
			}
		}
	}
	return out
}

// footprintLocked derives an event's conflict footprint: the owned session
// set (trigger + re-optimization set) and the ledger stripes those
// sessions' walks can read or commit to — each session's committed agents
// plus its members' candidate windows, widened by FootprintSlack. Without a
// candidate window a walk can move a session onto any agent, so the
// footprint claims every stripe (correct, but serializing: windows are what
// unlock event-level parallelism). Caller holds o.mu.
func (o *Orchestrator) footprintLocked(trigger model.SessionID, reopt []model.SessionID) pipeline.Footprint {
	fp := pipeline.Footprint{Sessions: make([]int32, 0, len(reopt)+1)}
	fp.Sessions = append(fp.Sessions, int32(trigger))
	for _, s := range reopt {
		if s != trigger {
			fp.Sessions = append(fp.Sessions, int32(s))
		}
	}
	if o.nbrIdx == nil || o.cfg.FootprintSlack < 0 {
		fp.Shards = make([]int32, o.shl.NumShards())
		for i := range fp.Shards {
			fp.Shards[i] = int32(i)
		}
		return fp
	}
	var agents []model.AgentID
	for _, s32 := range fp.Sessions {
		s := model.SessionID(s32)
		agents = append(agents, o.touchIdx[s]...)
		if s == trigger && o.touchIdx[s] == nil {
			continue // departed trigger: owned but never walked
		}
		for _, u := range o.sc.Session(s).Users {
			agents = append(agents, o.nbrIdx.UserWindow(u)...)
		}
	}
	var r shard.Route
	o.shl.ResetRoute(&r)
	o.shl.RouteAgents(&r, agents)
	o.shl.ExpandRoute(&r, o.cfg.FootprintSlack)
	fp.Shards = append(fp.Shards, r.Shards()...)
	return fp
}
