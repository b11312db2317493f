package orchestrator

// This file is the event path: every event — arrival, departure or fault —
// goes through the scheduler in internal/pipeline as admit → re-optimize →
// retire, all three in arrival order. Re-optimization and retirement run
// one event at a time; up to Config.MaxInFlight events may be admitted
// ahead of them, so the next event's admission overlaps the current one's
// re-optimization instead of waiting for it.
//
// Consistency story (what makes that overlap safe):
//
//   - Session ownership. An event's footprint is the trigger plus its
//     re-optimization set, fixed at admission; the scheduler never runs an
//     admission while an in-flight event's footprint claims its trigger,
//     and never runs two re-optimizations at once. Since session variables
//     live in disjoint slice ranges (internal/assign) and refinement tasks
//     touch only their own session, all unlocked assignment accesses stay
//     single-owner. A fault has no trigger (-1) and its healing rewrites
//     sessions no footprint names, so the scheduler admits it only when
//     nothing is in flight; while its re-optimization runs, later events
//     may be admitted as usual.
//   - Touched-set consistency. Admissions must discover which sessions
//     share agents with the trigger (or with a fault's violating agents)
//     *without* reading in-flight sessions' assignment state. touchIdx[s] —
//     the committed agent set per active session, updated under o.mu at
//     bootstrap, commit and departure — is that read-only-under-mu mirror,
//     and touchedIndexed is the one query over it.
//   - Objective consistency. The objective cache is never left dirty:
//     arrivals refresh their session at admission, committing workers
//     Prime it from their own evaluation, departures deactivate it.
//     Retire-time objective sums therefore never recompute from the shared
//     assignment.
//   - Capacity. The ledger is written concurrently by one event's sibling
//     tasks and by the one admission that may run beside them. The
//     lock-striped shard ledger validates every commit against live usage,
//     and the epoch-stamped Conflict/retry path absorbs the snapshots those
//     writers invalidate.
//
// At MaxInFlight = 1 the scheduler runs admit → re-optimize → retire one
// event at a time, in arrival order, and the decision stream is fully
// deterministic (TestGoldenDecisionStreams pins it against recordings).

import (
	"errors"
	"fmt"
	"math"
	"time"

	"vconf/internal/agrank"
	"vconf/internal/assign"
	"vconf/internal/baseline"
	"vconf/internal/core"
	"vconf/internal/model"
	"vconf/internal/pipeline"
	"vconf/internal/telemetry"
	"vconf/internal/workload"
)

// eventState carries one event across its scheduler stages. The report
// pointer is stable; callers read it after the retire channel closes.
type eventState struct {
	o   *Orchestrator
	e   workload.Event
	seq int
	rep *EventReport
	// results are the event's task result slots, aligned with rep.Reopt:
	// each written only by the worker running its task, folded once the
	// tasks have all finished, and read again by the decision record.
	results []taskResult
	// delayMS is the trigger session's post-decision mean-of-max delay
	// (admitted arrivals only; see Orchestrator.observeDelay).
	delayMS float64
	// stalled records whether this event's admission waited in the
	// scheduler (the OnAdmit hook), for the decision record.
	stalled bool
	// admitErr records this event's admission failure (written by the
	// scheduler's admitting goroutine before the retire channel closes), so
	// HandleEvent can tell "this event never happened" from errors surfaced
	// by other machinery.
	admitErr error
	// healStart is set when a fault's admission starts healing, which makes
	// the event an incident: retire observes its time to recovery.
	healStart time.Time
	// span traces the event from submission to retirement; heal and task
	// spans nest under it (zero when telemetry is off).
	span telemetry.Span
	// emit, when non-nil, receives the finished report at retire
	// (RunSource's stream; retires are serialized by the scheduler, and
	// may run beside a later event's admission).
	emit func(EventReport)
}

// submitEvent validates e and hands it to the scheduler. The returned
// state's report is filled in across the event's stages and complete once
// the channel closes.
func (o *Orchestrator) submitEvent(e workload.Event, emit func(EventReport)) (*eventState, <-chan struct{}, error) {
	if err := o.validateEvent(e); err != nil {
		return nil, nil, err
	}
	st := &eventState{
		o:    o,
		e:    e,
		seq:  o.eventIdx,
		rep:  &EventReport{Event: e, Admitted: true},
		emit: emit,
	}
	// In-flight events overlap, so each gets its own trace lane (reused
	// modulo pipelineLanes — far above any realistic MaxInFlight, so live
	// events never share one). The span opens at submission: queue wait is
	// part of the event's story.
	st.span = o.tel.StartRoot(eventSpanName(e.Kind), "event", 1+int32(st.seq%pipelineLanes))
	o.eventIdx++
	trigger := int32(e.Session)
	if e.Kind.IsFault() {
		// Healing may rewrite any session: admit only into an empty
		// scheduler, whatever Session the event carries.
		trigger = -1
	}
	ch, err := o.pipe.Submit(pipeline.Exec{
		Trigger: trigger,
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

// validateEvent checks an event before submission: a finite time, the
// session range for churn kinds, and the target agent, scale or region for
// fault kinds (whose Session is -1).
func (o *Orchestrator) validateEvent(e workload.Event) error {
	if math.IsNaN(e.TimeS) || math.IsInf(e.TimeS, 0) {
		return fmt.Errorf("orchestrator: event time %v is not finite", e.TimeS)
	}
	switch e.Kind {
	case workload.EventArrival, workload.EventDeparture:
		if e.Session < 0 || e.Session >= o.sc.NumSessions() {
			return fmt.Errorf("orchestrator: event session %d outside [0, %d)", e.Session, o.sc.NumSessions())
		}
	case workload.EventAgentFail, workload.EventAgentRecover, workload.EventCapacityDegrade:
		if e.Agent < 0 || e.Agent >= o.sc.NumAgents() {
			return fmt.Errorf("orchestrator: fault agent %d outside [0, %d)", e.Agent, o.sc.NumAgents())
		}
		if e.Kind == workload.EventCapacityDegrade && !(e.Scale >= 0 && e.Scale <= 1) {
			return fmt.Errorf("orchestrator: degrade scale %v outside [0, 1]", e.Scale)
		}
	case workload.EventRegionOutage, workload.EventRegionRecover:
		if o.agentRegion == nil {
			return fmt.Errorf("orchestrator: regional fault event without Config.AgentRegion")
		}
		if e.Region < 0 || e.Region >= o.numRegions {
			return fmt.Errorf("orchestrator: fault region %d outside [0, %d)", e.Region, o.numRegions)
		}
	case workload.EventFlashCrowd:
		// Accounting marker only; the burst's arrivals validate themselves.
	default:
		return fmt.Errorf("orchestrator: invalid event kind %d", e.Kind)
	}
	return nil
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

// applyAdmission is the event's serialized admission stage: tick the data
// plane to the event's time, apply the arrival, departure or fault against
// the authoritative state and derive the footprint. The scheduler
// guarantees the trigger session is unclaimed, so every trigger-session
// access here is single-owner; everything else goes through the
// stripe-locked ledger, the committed-agents index, or o.mu.
func (st *eventState) applyAdmission() (pipeline.Footprint, error) {
	o := st.o
	s := model.SessionID(st.e.Session)
	o.mu.Lock()
	defer o.mu.Unlock()
	// Ticking here, not at submission, keeps the data plane behind every
	// migration of the events admitted before this one: at one event in
	// flight those have all run by now.
	if err := o.tickLocked(st.e.TimeS); err != nil {
		return pipeline.Footprint{}, err
	}
	o.advanceClock(st.e.TimeS)
	switch st.e.Kind {
	case workload.EventArrival:
		o.stats.Arrivals++
		if o.cache.Active(s) {
			return pipeline.Footprint{}, fmt.Errorf("orchestrator: arrival for already-active session %d", s)
		}
		ok, err := o.activateLocked(s)
		if err != nil {
			return pipeline.Footprint{}, err
		}
		if !ok {
			o.stats.Dropped++
			if o.impaired > 0 {
				o.stats.DegradedRejects++
				o.tel.DegradedReject(int(s))
			}
			st.rep.Admitted = false
			return pipeline.Footprint{}, nil
		}
		st.rep.Reopt = o.capReopt(s, o.touchedIndexed(s, o.touchIdx[s]))
	case workload.EventDeparture:
		o.stats.Departures++
		if !o.cache.Active(s) {
			// A departure for a session that was never admitted — the echo
			// of a dropped arrival — is a benign skip.
			o.stats.Skipped++
			st.rep.Admitted = false
			return pipeline.Footprint{}, nil
		}
		agents := o.touchIdx[s]
		if err := o.teardownLocked(s); err != nil {
			return pipeline.Footprint{}, err
		}
		// The departed session freed capacity on its agents: sessions
		// loading those agents may now have better moves available.
		st.rep.Reopt = o.capReopt(-1, o.touchedIndexed(s, agents))
	default:
		if err := st.applyFaultLocked(); err != nil {
			return pipeline.Footprint{}, err
		}
		s = -1
	}
	return footprint(s, st.rep.Reopt), nil
}

// activateLocked bootstraps session s through the configured policy and
// brings it live: objective cache, data plane and committed-agents index.
// An infeasible placement (the bootstrapper rolled the session back) is
// (false, nil) — an expected drop or evacuation reject the caller counts;
// anything else — misconfiguration, a buggy custom bootstrapper — must
// surface loudly, not read as churn. Caller holds o.mu and owns s.
func (o *Orchestrator) activateLocked(s model.SessionID) (bool, error) {
	if err := o.boot(o.a, s, o.ledger); err != nil {
		if errors.Is(err, agrank.ErrInfeasible) || errors.Is(err, baseline.ErrInfeasible) {
			return false, nil
		}
		return false, fmt.Errorf("orchestrator: bootstrap session %d: %w", s, err)
	}
	o.cache.SetActive(s, true)
	if o.rt != nil {
		if err := o.rt.ActivateSession(s, o.a); err != nil {
			return false, err
		}
	}
	// SessionLoad refreshes the cache entry here, under mu, while the
	// caller owns the session — leaving it clean for retire-time objective
	// sums.
	o.touchIdx[s] = o.cache.SessionLoad(o.a, s).AppendAgents(nil)
	return true, nil
}

// teardownLocked releases session s entirely: ledger load, decision
// variables, objective-cache entry, committed-agents index and data-plane
// session — the departure teardown, reused for fault orphans. A worker
// scratch that last prepared s diffs its record against the variables the
// next time the session is owned. Caller holds o.mu and owns s.
func (o *Orchestrator) teardownLocked(s model.SessionID) error {
	o.ledger.Remove(o.cache.SessionLoad(o.a, s))
	for _, u := range o.sc.Session(s).Users {
		o.a.SetUserAgent(u, assign.Unassigned)
	}
	for _, f := range o.a.SessionFlows(s) {
		if err := o.a.SetFlowAgent(f, assign.Unassigned); err != nil {
			return err
		}
	}
	o.cache.SetActive(s, false)
	o.touchIdx[s] = nil
	if o.rt != nil {
		o.rt.DeactivateSession(s)
	}
	return nil
}

// reoptStage feeds the event's re-optimization tasks to the shared worker
// pool, waits for them — the per-event (not global) barrier — and folds
// their results.
func (st *eventState) reoptStage() error {
	o := st.o
	if len(st.rep.Reopt) > 0 {
		st.results = make([]taskResult, len(st.rep.Reopt))
		st.rep.Latency = o.dispatch(st.rep.Reopt, st.seq, st.results, st.span)
		st.foldTasks()
	}
	// Read the trigger's delay while this event still owns its footprint.
	st.delayMS = o.observeDelay(st.e, st.rep.Admitted)
	return nil
}

// foldTasks folds the event's finished task results, in
// re-optimization-set order, into its report and the aggregate stats
// under one o.mu hold, and into the sink's task families (one Sink.Task
// per task).
func (st *eventState) foldTasks() {
	o, rep := st.o, st.rep
	var walk core.WalkStats
	for i := range st.results {
		r := &st.results[i].TaskResult
		switch r.Outcome {
		case telemetry.OutcomeCommit:
			rep.Commits++
		case telemetry.OutcomeReject:
			rep.Rejects++
		case telemetry.OutcomeNoChange:
			rep.NoChange++
		}
		rep.Conflicts += r.Conflicts
		walk.Hops += r.Hops
		walk.Reused += r.Reused
		walk.ReusedAcross += r.ReusedAcross
		o.tel.Task(int(rep.Reopt[i]), *r)
	}
	o.mu.Lock()
	o.stats.Tasks += len(st.results)
	o.stats.Commits += rep.Commits
	o.stats.Rejects += rep.Rejects
	o.stats.NoChange += rep.NoChange
	o.stats.Conflicts += rep.Conflicts
	o.stats.WalkHops += walk.Hops
	o.stats.WalkReused += walk.Reused
	o.stats.WalkReusedAcross += walk.ReusedAcross
	o.mu.Unlock()
}

// retire finalizes the event's report in arrival order: the post-event
// objective (every cache entry is clean, so this never reads in-flight
// assignment state), the aggregate latency telemetry and, for an incident,
// its time to recovery (healing start through this retire, which follows
// its re-optimization). At MaxInFlight > 1 the Objective/ActiveSessions
// fields sample whatever admissions have applied by retire time —
// deterministic in order, timing-dependent in value.
func (st *eventState) retire() {
	o := st.o
	incident := !st.healStart.IsZero()
	var ttr time.Duration
	if incident {
		ttr = time.Since(st.healStart)
	}
	o.mu.Lock()
	o.finishEventLocked(st.rep)
	if incident {
		o.stats.Incidents++
		o.ttr.ObserveDuration(ttr)
	}
	o.mu.Unlock()
	st.span.EndArg(int64(st.e.Session))
	o.emitRecord(st)
	if incident {
		o.tel.Incident(ttr.Nanoseconds())
		// Freeze the black box for capacity-reducing incidents. The record
		// just retired, so the flight recorder's incident marker already
		// points at this event; per-incident dedupe keeps repeated triggers
		// from burning the dump budget.
		trigger := "fault"
		if st.rep.EvacRejects > 0 {
			trigger = "evac-reject"
		}
		o.tel.TriggerFlight(trigger, fmt.Sprintf(
			"%s: %d orphans, %d evacuated, %d evac rejects",
			st.e.Kind.String(), st.rep.Orphans, st.rep.Evacuated, st.rep.EvacRejects))
	}
	if st.emit != nil {
		st.emit(*st.rep)
	}
}

// finishEventLocked stamps the post-event objective into the event's
// report and folds the event into the aggregate counters. Caller holds
// o.mu.
func (o *Orchestrator) finishEventLocked(rep *EventReport) {
	o.stats.Events++
	o.stats.ReoptTotal += rep.Latency
	if rep.Latency > o.stats.ReoptMax {
		o.stats.ReoptMax = rep.Latency
	}
	o.lat.ObserveDuration(rep.Latency)
	rep.Objective = o.cache.TotalObjective(o.a)
	rep.ActiveSessions = o.cache.NumActive()
}

// touchedIndexed lists active sessions (≠ trigger) whose committed load
// touches any of the given agents, ascending, read from the committed-agents
// index — which is what keeps admissions from recomputing sessions another
// in-flight event owns. Caller holds o.mu.
func (o *Orchestrator) touchedIndexed(trigger model.SessionID, agents []model.AgentID) []model.SessionID {
	mark := make([]bool, o.sc.NumAgents())
	for _, l := range agents {
		mark[l] = true
	}
	var out []model.SessionID
	for s := range o.cache.EachActive() {
		if s == trigger {
			continue
		}
		for _, l := range o.touchIdx[s] {
			if mark[l] {
				out = append(out, s)
				break
			}
		}
	}
	return out
}

// footprint is an event's owned session set: the trigger plus its
// re-optimization set. A fault's trigger is -1: it owns only its
// re-optimization set.
func footprint(trigger model.SessionID, reopt []model.SessionID) pipeline.Footprint {
	fp := pipeline.Footprint{Sessions: make([]int32, 0, len(reopt)+1)}
	if trigger >= 0 {
		fp.Sessions = append(fp.Sessions, int32(trigger))
	}
	for _, s := range reopt {
		if s != trigger {
			fp.Sessions = append(fp.Sessions, int32(s))
		}
	}
	return fp
}
