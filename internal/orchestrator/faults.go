package orchestrator

// This file is the self-healing fault path: HandleEvent and RunSource
// route the fault event kinds (internal/faults schedules) here after
// draining the event scheduler. Healing contract:
//
//   - A failure (agent fail, region outage, or a degrade that leaves an
//     agent over its shrunk capacity) first tears down every orphaned
//     session — whole sessions, evicted in ascending ID order until no
//     capacity violation remains — and only then re-homes them through the
//     normal bootstrap policy. Teardown-before-rehome matters: strict Fits
//     checks every agent, so leftover load on a zero-capacity agent would
//     block all placements fleet-wide.
//   - An orphan whose re-bootstrap is infeasible on the surviving fleet is
//     a counted evacuation reject, not an error: the session goes down and
//     its scheduled departure becomes a benign skip. The ledger never
//     overshoots surviving capacity and the orchestrator never panics —
//     bounded rejection is the graceful-degradation mode.
//   - Successfully re-homed sessions are re-optimized through the ordinary
//     dispatch pipeline (same task seeds, so replay is deterministic).
//   - A recovery restores the agent's effective scale and re-balances:
//     active sessions whose candidate windows can reach the recovered
//     agents (all of them without a window) re-enter the walk, capped at
//     MaxReoptSessions.
//   - A fault event is a full barrier: the scheduler drains before healing
//     runs, because evacuation re-assigns sessions that in-flight events
//     may own. The attached data plane is ticked to the fault's time after
//     the drain, so it has seen every earlier migration.
//
// Effective capacity scale per agent = 0 if the agent or its region is
// failed, else its base scale (EventCapacityDegrade). Every change goes
// through the authoritative ledger's SetCapacityScale, so commit-time
// validation (FitsRepairDelta) and CheckInvariants see degradation
// immediately.

import (
	"errors"
	"fmt"
	"math"
	"time"

	"vconf/internal/agrank"
	"vconf/internal/baseline"
	"vconf/internal/model"
	"vconf/internal/telemetry"
	"vconf/internal/workload"
)

// faultResult aggregates one fault event's healing outcome.
type faultResult struct {
	reopt       []model.SessionID
	orphans     int
	evacuated   int
	evacRejects int
	// incident marks capacity-reducing events (fail/outage/deeper degrade)
	// for the time-to-recovery accounting.
	incident bool
}

// handleFault applies one fault event and runs the healing it triggers.
// Callers must drain the scheduler first: healing owns the whole state.
func (o *Orchestrator) handleFault(e workload.Event) (EventReport, error) {
	rep := EventReport{Event: e, Admitted: true}
	if err := o.validateFault(e); err != nil {
		return EventReport{}, err
	}
	tally := eventTally{chosenAgent: -1}
	// Faults run with the scheduler drained, so the event span takes the
	// control lane and heal/task spans nest under it.
	esp := o.tel.StartRoot(eventSpanName(e.Kind), "event", laneControl)
	start := time.Now()
	res, err := o.applyFault(e, esp)
	if err != nil {
		return rep, err
	}
	rep.Orphans = res.orphans
	rep.Evacuated = res.evacuated
	rep.EvacRejects = res.evacRejects
	rep.Reopt = res.reopt
	if len(res.reopt) > 0 {
		rep.Latency = o.dispatch(res.reopt, o.eventIdx, &tally, esp)
	}
	// Time-to-recovery: fault application through the re-optimization
	// barrier — the window during which the incident's sessions were not yet
	// re-settled.
	ttr := time.Since(start)
	o.mu.Lock()
	o.finishEventLocked(&rep, &tally)
	if res.incident {
		o.stats.Incidents++
		o.ttr.ObserveDuration(ttr)
	}
	o.mu.Unlock()
	o.eventIdx++
	esp.EndArg(int64(res.orphans))
	o.emitRecord(&rep, &tally, false)
	if res.incident {
		o.tel.Incident(ttr.Nanoseconds())
		// Freeze the black box for capacity-reducing incidents. The record
		// just retired, so the flight recorder's incident marker already
		// points at this event; per-incident dedupe keeps repeated triggers
		// from burning the dump budget.
		trigger := "fault"
		if rep.EvacRejects > 0 {
			trigger = "evac-reject"
		}
		o.tel.TriggerFlight(trigger, fmt.Sprintf(
			"%s: %d orphans, %d evacuated, %d evac rejects",
			e.Kind.String(), rep.Orphans, rep.Evacuated, rep.EvacRejects))
	}
	if err := o.takeRefErr(); err != nil {
		return rep, err
	}
	return rep, nil
}

// validateFault checks a fault event's target fields (Session is ignored
// for fault kinds).
func (o *Orchestrator) validateFault(e workload.Event) error {
	if err := checkTime(e); err != nil {
		return err
	}
	switch e.Kind {
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

// checkTime rejects an event whose time is NaN or infinite: no ordering
// check holds against it.
func checkTime(e workload.Event) error {
	if math.IsNaN(e.TimeS) || math.IsInf(e.TimeS, 0) {
		return fmt.Errorf("orchestrator: event time %v is not finite", e.TimeS)
	}
	return nil
}

// applyFault mutates the fault state and heals, under the state lock.
// Repeated failures of an already-failed target (overlapping renewal
// processes) are idempotent no-ops. esp is the fault event's span; heal and
// re-balance spans nest under it.
func (o *Orchestrator) applyFault(e workload.Event, esp telemetry.Span) (faultResult, error) {
	o.mu.Lock()
	defer o.mu.Unlock()
	var res faultResult
	if err := o.tickLocked(e.TimeS); err != nil {
		return res, err
	}
	o.advanceClock(e.TimeS)
	switch e.Kind {
	case workload.EventAgentFail:
		if o.failed[e.Agent] {
			return res, nil
		}
		o.failed[e.Agent] = true
		return o.degradeLocked([]int{e.Agent}, esp)
	case workload.EventAgentRecover:
		if !o.failed[e.Agent] {
			return res, nil
		}
		o.failed[e.Agent] = false
		return o.recoverLocked([]int{e.Agent}, esp)
	case workload.EventRegionOutage:
		if o.regionOut[e.Region] {
			return res, nil
		}
		o.regionOut[e.Region] = true
		return o.degradeLocked(o.regionAgents(e.Region), esp)
	case workload.EventRegionRecover:
		if !o.regionOut[e.Region] {
			return res, nil
		}
		o.regionOut[e.Region] = false
		return o.recoverLocked(o.regionAgents(e.Region), esp)
	case workload.EventCapacityDegrade:
		old := o.baseScale[e.Agent]
		if e.Scale == old {
			return res, nil
		}
		o.baseScale[e.Agent] = e.Scale
		if o.downLocked(e.Agent) {
			// The agent is failed anyway: record the base scale for its
			// recovery, effective capacity stays 0.
			o.recomputeImpairedLocked()
			return res, nil
		}
		if e.Scale < old {
			return o.degradeLocked([]int{e.Agent}, esp)
		}
		return o.recoverLocked([]int{e.Agent}, esp)
	case workload.EventFlashCrowd:
		return res, nil
	}
	return res, fmt.Errorf("orchestrator: invalid event kind %d", e.Kind)
}

// regionAgents lists the agents of one region. Caller holds o.mu.
func (o *Orchestrator) regionAgents(region int) []int {
	var out []int
	for a, r := range o.agentRegion {
		if r == region {
			out = append(out, a)
		}
	}
	return out
}

// downLocked reports whether agent a is fully out (failed, or its region
// is). Caller holds o.mu.
func (o *Orchestrator) downLocked(a int) bool {
	if o.failed[a] {
		return true
	}
	return o.agentRegion != nil && o.regionOut[o.agentRegion[a]]
}

// effScaleLocked is agent a's effective capacity scale. Caller holds o.mu.
func (o *Orchestrator) effScaleLocked(a int) float64 {
	if o.downLocked(a) {
		return 0
	}
	return o.baseScale[a]
}

// applyScaleLocked pushes agent a's effective scale into the authoritative
// ledger, mirroring it into the flight recorder so incident dumps can read
// the fleet's impairment map without taking o.mu. Caller holds o.mu.
func (o *Orchestrator) applyScaleLocked(a int) error {
	sc := o.effScaleLocked(a)
	o.tel.SetCapacityScale(a, sc)
	return o.ledger.SetCapacityScale(model.AgentID(a), sc)
}

// recomputeImpairedLocked refreshes the impaired-agent count driving
// rejects-during-degradation accounting. Caller holds o.mu.
func (o *Orchestrator) recomputeImpairedLocked() {
	n := 0
	for a := range o.baseScale {
		if o.effScaleLocked(a) < 1 {
			n++
		}
	}
	o.impaired = n
}

// degradeLocked applies the (reduced) effective scales of the given agents,
// evacuates until the surviving capacities hold, and re-homes the orphans.
// Caller holds o.mu. The heal span is Ended only on the success return, so
// recorded "heal" spans reconcile exactly with Stats.Incidents (error paths
// abort the run anyway, and idempotent no-ops never reach this function).
func (o *Orchestrator) degradeLocked(agents []int, esp telemetry.Span) (faultResult, error) {
	res := faultResult{incident: true}
	heal := o.tel.StartSpan("heal", esp)
	deg := o.tel.StartSpan("degrade", heal)
	for _, a := range agents {
		if err := o.applyScaleLocked(a); err != nil {
			return res, err
		}
	}
	o.recomputeImpairedLocked()
	deg.EndArg(int64(len(agents)))

	// Evacuation loop: evict the lowest-ID session overlapping a violating
	// agent, recompute, repeat. Whole sessions move (Φ_s and the delay caps
	// are session-scoped), and the ascending scan keeps replay
	// deterministic.
	evict := o.tel.StartSpan("evict", heal)
	var orphans []model.SessionID
	mark := make([]bool, o.sc.NumAgents())
	for {
		viol := o.ledger.Violations()
		if len(viol) == 0 {
			break
		}
		for i := range mark {
			mark[i] = false
		}
		for _, l := range viol {
			mark[l] = true
		}
		evicted := false
		for s := range o.cache.EachActive() {
			if !o.cache.SessionLoad(o.a, s).OverlapsAgents(mark) {
				continue
			}
			if err := o.teardownLocked(s); err != nil {
				return res, err
			}
			orphans = append(orphans, s)
			evicted = true
			break
		}
		if !evicted {
			// Violations with no active session loading the agent cannot
			// happen while the reconciliation invariant holds.
			return res, fmt.Errorf("orchestrator: capacity violation persists with nothing to evict (agents %v)", viol)
		}
	}
	res.orphans = len(orphans)
	evict.EndArg(int64(res.orphans))

	// Re-home ascending through the normal bootstrap. Rejects are counted
	// degradation, not errors.
	rehome := o.tel.StartSpan("re-home", heal)
	var rehomed []model.SessionID
	for _, s := range orphans {
		start := time.Now()
		evac := o.tel.StartSpan("evacuate", rehome)
		ok, err := o.rehomeLocked(s)
		if err != nil {
			return res, err
		}
		if ok {
			res.evacuated++
			rehomed = append(rehomed, s)
		} else {
			res.evacRejects++
		}
		evac.EndArg(int64(s))
		o.tel.Evacuation(o.tel.RegionOf(int(s)), ok, time.Since(start).Nanoseconds())
	}
	rehome.EndArg(int64(res.evacuated))
	o.stats.Orphans += res.orphans
	o.stats.Evacuated += res.evacuated
	o.stats.EvacRejects += res.evacRejects
	res.reopt = o.capReopt(model.SessionID(-1), rehomed)
	heal.EndArg(int64(res.orphans))
	return res, nil
}

// recoverLocked restores the given agents' effective scales and selects the
// re-balance set. Caller holds o.mu. Recoveries are not incidents, so the
// span is "re-balance" parented to the event, not a "heal".
func (o *Orchestrator) recoverLocked(agents []int, esp telemetry.Span) (faultResult, error) {
	var res faultResult
	reb := o.tel.StartSpan("re-balance", esp)
	for _, a := range agents {
		if err := o.applyScaleLocked(a); err != nil {
			return res, err
		}
	}
	o.recomputeImpairedLocked()
	res.reopt = o.rebalanceLocked(agents)
	reb.EndArg(int64(len(res.reopt)))
	return res, nil
}

// rebalanceLocked lists the sessions worth re-optimizing after a recovery:
// those whose members' candidate windows can reach a recovered agent — all
// active sessions when walks are unwindowed — capped at MaxReoptSessions.
// Caller holds o.mu.
func (o *Orchestrator) rebalanceLocked(recovered []int) []model.SessionID {
	mark := make([]bool, o.sc.NumAgents())
	for _, a := range recovered {
		mark[a] = true
	}
	var cands []model.SessionID
	for s := range o.cache.EachActive() {
		if o.nbrIdx == nil {
			cands = append(cands, s)
			continue
		}
		reach := false
		for _, u := range o.sc.Session(s).Users {
			for _, l := range o.nbrIdx.UserWindow(u) {
				if mark[l] {
					reach = true
					break
				}
			}
			if reach {
				break
			}
		}
		if reach {
			cands = append(cands, s)
		}
	}
	return o.capReopt(model.SessionID(-1), cands)
}

// rehomeLocked re-bootstraps an orphan on the surviving fleet. A false
// return is an infeasible placement (the bootstrapper rolled back); the
// session stays down. Caller holds o.mu.
func (o *Orchestrator) rehomeLocked(s model.SessionID) (bool, error) {
	if err := o.boot(o.a, s, o.ledger); err != nil {
		if errors.Is(err, agrank.ErrInfeasible) || errors.Is(err, baseline.ErrInfeasible) {
			return false, nil
		}
		return false, fmt.Errorf("orchestrator: evacuate session %d: %w", s, err)
	}
	o.cache.SetActive(s, true)
	o.touchIdx[s] = o.cache.SessionLoad(o.a, s).AppendAgents(nil)
	if o.rt != nil {
		if err := o.rt.ActivateSession(s, o.a); err != nil {
			return false, err
		}
	}
	return true, nil
}

// CapacityScales returns the current effective per-agent capacity scales
// (1 = healthy, 0 = failed or region-out). Snapshot for degraded-Oracle
// comparisons; call quiesced like the other snapshot methods.
func (o *Orchestrator) CapacityScales() []float64 {
	o.mu.Lock()
	defer o.mu.Unlock()
	out := make([]float64, len(o.baseScale))
	for a := range out {
		out[a] = o.effScaleLocked(a)
	}
	return out
}
