package orchestrator

// This file is the self-healing fault path. A fault event (internal/faults
// schedules) is an ordinary scheduler event with trigger -1: its admission
// stage (applyFaultLocked) mutates the fault state and heals under o.mu,
// its footprint is the re-homed or re-balanced session set, the
// re-optimize stage walks that set, and retire does the incident
// accounting. Healing contract:
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
//   - Healing re-assigns sessions that in-flight events may own, so a
//     fault event carries no trigger session and the scheduler admits it
//     only when nothing is in flight. The attached data plane is ticked to
//     the fault's time at its admission, so it has seen every earlier
//     migration.
//
// Effective capacity scale per agent = 0 if the agent or its region is
// failed, else its base scale (EventCapacityDegrade). Every change goes
// through the authoritative ledger's SetCapacityScale, so commit-time
// validation (FitsRepairDelta) and CheckInvariants see degradation
// immediately.

import (
	"fmt"
	"time"

	"vconf/internal/model"
	"vconf/internal/workload"
)

// applyFaultLocked is a fault event's admission stage: it mutates the fault
// state and heals, writing the outcome and the re-optimization set into the
// event's report. Repeated failures of an already-failed target
// (overlapping renewal processes) are idempotent no-ops, and a flash-crowd
// marker changes nothing. Caller holds o.mu.
func (st *eventState) applyFaultLocked() error {
	o, e := st.o, st.e
	switch e.Kind {
	case workload.EventAgentFail:
		if o.failed[e.Agent] {
			return nil
		}
		o.failed[e.Agent] = true
		return st.degradeLocked([]int{e.Agent})
	case workload.EventAgentRecover:
		if !o.failed[e.Agent] {
			return nil
		}
		o.failed[e.Agent] = false
		return st.recoverLocked([]int{e.Agent})
	case workload.EventRegionOutage:
		if o.regionOut[e.Region] {
			return nil
		}
		o.regionOut[e.Region] = true
		return st.degradeLocked(o.regionAgents(e.Region))
	case workload.EventRegionRecover:
		if !o.regionOut[e.Region] {
			return nil
		}
		o.regionOut[e.Region] = false
		return st.recoverLocked(o.regionAgents(e.Region))
	case workload.EventCapacityDegrade:
		old := o.baseScale[e.Agent]
		if e.Scale == old {
			return nil
		}
		o.baseScale[e.Agent] = e.Scale
		if o.downLocked(e.Agent) {
			// The agent is failed anyway: record the base scale for its
			// recovery, effective capacity stays 0.
			o.recomputeImpairedLocked()
			return nil
		}
		if e.Scale < old {
			return st.degradeLocked([]int{e.Agent})
		}
		return st.recoverLocked([]int{e.Agent})
	}
	return nil
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
// Marking the heal start makes the event an incident. Caller holds o.mu.
// The heal span is Ended only on the success return, so recorded "heal"
// spans reconcile exactly with Stats.Incidents (error paths abort the run
// anyway, and idempotent no-ops never reach this function).
func (st *eventState) degradeLocked(agents []int) error {
	o, rep := st.o, st.rep
	st.healStart = time.Now()
	heal := o.tel.StartSpan("heal", st.span)
	deg := o.tel.StartSpan("degrade", heal)
	for _, a := range agents {
		if err := o.applyScaleLocked(a); err != nil {
			return err
		}
	}
	o.recomputeImpairedLocked()
	deg.EndArg(int64(len(agents)))

	// Evacuation loop: evict the lowest-ID session loading a violating
	// agent, recompute, repeat. Whole sessions move (Φ_s and the delay caps
	// are session-scoped), and the ascending scan keeps replay
	// deterministic.
	evict := o.tel.StartSpan("evict", heal)
	var orphans []model.SessionID
	for {
		viol := o.ledger.Violations()
		if len(viol) == 0 {
			break
		}
		touched := o.touchedIndexed(-1, viol)
		if len(touched) == 0 {
			// Violations with no active session loading the agent cannot
			// happen while the reconciliation invariant holds.
			return fmt.Errorf("orchestrator: capacity violation persists with nothing to evict (agents %v)", viol)
		}
		if err := o.teardownLocked(touched[0]); err != nil {
			return err
		}
		orphans = append(orphans, touched[0])
	}
	rep.Orphans = len(orphans)
	evict.EndArg(int64(rep.Orphans))

	// Re-home ascending through the normal bootstrap. Rejects are counted
	// degradation, not errors.
	rehome := o.tel.StartSpan("re-home", heal)
	var rehomed []model.SessionID
	for _, s := range orphans {
		start := time.Now()
		evac := o.tel.StartSpan("evacuate", rehome)
		ok, err := o.activateLocked(s)
		if err != nil {
			return err
		}
		if ok {
			rep.Evacuated++
			rehomed = append(rehomed, s)
		} else {
			rep.EvacRejects++
		}
		evac.EndArg(int64(s))
		o.tel.Evacuation(int(s), ok, time.Since(start).Nanoseconds())
	}
	rehome.EndArg(int64(rep.Evacuated))
	o.stats.Orphans += rep.Orphans
	o.stats.Evacuated += rep.Evacuated
	o.stats.EvacRejects += rep.EvacRejects
	st.rep.Reopt = o.capReopt(-1, rehomed)
	heal.EndArg(int64(rep.Orphans))
	return nil
}

// recoverLocked restores the given agents' effective scales and selects the
// re-balance set. Caller holds o.mu. Recoveries are not incidents, so the
// span is "re-balance" parented to the event, not a "heal".
func (st *eventState) recoverLocked(agents []int) error {
	o := st.o
	reb := o.tel.StartSpan("re-balance", st.span)
	for _, a := range agents {
		if err := o.applyScaleLocked(a); err != nil {
			return err
		}
	}
	o.recomputeImpairedLocked()
	st.rep.Reopt = o.rebalanceLocked(agents)
	reb.EndArg(int64(len(st.rep.Reopt)))
	return nil
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
