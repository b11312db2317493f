package baseline

import (
	"fmt"
	"math"

	"vconf/internal/assign"
	"vconf/internal/cost"
	"vconf/internal/model"
)

// This file adds one more comparison policy beyond Nrst, single-agent
// ("topology control"): per session, subscribe every participant to the one
// agent minimizing the session's worst end-to-end delay, with transcoding
// co-located. This mirrors the delay-only server-selection approach of
// Zhang et al. (NOSSDAV'14), cited as [24] in the paper's related work: it
// ignores provider cost entirely and optimizes latency by topology choice.
// (Random assignment, the calibration floor any sensible policy must beat,
// has no caller outside its tests and lives in extra_test.go.)

// AssignSessionSingleAgent bootstraps session s onto the single agent that
// minimizes the session's mean per-user delay (F's shape), among agents
// whose capacity can absorb the whole session. Transcoding runs at the same
// agent, so the session generates zero inter-agent traffic — the
// delay-driven "topology control" extreme.
func AssignSessionSingleAgent(a *assign.Assignment, s model.SessionID, p cost.Params, ledger cost.LedgerAPI) error {
	sc := a.Scenario()
	bestAgent := model.AgentID(-1)
	bestDelay := math.Inf(1)
	scr := cost.GetScratch()
	defer cost.PutScratch(scr)
	for l := 0; l < sc.NumAgents(); l++ {
		placeSessionAt(a, s, model.AgentID(l))
		if !ledger.Fits(p.SessionLoadSparse(a, s, scr)) || !cost.DelayFeasible(a, s) {
			continue
		}
		if d := cost.SessionDelaysOf(a, s).MeanOfMaxMS; d < bestDelay {
			bestDelay = d
			bestAgent = model.AgentID(l)
		}
	}
	if bestAgent < 0 {
		rollbackSession(a, s)
		return fmt.Errorf("%w: session %d fits no single agent", ErrInfeasible, s)
	}
	placeSessionAt(a, s, bestAgent)
	// The scan's Fits ran arbitrarily earlier; re-validate and account in
	// one critical section (single-owner contexts always succeed here).
	if !ledger.TryAdd(p.SessionLoadSparse(a, s, scr)) {
		rollbackSession(a, s)
		return fmt.Errorf("%w: session %d lost its single-agent capacity to a concurrent admission",
			ErrInfeasible, s)
	}
	return nil
}

// AssignSingleAgent bootstraps every session onto its best single agent.
func AssignSingleAgent(a *assign.Assignment, p cost.Params, ledger cost.LedgerAPI) error {
	sc := a.Scenario()
	for s := 0; s < sc.NumSessions(); s++ {
		if err := AssignSessionSingleAgent(a, model.SessionID(s), p, ledger); err != nil {
			return err
		}
	}
	return nil
}

func placeSessionAt(a *assign.Assignment, s model.SessionID, l model.AgentID) {
	sc := a.Scenario()
	for _, u := range sc.Session(s).Users {
		a.SetUserAgent(u, l)
	}
	for _, f := range a.SessionFlows(s) {
		// Session flows always exist in the table.
		_ = a.SetFlowAgent(f, l)
	}
}
