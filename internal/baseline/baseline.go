// Package baseline implements the nearest-assignment policy (Nrst) the paper
// compares against — the user-to-agent policy of Airlift [11] and vSkyConf
// [21]: every user subscribes to its delay-nearest agent, and each
// transcoding task runs at the source user's agent.
//
// Nrst is deliberately resource-oblivious (§V-B-3): it never falls back to
// another agent when capacities are exhausted, which is exactly why its
// admission success rate collapses under tight capacities in Fig. 9.
package baseline

import (
	"errors"
	"fmt"

	"vconf/internal/assign"
	"vconf/internal/cost"
	"vconf/internal/model"
)

// ErrInfeasible reports that a session could not be admitted under its
// policy without violating capacity or delay constraints.
var ErrInfeasible = errors.New("baseline: session admission infeasible")

// AssignSessionNearest bootstraps session s with the Nrst policy: each user
// to its nearest agent, each transcoding flow to the source's agent. On
// success the session's load is added to the ledger. On failure the
// session's variables are rolled back to Unassigned and ErrInfeasible is
// returned (wrapped with detail).
func AssignSessionNearest(a *assign.Assignment, s model.SessionID, p cost.Params, ledger cost.LedgerAPI) error {
	sc := a.Scenario()
	for _, u := range sc.Session(s).Users {
		a.SetUserAgent(u, sc.NearestAgent(u))
	}
	for _, f := range a.SessionFlows(s) {
		if err := a.SetFlowAgent(f, a.UserAgent(f.Src)); err != nil {
			rollbackSession(a, s)
			return err
		}
	}
	if !cost.DelayFeasible(a, s) {
		rollbackSession(a, s)
		return fmt.Errorf("%w: session %d violates the delay cap under nearest assignment", ErrInfeasible, s)
	}
	scr := cost.GetScratch()
	defer cost.PutScratch(scr)
	// Atomic check-then-add (see LedgerAPI.TryAdd): admission must not
	// validate against usage a concurrent worker commit then grows.
	if !ledger.TryAdd(p.SessionLoadSparse(a, s, scr)) {
		rollbackSession(a, s)
		return fmt.Errorf("%w: session %d exceeds agent capacity under nearest assignment", ErrInfeasible, s)
	}
	return nil
}

// Assign bootstraps every session of the scenario in ID order with Nrst.
// It stops at the first infeasible session, leaving earlier sessions
// admitted in the assignment and ledger; callers running success-rate
// experiments treat any error as a failed scenario.
func Assign(a *assign.Assignment, p cost.Params, ledger cost.LedgerAPI) error {
	sc := a.Scenario()
	for s := 0; s < sc.NumSessions(); s++ {
		if err := AssignSessionNearest(a, model.SessionID(s), p, ledger); err != nil {
			return err
		}
	}
	return nil
}

// rollbackSession clears every decision of session s.
func rollbackSession(a *assign.Assignment, s model.SessionID) {
	sc := a.Scenario()
	for _, u := range sc.Session(s).Users {
		a.SetUserAgent(u, assign.Unassigned)
	}
	for _, f := range a.SessionFlows(s) {
		// Flows of the session always exist in the assignment table.
		_ = a.SetFlowAgent(f, assign.Unassigned)
	}
}
