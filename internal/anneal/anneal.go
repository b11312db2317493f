// Package anneal implements two centralized comparison solvers the paper
// positions itself against in §IV-A-3: simulated annealing and greedy
// best-response (steepest-descent local search).
//
// Unlike the Markov approximation, neither admits a per-session parallel
// implementation with provable gap bounds — simulated annealing needs a
// global temperature schedule and the greedy sticks at local optima. They
// serve as ablation comparators: same neighbor structure (one decision
// variable per move), same feasibility rules, different acceptance rules.
package anneal

import (
	"fmt"
	"math"
	"math/rand"

	"vconf/internal/assign"
	"vconf/internal/cost"
	"vconf/internal/model"
)

// Result summarizes a local-search run.
type Result struct {
	// Assignment is the best state found.
	Assignment *assign.Assignment
	// BestPhi is its total objective.
	BestPhi float64
	// Iterations counts proposed moves; Accepted counts executed ones.
	Iterations int
	Accepted   int
}

// AnnealConfig tunes simulated annealing.
type AnnealConfig struct {
	// Iterations is the total number of proposed moves.
	Iterations int
	// T0 is the initial temperature in objective units; TEnd the final one.
	// A geometric cooling schedule interpolates between them.
	T0   float64
	TEnd float64
	Seed int64
	// rebuildDelayBase rebuilds the full delay base on every BeginSession
	// instead of reusing the state the chain's scratch last prepared: the
	// reference the package's differential test replays against.
	rebuildDelayBase bool
}

// DefaultAnnealConfig returns a schedule sized for workloads of a few
// hundred decision variables.
func DefaultAnnealConfig(seed int64) AnnealConfig {
	return AnnealConfig{Iterations: 20000, T0: 50, TEnd: 0.05, Seed: seed}
}

func (c AnnealConfig) validate() error {
	if c.Iterations < 1 {
		return fmt.Errorf("anneal: iterations must be positive")
	}
	if c.T0 <= 0 || c.TEnd <= 0 || c.TEnd > c.T0 {
		return fmt.Errorf("anneal: invalid temperature schedule [%v → %v]", c.T0, c.TEnd)
	}
	return nil
}

// SimulatedAnnealing runs Metropolis acceptance over the single-variable
// neighbor structure, starting from a complete feasible assignment. The
// returned assignment is the best feasible state visited.
func SimulatedAnnealing(ev *cost.Evaluator, start *assign.Assignment, cfg AnnealConfig) (*Result, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	sc := ev.Scenario()
	if !start.Complete() {
		return nil, fmt.Errorf("anneal: start assignment incomplete")
	}
	rng := rand.New(rand.NewSource(cfg.Seed))

	a := start.Clone()
	ledger := ev.Params().LedgerOf(a)
	sessionPhi := make([]float64, sc.NumSessions())
	curPhi := 0.0
	for s := 0; s < sc.NumSessions(); s++ {
		sessionPhi[s] = ev.SessionObjective(a, model.SessionID(s))
		curPhi += sessionPhi[s]
	}

	best := a.Clone()
	bestPhi := curPhi
	res := &Result{}
	cooling := math.Pow(cfg.TEnd/cfg.T0, 1/float64(cfg.Iterations))
	temp := cfg.T0

	// One evaluation scratch serves the whole run. It keeps the session it
	// last prepared, so a proposal for the same session as the last one
	// skips the delay-base rebuild (after an accepted move, too: the commit
	// advances the scratch); a proposal for another session rebuilds. No
	// per-iteration allocations either way.
	scr := ev.NewScratch()
	scr.SetDelayCacheEnabled(!cfg.rebuildDelayBase)
	var decisions []assign.Decision

	// Base-feasibility invariant: removing a session's (non-negative) load
	// from a feasible ledger keeps it feasible, and every accepted move
	// re-establishes full-ledger feasibility, so once the ledger is feasible
	// the O(NumAgents) Fits(nil) scan never needs to run again — proposals
	// pay only the O(touched) FitsTouched check.
	fullFeasible := ledger.Fits(nil)

	for it := 0; it < cfg.Iterations; it++ {
		res.Iterations++
		temp *= cooling

		// Propose: random session, random single-variable move.
		s := model.SessionID(rng.Intn(sc.NumSessions()))
		decisions = a.AppendSessionNeighborDecisions(decisions[:0], s)
		if len(decisions) == 0 {
			continue
		}
		d := decisions[rng.Intn(len(decisions))]

		// Price the proposal by its decision; only an accepted move is
		// applied.
		ev.BeginSession(a, s, scr)
		curLoad := scr.CurLoad()
		ledger.Remove(curLoad)
		newLoad, err := ev.NeighbourLoad(a, s, d, scr)
		if err != nil {
			ledger.Add(curLoad)
			return nil, err
		}
		var accept bool
		var newSessionPhi float64
		if (fullFeasible || ledger.Fits(nil)) && ledger.FitsTouched(newLoad) {
			if phi, ok := ev.CandidatePhi(a, s, d, scr); ok {
				newSessionPhi = phi
				delta := newSessionPhi - sessionPhi[s]
				accept = delta <= 0 || rng.Float64() < math.Exp(-delta/temp)
			}
		}
		if !accept {
			ledger.Add(curLoad)
			continue
		}
		if _, err := a.Apply(d); err != nil {
			return nil, err
		}
		ledger.Add(newLoad)
		fullFeasible = true // base + fitting candidate ⇒ feasible ledger
		// Commit notification: the accepted candidate's load and Φ are
		// already evaluated — advance the scratch's record so a next proposal
		// for this session starts from a hit.
		ev.CommitSessionDecision(a, s, scr, newLoad, newSessionPhi)
		curPhi += newSessionPhi - sessionPhi[s]
		sessionPhi[s] = newSessionPhi
		res.Accepted++
		if curPhi < bestPhi {
			bestPhi = curPhi
			best = a.Clone()
		}
	}
	res.Assignment = best
	res.BestPhi = bestPhi
	return res, nil
}

// GreedyConfig tunes the best-response descent.
type GreedyConfig struct {
	// MaxRounds bounds full sweeps over all sessions (descent usually
	// terminates earlier at a local optimum).
	MaxRounds int
	// rebuildDelayBase is AnnealConfig.rebuildDelayBase for the descent.
	rebuildDelayBase bool
}

// DefaultGreedyConfig allows enough rounds for convergence on the paper's
// scales.
func DefaultGreedyConfig() GreedyConfig { return GreedyConfig{MaxRounds: 100} }

// GreedyDescent repeatedly applies, per session, the feasible
// single-variable move with the largest objective improvement, until no
// session can improve (a local optimum of the neighborhood).
func GreedyDescent(ev *cost.Evaluator, start *assign.Assignment, cfg GreedyConfig) (*Result, error) {
	if cfg.MaxRounds < 1 {
		return nil, fmt.Errorf("anneal: max rounds must be positive")
	}
	sc := ev.Scenario()
	if !start.Complete() {
		return nil, fmt.Errorf("anneal: start assignment incomplete")
	}
	a := start.Clone()
	ledger := ev.Params().LedgerOf(a)

	res := &Result{}
	// One scratch serves the descent. It sweeps the sessions in turn, so
	// each BeginSession rebuilds the session it prepares; no allocations
	// after the first round either way.
	scr := ev.NewScratch()
	scr.SetDelayCacheEnabled(!cfg.rebuildDelayBase)
	var decisions []assign.Decision
	for round := 0; round < cfg.MaxRounds; round++ {
		improvedAny := false
		for s := 0; s < sc.NumSessions(); s++ {
			sid := model.SessionID(s)
			begin := ev.BeginSession(a, sid, scr)
			curLoad := scr.CurLoad()
			ledger.Remove(curLoad)
			curPhi := begin.Phi
			// The ledger minus this session is fixed across the candidate
			// sweep, so base feasibility is checked once and each candidate
			// pays only the touched-agents check.
			baseOK := ledger.Fits(nil)

			var bestD assign.Decision
			bestPhi := curPhi
			found := false
			decisions = a.AppendSessionNeighborDecisions(decisions[:0], sid)
			for _, d := range decisions {
				res.Iterations++
				load, err := ev.NeighbourLoad(a, sid, d, scr)
				if err != nil {
					ledger.Add(curLoad)
					return nil, err
				}
				if baseOK && ledger.FitsTouched(load) {
					if phi, ok := ev.CandidatePhi(a, sid, d, scr); ok && phi < bestPhi-1e-12 {
						bestPhi = phi
						bestD = d
						found = true
					}
				}
			}
			// Only the best move is applied.
			if found {
				if _, err := a.Apply(bestD); err != nil {
					return nil, err
				}
				res.Accepted++
				improvedAny = true
			}
			ledger.Add(ev.SessionLoadSparse(a, sid, scr))
		}
		if !improvedAny {
			break
		}
	}
	res.Assignment = a
	res.BestPhi = ev.TotalObjective(a)
	return res, nil
}
