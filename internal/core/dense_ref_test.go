package core

import (
	"math"
	"math/rand"

	"vconf/internal/assign"
	"vconf/internal/cost"
	"vconf/internal/model"
)

// The from-scratch reference kernels the hop pipeline is checked against:
// every candidate pays a fresh SessionLoadOf, a fleet-wide FitsRepair scan,
// and a from-scratch DelayFeasible and SessionObjective — no walk memo, delay
// cache, incremental CandidatePhi or FitsRepairDelta. They take the engine's
// kernel signatures (the scratch is unused), so a test engine runs on them by
// swapping its hop and rate fields; see runDifferential.

// hopSessionDense is the from-scratch reference for one hop.
func hopSessionDense(
	a *assign.Assignment,
	s model.SessionID,
	ev *cost.Evaluator,
	ledger *cost.Ledger,
	cfg Config,
	rng *rand.Rand,
	_ *HopScratch,
) (HopResult, error) {
	p := ev.Params()

	curLoad := p.SessionLoadOf(a, s)
	ledger.Remove(curLoad)

	phiCur := ev.SessionObjective(a, s)
	phiCurReading := phiCur
	if cfg.Noise != nil {
		phiCurReading = cfg.Noise(phiCur)
	}

	decisions := a.AppendSessionNeighborDecisions(nil, s)
	type candidate struct {
		d          assign.Decision
		phi        float64 // noiseless, for reporting
		phiReading float64 // possibly noisy, drives the jump
	}
	cands := make([]candidate, 0, len(decisions))
	for _, d := range decisions {
		inv, err := a.Apply(d)
		if err != nil {
			ledger.Add(curLoad)
			return HopResult{}, err
		}
		load := p.SessionLoadOf(a, s)
		if ledger.FitsRepair(load, curLoad) && cost.DelayFeasible(a, s) {
			phi := ev.SessionObjective(a, s)
			reading := phi
			if cfg.Noise != nil {
				reading = cfg.Noise(phi)
			}
			cands = append(cands, candidate{d: d, phi: phi, phiReading: reading})
		}
		if _, err := a.Apply(inv); err != nil {
			ledger.Add(curLoad)
			return HopResult{}, err
		}
	}

	res := HopResult{PhiBefore: phiCur, PhiAfter: phiCur, Feasible: len(cands)}
	candPhis := make([]float64, len(cands))
	for i, c := range cands {
		candPhis[i] = c.phi
	}
	res.rankCandidates(candPhis)
	if len(cands) == 0 {
		ledger.Add(curLoad)
		return res, nil
	}

	halfBeta := 0.5 * cfg.Beta * cfg.ObjectiveScale
	maxExp := math.Inf(-1)
	for _, c := range cands {
		if e := halfBeta * (phiCurReading - c.phiReading); e > maxExp {
			maxExp = e
		}
	}
	weights := make([]float64, len(cands))
	total := 0.0
	for i, c := range cands {
		weights[i] = math.Exp(halfBeta*(phiCurReading-c.phiReading) - maxExp)
		total += weights[i]
	}
	res.TotalRate = total * math.Exp(maxExp)

	pick := rng.Float64() * total
	chosen := len(cands) - 1
	acc := 0.0
	for i, w := range weights {
		acc += w
		if pick < acc {
			chosen = i
			break
		}
	}

	c := cands[chosen]
	if _, err := a.Apply(c.d); err != nil {
		ledger.Add(curLoad)
		return HopResult{}, err
	}
	ledger.Add(p.SessionLoadOf(a, s))
	res.Moved = true
	res.Decision = c.d
	res.PhiAfter = c.phi
	return res, nil
}

// sessionTotalRateDense is the from-scratch reference for SessionTotalRateWith.
func sessionTotalRateDense(
	a *assign.Assignment,
	s model.SessionID,
	ev *cost.Evaluator,
	ledger *cost.Ledger,
	cfg Config,
	_ *HopScratch,
) (float64, error) {
	p := ev.Params()
	curLoad := p.SessionLoadOf(a, s)
	ledger.Remove(curLoad)
	defer ledger.Add(curLoad)

	phiCur := ev.SessionObjective(a, s)
	halfBeta := 0.5 * cfg.Beta * cfg.ObjectiveScale
	total := 0.0
	for _, d := range a.AppendSessionNeighborDecisions(nil, s) {
		inv, err := a.Apply(d)
		if err != nil {
			return 0, err
		}
		load := p.SessionLoadOf(a, s)
		if ledger.FitsRepair(load, curLoad) && cost.DelayFeasible(a, s) {
			total += math.Exp(halfBeta * (phiCur - ev.SessionObjective(a, s)))
		}
		if _, err := a.Apply(inv); err != nil {
			return 0, err
		}
	}
	return total, nil
}
