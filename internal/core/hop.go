package core

import (
	"math"
	"math/rand"

	"vconf/internal/assign"
	"vconf/internal/cost"
	"vconf/internal/model"
)

// HopResult reports what one HOP invocation did.
type HopResult struct {
	// Moved is true when the session migrated to a neighbor state; false
	// when no feasible neighbor existed.
	Moved bool
	// Decision is the executed migration (valid when Moved).
	Decision assign.Decision
	// PhiBefore and PhiAfter are the session-local objectives (noiseless).
	PhiBefore float64
	PhiAfter  float64
	// Feasible is the number of feasible neighbor states considered.
	Feasible int
	// TotalRate is Σ_f' q_{f,f'} / τ: the unnormalized total outgoing
	// weight, used by ExactCTMC holding times.
	TotalRate float64
	// PhiBest and PhiSecond are the two lowest noiseless candidate
	// objectives among the feasible neighbors — the counterfactual-k
	// inputs, read off the already-evaluated candidate set at no extra
	// cost. PhiSecond is +Inf with fewer than two candidates (and PhiBest
	// +Inf with none). PhiSecond − PhiAfter is the gap between the sampled
	// move and the runner-up alternative.
	PhiBest   float64
	PhiSecond float64
}

// rankCandidates fills PhiBest/PhiSecond from a candidate Φ slice.
func (r *HopResult) rankCandidates(phis []float64) {
	best, second := math.Inf(1), math.Inf(1)
	for _, phi := range phis {
		switch {
		case phi < best:
			best, second = phi, best
		case phi < second:
			second = phi
		}
	}
	r.PhiBest, r.PhiSecond = best, second
}

// HopScratch pools every reusable buffer one hop needs: the cost package's
// evaluation scratch (sparse loads, delay matrix, and the prepared state
// BeginSession reuses from one hop of a session to the next) plus the
// candidate-set buffers of the jump sampling. One scratch per worker; not
// safe for concurrent use.
type HopScratch struct {
	eval *cost.Scratch
	// decisions are the neighbors of the current state and vals their Φs as
	// price computes them or a memo table serves them (NaN: not a
	// candidate); key is the state's memo key and memo the walk's own memo,
	// which holds the candidate sets the hop samples from.
	decisions []assign.Decision
	vals      []float64
	key       []int32
	memo      walkMemo
	// env is the envelope of the candidate loads price folds, envAt maps an
	// agent to 1 + its index in it (0 otherwise), and wit holds the
	// witnesses of the neighbors price refused for capacity.
	env      []cost.EnvelopeAgent
	envAt    []int32
	wit      []cost.Refusal
	readings []float64 // noisy Φ readings (cfg.Noise only)
	weights  []float64
	// nbrIdx is the proximity index backing Config.NeighborWindow > 0:
	// handed in by the host (SetProximityIndex) or built on first use. It
	// records the scenario and window it was built for.
	nbrIdx *assign.ProximityIndex
}

// NewHopScratch builds a scratch sized for the evaluator's scenario.
func NewHopScratch(ev *cost.Evaluator) *HopScratch {
	return &HopScratch{eval: ev.NewScratch()}
}

// Eval exposes the underlying cost scratch so hosts (the engine's snapshot
// path, the orchestrator's commit path) can reuse it between hops.
func (scr *HopScratch) Eval() *cost.Scratch { return scr.eval }

func (scr *HopScratch) ensure(ev *cost.Evaluator) {
	if scr.eval == nil {
		scr.eval = ev.NewScratch()
		return
	}
	scr.eval.Ensure(ev)
}

// SetProximityIndex hands the scratch a prebuilt proximity index, so a host
// running several workers builds the U × window table once and shares it
// (the index is immutable). Hops whose scenario or window differ from the
// index's fall back to building their own.
func (scr *HopScratch) SetProximityIndex(ix *assign.ProximityIndex) { scr.nbrIdx = ix }

// appendNeighbors enumerates session s's candidate decisions, applying the
// configured N_ngbr candidate window (0 = full scan). Without a matching
// index from SetProximityIndex, one is built once per (scenario, window) and
// kept on the scratch, so steady-state hops stay allocation-free.
func (scr *HopScratch) appendNeighbors(a *assign.Assignment, s model.SessionID, cfg Config) []assign.Decision {
	if cfg.NeighborWindow <= 0 {
		return a.AppendSessionNeighborDecisions(scr.decisions[:0], s)
	}
	sc := a.Scenario()
	// The index clamps its window to the fleet size; at or beyond it the
	// enumeration is the full scan and the index is not consulted.
	if cfg.NeighborWindow < sc.NumAgents() &&
		(scr.nbrIdx == nil || scr.nbrIdx.Scenario() != sc || scr.nbrIdx.Window() != cfg.NeighborWindow) {
		scr.nbrIdx = assign.NewProximityIndex(sc, cfg.NeighborWindow)
	}
	return a.AppendSessionNeighborDecisionsOpts(scr.decisions[:0], s,
		assign.NeighborOptions{Window: cfg.NeighborWindow, Index: scr.nbrIdx})
}

// HopSessionWith executes one HOP of Alg. 1 (lines 9–16) for session s:
// enumerate all feasible single-variable neighbors, evaluate their local
// objectives against the shared residual-capacity ledger, and migrate with
// probability ∝ exp(½·β·scale·(Φ_s,f − Φ_s,f')). It is the one-hop walk, on
// the caller's scratch: zero allocations at steady state.
//
// The ledger must contain the loads of ALL admitted sessions including s;
// on return it reflects the (possibly migrated) state. The assignment is
// mutated in place. Callers are responsible for mutual exclusion across
// sessions (the virtual-time engine serializes events; a dist runner hops
// on a snapshot granted under the coordinator's FREEZE lock).
func HopSessionWith(
	a *assign.Assignment,
	s model.SessionID,
	ev *cost.Evaluator,
	ledger *cost.Ledger,
	cfg Config,
	rng *rand.Rand,
	scr *HopScratch,
) (HopResult, error) {
	var res HopResult
	_, err := WalkSession(a, s, ev, ledger, cfg, rng, scr, nil, 1, func(r HopResult) { res = r })
	return res, err
}

// WalkStats counts one walk's hops: Hops executed (a last one that found no
// feasible neighbor included) and, among them, Reused — hops from a state
// the walk had already been in, which took its candidate set from the
// walk's memo — and ReusedAcross — hops from a state new to the walk that
// an earlier walk of the session had certified, served by the memo table.
// The rest evaluated theirs.
type WalkStats struct{ Hops, Reused, ReusedAcross int }

// WalkSession executes up to hops consecutive HOPs of session s — the same
// states, results and rng draws as that many HopSessionWith calls — calling
// visit with each hop's result, the assignment holding the state after it.
// It ends early after a hop that finds no feasible neighbor (Moved false;
// still visited) or on an error (not visited).
//
// The walk takes s's own load out of the ledger at its first hop (line 11:
// fetch residual capacities) and puts the final state's load back on every
// return; in between the ledger is the other sessions' usage and the caller
// keeps every writer off it (HopSessionWith's mutual-exclusion contract), so a
// state's feasible candidates and their noiseless Φ are a pure function of
// the state. β-weighted jumps send a session at a local optimum
// f → f′ → f → f″ → f, and the walk memoizes each state it prices in the
// scratch's memo, emptied when the walk starts. memo, when non-nil, is the
// host's table of states earlier walks certified (see MemoTable): the
// session's envelope is checked against the ledger once, right after the
// session's load is taken out; the table serves states new to this walk and
// keeps the certified states the walk prices. A hop from a memoized state
// skips only the candidate evaluation: BeginSession, the noise readings, the
// weights, the rng draw, the chosen state's NeighbourLoad, Apply and
// CommitSessionDecision run as on a miss, in the same order. The walk's last
// hop skips CommitSessionDecision: no hop of this walk reads the record, and
// the session's next BeginSession catches up by diff.
func WalkSession(
	a *assign.Assignment,
	s model.SessionID,
	ev *cost.Evaluator,
	ledger *cost.Ledger,
	cfg Config,
	rng *rand.Rand,
	scr *HopScratch,
	memo *MemoTable,
	hops int,
	visit func(HopResult),
) (WalkStats, error) {
	var st WalkStats
	scr.ensure(ev)
	es := scr.eval
	scr.memo.clear()

	// own is the load of the state the session is in, nil before the first hop.
	var own *cost.SparseLoad
	defer func() {
		if own != nil {
			ledger.Add(own)
		}
	}()
	for st.Hops < hops {
		// BeginSession also fills the per-flow delay base the candidate
		// deltas patch against.
		be := ev.BeginSession(a, s, es)
		if own == nil {
			ledger.Remove(es.CurLoad())
			memo.check(s, ledger)
		}
		own = es.CurLoad()
		ds, phis, src, err := scr.candidateSet(a, s, ev, ledger, cfg, memo)
		if err != nil {
			return st, err
		}
		st.Hops++
		switch src {
		case fromWalk:
			st.Reused++
		case fromSession:
			st.ReusedAcross++
		}
		res := HopResult{PhiBefore: be.Phi, PhiAfter: be.Phi, Feasible: len(ds)}
		res.rankCandidates(phis)
		var chosen int
		if chosen, res.TotalRate = scr.sample(phis, be.Phi, cfg, rng); chosen < 0 {
			visit(res)
			break
		}
		res.Moved, res.Decision, res.PhiAfter = true, ds[chosen], phis[chosen]
		load, err := ev.NeighbourLoad(a, s, res.Decision, es)
		if err != nil {
			return st, err
		}
		if _, err := a.Apply(res.Decision); err != nil {
			return st, err
		}
		// Commit notification: advance the scratch's record to the chosen
		// state from its load and its already-evaluated Φ, so the session's
		// next BeginSession is a hit instead of a patch.
		own = load
		if st.Hops < hops {
			ev.CommitSessionDecision(a, s, es, own, res.PhiAfter)
		}
		visit(res)
	}
	return st, nil
}

// price evaluates F_s of the state BeginSession last prepared on the
// scratch — all feasible solutions one decision away (line 12), which
// appendNeighbors left in scr.decisions: it fills scr.vals with one
// noiseless Φ per neighbor, NaN where capacity or the delay cap refuses it.
// The ledger must hold the other sessions' usage only, and the assignment
// stays in the prepared state. The cost package prices the neighbours one decision
// variable at a time: what moving a member or flow leaves behind once per
// variable, then per target agent only the change the target makes to the
// load (NeighbourLoad), a touched-agents capacity check that names the
// agent refusing it, if any, and the delays of the flows the decision moved
// (CandidatePhi). With fold, the candidates' loads are folded into their
// envelope (scr.env), O(touched) each, a neighbor refused for capacity at a
// degraded agent leaves its witness in scr.wit, and certified reports that
// no other neighbor was refused for capacity and the envelope fits.
func (scr *HopScratch) price(a *assign.Assignment, s model.SessionID, ev *cost.Evaluator, ledger *cost.Ledger, fold bool) (certified bool, err error) {
	es := scr.eval
	curLoad := es.CurLoad()
	scr.vals, scr.env, scr.wit = scr.vals[:0], scr.env[:0], scr.wit[:0]
	n := a.Scenario().NumAgents()
	if fold && len(scr.envAt) != n {
		scr.envAt = make([]int32, n)
	}
	defer func() {
		for _, e := range scr.env {
			scr.envAt[e.Agent] = 0
		}
	}()
	for _, d := range scr.decisions {
		load, err := ev.NeighbourLoad(a, s, d, es)
		if err != nil {
			return false, err
		}
		val := math.NaN()
		// The repair check (not Fits) so that after a runtime capacity
		// degradation, sessions can still migrate off the overloaded agent
		// instead of freezing; on a fully-feasible ledger it is identical
		// to Fits.
		if x := ledger.RepairRefusalRange(load, curLoad, 0, n); x >= 0 {
			// Only a fault outlasts the walks that meet it: a healthy
			// agent's refusal, lifted by other sessions' moves, ends certification.
			if fold = fold && ledger.Degraded(x); fold {
				scr.wit = append(scr.wit, cost.RefusalAt(load, curLoad, x))
			}
		} else if phi, ok := ev.CandidatePhi(a, s, d, es); ok {
			val = phi
			if fold {
				scr.fold(load)
			}
		}
		scr.vals = append(scr.vals, val)
	}
	return fold && ledger.FitsEnvelope(scr.env), nil
}

// fold raises scr.env to cover load, O(touched).
func (scr *HopScratch) fold(load *cost.SparseLoad) {
	for _, l := range load.Touched() {
		i := scr.envAt[l] - 1
		if i < 0 {
			i, scr.env = int32(len(scr.env)), append(scr.env, cost.EnvelopeAgent{Agent: l})
			scr.envAt[l] = i + 1
		}
		down, up, _, tasks := load.At(model.AgentID(l))
		scr.env[i].Raise(down, up, tasks)
	}
}

// Where a hop's candidate set came from.
const (
	priced = iota
	fromWalk
	fromSession
)

// candidateSet returns the feasible candidates of the state a holds and
// their noiseless Φ: from the walk's memo when the walk has been in this
// state before, else from the memo table (when given) when an earlier walk
// certified it, else by price — storing the state in the table, with its
// envelope and its refusals' witnesses, when certified. Either of the last
// two becomes the walk memo's set.
func (scr *HopScratch) candidateSet(a *assign.Assignment, s model.SessionID, ev *cost.Evaluator, ledger *cost.Ledger, cfg Config, memo *MemoTable) (ds []assign.Decision, phis []float64, src int, err error) {
	scr.key = appendKey(scr.key[:0], a, s)
	if phis, ds, ok := scr.memo.lookup(scr.key); ok {
		return ds, phis, fromWalk, nil
	}
	scr.decisions = scr.appendNeighbors(a, s, cfg)
	src = fromSession
	var ok bool
	if scr.vals, ok = memo.lookup(s, scr.key, scr.vals[:0]); !ok {
		src = priced
		certified, err := scr.price(a, s, ev, ledger, memo != nil)
		if err != nil {
			return nil, nil, 0, err
		}
		if certified {
			memo.store(s, scr.key, scr.vals, scr.env, scr.wit, scr.envAt)
		}
	}
	ds, phis = scr.memo.keep(scr.key, scr.decisions, scr.vals)
	return ds, phis, src, nil
}

// sample draws the hop's target (line 13) ∝ exp(½β(Φ_f − Φ_f')) over the
// candidates' Φ readings — phis themselves, or with cfg.Noise its reading of
// Φ_cur and then of each candidate in order — max-shifted so β = 400 cannot
// overflow float64. It returns the chosen index and the unshifted Σ weights
// (may be +Inf; only ExactCTMC uses it); without candidates, -1 and no draw.
func (scr *HopScratch) sample(phis []float64, phiCur float64, cfg Config, rng *rand.Rand) (chosen int, totalRate float64) {
	readings := phis
	if cfg.Noise != nil {
		phiCur = cfg.Noise(phiCur)
		scr.readings = scr.readings[:0]
		for _, phi := range phis {
			scr.readings = append(scr.readings, cfg.Noise(phi))
		}
		readings = scr.readings
	}
	if len(readings) == 0 {
		return -1, 0
	}
	halfBeta := 0.5 * cfg.Beta * cfg.ObjectiveScale
	maxExp := math.Inf(-1)
	for _, r := range readings {
		if e := halfBeta * (phiCur - r); e > maxExp {
			maxExp = e
		}
	}
	scr.weights = scr.weights[:0]
	total := 0.0
	for _, r := range readings {
		w := math.Exp(halfBeta*(phiCur-r) - maxExp)
		scr.weights = append(scr.weights, w)
		total += w
	}
	pick := rng.Float64() * total
	chosen = len(readings) - 1
	acc := 0.0
	for i, w := range scr.weights {
		acc += w
		if pick < acc {
			chosen = i
			break
		}
	}
	return chosen, total * math.Exp(maxExp)
}

// SessionTotalRateWith computes R(f)/τ = Σ_{f'∈F_s} exp(½β·scale·(Φ_f − Φ_f'))
// for the session's current state without migrating: the total outgoing
// weight that determines the ExactCTMC holding time. The ledger is restored
// before returning.
func SessionTotalRateWith(
	a *assign.Assignment,
	s model.SessionID,
	ev *cost.Evaluator,
	ledger *cost.Ledger,
	cfg Config,
	scr *HopScratch,
) (float64, error) {
	scr.ensure(ev)
	es := scr.eval

	be := ev.BeginSession(a, s, es)
	ledger.Remove(es.CurLoad())
	scr.decisions = scr.appendNeighbors(a, s, cfg)
	_, err := scr.price(a, s, ev, ledger, false)
	ledger.Add(es.CurLoad())
	if err != nil {
		return 0, err
	}
	halfBeta := 0.5 * cfg.Beta * cfg.ObjectiveScale
	total := 0.0
	for _, phi := range scr.vals {
		if !math.IsNaN(phi) {
			total += math.Exp(halfBeta * (be.Phi - phi))
		}
	}
	return total, nil
}

// holdingTime draws the time to the next hop of a session. In PaperHop mode
// it is exponential with the configured mean countdown; in ExactCTMC mode it
// is exponential with rate τ·Σ weights, which realizes the chain's exact
// transition rates (totalRate ≤ 0 falls back to the paper countdown so a
// stuck session still re-checks periodically; an infinite rate is clamped to
// a small positive holding time to avoid zero-time event loops).
func holdingTime(cfg Config, totalRate float64, rng *rand.Rand) float64 {
	mean := cfg.MeanCountdownS
	if cfg.Mode == ExactCTMC && totalRate > 0 {
		if math.IsInf(totalRate, 1) {
			mean = 1e-9
		} else {
			mean = cfg.MeanCountdownS / totalRate
		}
	}
	return rng.ExpFloat64() * mean
}
