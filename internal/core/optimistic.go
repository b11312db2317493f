package core

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"time"

	"vconf/internal/assign"
	"vconf/internal/cost"
	"vconf/internal/model"
)

// OptimisticParallel is an extension of the paper's FREEZE/UNFREEZE protocol
// (§IV-A). The paper freezes *every* other session for the entire HOP —
// including the expensive part, evaluating all |F_s| neighbor objectives.
// This engine instead lets sessions evaluate candidates concurrently against
// a snapshot of the shared capacity ledger and serializes only the commit:
//
//  1. snapshot: under a read lock, copy the residual-capacity view and the
//     session's current assignment;
//  2. evaluate: off-lock, enumerate feasible neighbors and sample the jump
//     target exactly as Alg. 1 line 13;
//  3. commit: under the write lock, re-validate the chosen target against
//     the live ledger (another session may have claimed capacity); apply if
//     still feasible, abort-and-retry otherwise.
//
// Aborts are counted; with ample capacity they are rare and the chain's
// trajectory distribution matches the frozen protocol's (the re-validation
// only rejects moves the frozen protocol would never have proposed).
type OptimisticParallel struct {
	ev  *cost.Evaluator
	cfg Config
	// TimeScale compresses virtual seconds into wall time (see Parallel).
	TimeScale time.Duration

	mu     sync.RWMutex
	a      *assign.Assignment
	ledger *cost.Ledger

	statsMu sync.Mutex
	hops    int
	moves   int
	aborts  int
}

// NewOptimisticParallel builds the engine from a complete assignment.
func NewOptimisticParallel(ev *cost.Evaluator, cfg Config, a *assign.Assignment) (*OptimisticParallel, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	for s := 0; s < ev.Scenario().NumSessions(); s++ {
		if !a.SessionComplete(model.SessionID(s)) {
			return nil, fmt.Errorf("core: optimistic engine needs a complete assignment; session %d is not", s)
		}
	}
	return &OptimisticParallel{
		ev:        ev,
		cfg:       cfg,
		TimeScale: time.Millisecond,
		a:         a.Clone(),
		ledger:    ev.Params().LedgerOf(a),
	}, nil
}

// Run launches one goroutine per session until wall time d elapses or ctx is
// cancelled; it blocks until all goroutines exit.
func (oe *OptimisticParallel) Run(ctx context.Context, d time.Duration) error {
	runCtx, cancel := context.WithTimeout(ctx, d)
	defer cancel()

	sc := oe.ev.Scenario()
	var wg sync.WaitGroup
	errs := make(chan error, sc.NumSessions())
	for s := 0; s < sc.NumSessions(); s++ {
		sid := model.SessionID(s)
		rng := rand.New(rand.NewSource(oe.cfg.Seed + int64(s)*104729))
		wg.Add(1)
		go func() {
			defer wg.Done()
			oe.runSession(runCtx, sid, rng, errs)
		}()
	}
	wg.Wait()
	select {
	case err := <-errs:
		return err
	default:
		return nil
	}
}

func (oe *OptimisticParallel) runSession(ctx context.Context, s model.SessionID, rng *rand.Rand, errs chan<- error) {
	scr := NewHopScratch(oe.ev)
	for {
		wait := time.Duration(rng.ExpFloat64() * oe.cfg.MeanCountdownS * float64(oe.TimeScale))
		timer := time.NewTimer(wait)
		select {
		case <-ctx.Done():
			timer.Stop()
			return
		case <-timer.C:
		}
		if err := oe.attemptHop(s, rng, scr); err != nil {
			select {
			case errs <- fmt.Errorf("core: optimistic hop session %d: %w", s, err):
			default:
			}
			return
		}
	}
}

// attemptHop runs snapshot → evaluate → commit for one session. The
// evaluation phase runs on the sparse pipeline with the goroutine's own
// scratch; only the state snapshot itself still copies (that is the point of
// the protocol — evaluate off-lock against a stable view).
func (oe *OptimisticParallel) attemptHop(s model.SessionID, rng *rand.Rand, scr *HopScratch) error {
	scr.ensure(oe.ev)
	es := scr.Eval()
	// The snapshot is a fresh clone every hop, but the delay cache's
	// signatures compare variable values, not assignment identity — so the
	// per-goroutine cache stays warm across clones when the session's own
	// variables did not move.

	// ---- snapshot (read lock) ----
	oe.mu.RLock()
	snapshot := oe.a.Clone()
	others := oe.ledger.Clone()
	oe.mu.RUnlock()

	// ---- evaluate (no lock) ----
	be := oe.ev.BeginSession(snapshot, s, es)
	curLoad := es.CurLoad()
	others.RemoveSparse(curLoad)
	// The strict capacity check splits into a once-per-hop base-feasibility
	// scan plus an O(touched) check per candidate (see Ledger.FitsTouched).
	baseOK := others.Fits(nil)

	phiCur := be.Phi
	if oe.cfg.Noise != nil {
		phiCur = oe.cfg.Noise(phiCur)
	}
	scr.decisions = snapshot.AppendSessionNeighborDecisions(scr.decisions[:0], s)
	scr.ds = scr.ds[:0]
	scr.readings = scr.readings[:0]
	for _, d := range scr.decisions {
		inv, err := snapshot.Apply(d)
		if err != nil {
			return err
		}
		load := oe.ev.CandidateLoad(snapshot, s, es)
		if baseOK && others.FitsTouched(load) {
			if phi, ok := oe.ev.CandidatePhi(snapshot, s, d, es); ok {
				if oe.cfg.Noise != nil {
					phi = oe.cfg.Noise(phi)
				}
				scr.ds = append(scr.ds, d)
				scr.readings = append(scr.readings, phi)
			}
		}
		if _, err := snapshot.Apply(inv); err != nil {
			return err
		}
	}

	oe.statsMu.Lock()
	oe.hops++
	oe.statsMu.Unlock()
	if len(scr.ds) == 0 {
		return nil
	}

	halfBeta := 0.5 * oe.cfg.Beta * oe.cfg.ObjectiveScale
	maxExp := math.Inf(-1)
	for _, phi := range scr.readings {
		if e := halfBeta * (phiCur - phi); e > maxExp {
			maxExp = e
		}
	}
	total := 0.0
	scr.weights = scr.weights[:0]
	for _, phi := range scr.readings {
		w := math.Exp(halfBeta*(phiCur-phi) - maxExp)
		scr.weights = append(scr.weights, w)
		total += w
	}
	pick := rng.Float64() * total
	chosen := len(scr.ds) - 1
	acc := 0.0
	for i, w := range scr.weights {
		acc += w
		if pick < acc {
			chosen = i
			break
		}
	}
	d := scr.ds[chosen]

	// ---- commit (write lock, re-validate) ----
	oe.mu.Lock()
	defer oe.mu.Unlock()
	liveCur := oe.ev.SessionLoadSparse(oe.a, s, es)
	oe.ledger.RemoveSparse(liveCur)
	inv, err := oe.a.Apply(d)
	if err != nil {
		oe.ledger.AddSparse(liveCur)
		return err
	}
	newLoad := oe.ev.CandidateLoad(oe.a, s, es)
	if oe.ledger.Fits(newLoad) && cost.DelayFeasible(oe.a, s) {
		oe.ledger.AddSparse(newLoad)
		oe.statsMu.Lock()
		oe.moves++
		oe.statsMu.Unlock()
		return nil
	}
	// Conflict: another session consumed the capacity between snapshot and
	// commit. Abort and let the next countdown retry.
	if _, err := oe.a.Apply(inv); err != nil {
		return err
	}
	oe.ledger.AddSparse(liveCur)
	oe.statsMu.Lock()
	oe.aborts++
	oe.statsMu.Unlock()
	return nil
}

// Snapshot returns the current assignment and (hops, moves, aborts).
func (oe *OptimisticParallel) Snapshot() (*assign.Assignment, int, int, int) {
	oe.mu.RLock()
	a := oe.a.Clone()
	oe.mu.RUnlock()
	oe.statsMu.Lock()
	defer oe.statsMu.Unlock()
	return a, oe.hops, oe.moves, oe.aborts
}

// Report evaluates the current state system-wide.
func (oe *OptimisticParallel) Report() cost.SystemReport {
	a, _, _, _ := oe.Snapshot()
	return oe.ev.ReportSystem(a)
}
