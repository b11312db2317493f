package core

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"vconf/internal/assign"
	"vconf/internal/cost"
	"vconf/internal/model"
)

// Parallel runs Alg. 1 with one goroutine per session, realizing the
// decentralized deployment of §IV-A: each session's agent independently runs
// WAIT (exponential countdown) and HOP, and hops are serialized by the
// FREEZE/UNFREEZE protocol. In the paper the FREEZE message is an
// intra-cloud broadcast among synchronized agents; here the shared hop lock
// plays that role — a session holding it has frozen every other session's
// migration, exactly the mutual exclusion the broadcast establishes.
//
// The virtual Engine is the deterministic tool for experiments; Parallel
// exists to exercise (and test) the concurrent protocol itself.
type Parallel struct {
	ev  *cost.Evaluator
	cfg Config
	// TimeScale compresses virtual seconds into wall time: a countdown of
	// c virtual seconds sleeps c×TimeScale of wall time. Defaults to 1 ms
	// per virtual second, letting tests run 200 "seconds" in 200 ms.
	TimeScale time.Duration

	mu     sync.Mutex // the FREEZE lock: held for the duration of one HOP
	a      *assign.Assignment
	ledger *cost.Ledger
	hops   int
	moves  int
}

// NewParallel builds the concurrent engine with an already-bootstrapped
// assignment (every session that should participate must be complete).
func NewParallel(ev *cost.Evaluator, cfg Config, a *assign.Assignment) (*Parallel, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	for s := 0; s < ev.Scenario().NumSessions(); s++ {
		if !a.SessionComplete(model.SessionID(s)) {
			return nil, fmt.Errorf("core: parallel engine needs a complete assignment; session %d is not", s)
		}
	}
	return &Parallel{
		ev:        ev,
		cfg:       cfg,
		TimeScale: time.Millisecond,
		a:         a.Clone(),
		ledger:    ev.Params().LedgerOf(a),
	}, nil
}

// Run launches one goroutine per session and lets the chains run until the
// context is cancelled or wall time d elapses. It blocks until every session
// goroutine has exited.
func (pe *Parallel) Run(ctx context.Context, d time.Duration) error {
	runCtx, cancel := context.WithTimeout(ctx, d)
	defer cancel()

	sc := pe.ev.Scenario()
	var wg sync.WaitGroup
	errs := make(chan error, sc.NumSessions())
	for s := 0; s < sc.NumSessions(); s++ {
		sid := model.SessionID(s)
		// Independent per-session randomness, deterministically seeded.
		rng := rand.New(rand.NewSource(pe.cfg.Seed + int64(s)*7919))
		wg.Add(1)
		go func() {
			defer wg.Done()
			pe.runSession(runCtx, sid, rng, errs)
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

// runSession is the per-session WAIT/HOP loop (Alg. 1 lines 1–8). Each
// session goroutine owns one hop scratch, so concurrent chains share no
// evaluation buffers.
func (pe *Parallel) runSession(ctx context.Context, s model.SessionID, rng *rand.Rand, errs chan<- error) {
	scr := NewHopScratch(pe.ev)
	for {
		// WAIT: exponential countdown with mean 1/τ. Receiving FREEZE pauses
		// the countdown in the paper; with a lock, the pause materializes as
		// blocking on acquisition below, which is stochastically equivalent
		// for exponential (memoryless) countdowns.
		wait := time.Duration(rng.ExpFloat64() * pe.cfg.MeanCountdownS * float64(pe.TimeScale))
		timer := time.NewTimer(wait)
		select {
		case <-ctx.Done():
			timer.Stop()
			return
		case <-timer.C:
		}

		// HOP under FREEZE.
		pe.mu.Lock()
		res, err := HopSessionWith(pe.a, s, pe.ev, pe.ledger, pe.cfg, rng, scr)
		if err == nil {
			pe.hops++
			if res.Moved {
				pe.moves++
			}
		}
		pe.mu.Unlock()
		if err != nil {
			select {
			case errs <- fmt.Errorf("core: parallel hop session %d: %w", s, err):
			default:
			}
			return
		}
	}
}

// Snapshot returns the current assignment (deep copy) and hop counters.
func (pe *Parallel) Snapshot() (*assign.Assignment, int, int) {
	pe.mu.Lock()
	defer pe.mu.Unlock()
	return pe.a.Clone(), pe.hops, pe.moves
}

// Report evaluates the current state system-wide.
func (pe *Parallel) Report() cost.SystemReport {
	a, _, _ := pe.Snapshot()
	return pe.ev.ReportSystem(a)
}
