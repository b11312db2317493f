package cost

import (
	"fmt"
	"iter"
	"slices"

	"vconf/internal/assign"
	"vconf/internal/model"
)

// This file implements delta cost evaluation: the objective Φ = Σ_s Φ_s
// decomposes by session, and Φ_s depends only on session s's own decision
// variables (§IV-A-2), so any single-variable change invalidates exactly one
// session. The ObjectiveCache exploits that to answer system-wide objective
// queries after a migration in O(1 touched session) instead of O(S) — the
// property the online orchestrator's hot path relies on.

// TouchedSession returns the unique session whose objective a decision can
// change: the session of the re-subscribed user (UserMove) or of the moved
// flow's endpoints (FlowMove). A flow whose destination is unknown, is its
// source, or sits in another session is an error.
func TouchedSession(sc *model.Scenario, d assign.Decision) (model.SessionID, error) {
	switch d.Kind {
	case assign.UserMove:
		if int(d.User) < 0 || int(d.User) >= sc.NumUsers() {
			return 0, fmt.Errorf("cost: touched session: unknown user %d", d.User)
		}
		return sc.User(d.User).Session, nil
	case assign.FlowMove:
		src, dst := d.Flow.Src, d.Flow.Dst
		if int(src) < 0 || int(src) >= sc.NumUsers() {
			return 0, fmt.Errorf("cost: touched session: unknown flow source %d", src)
		}
		if int(dst) < 0 || int(dst) >= sc.NumUsers() || dst == src || sc.User(dst).Session != sc.User(src).Session {
			return 0, fmt.Errorf("cost: touched session: flow %d→%d has no destination in its source's session", src, dst)
		}
		return sc.User(src).Session, nil
	default:
		return 0, fmt.Errorf("cost: touched session: invalid decision kind %d", d.Kind)
	}
}

// ObjectiveCache memoizes per-session objectives and loads for one evolving
// assignment. Sessions marked inactive contribute nothing; dirty sessions
// are recomputed lazily on the next query — through the sparse evaluation
// pipeline (an owned Scratch), so a refresh allocates nothing at steady
// state. Loads are kept at rest (packed, O(touched) bytes per session) and
// handed out through one view, see SessionLoad. Not safe for
// concurrent use — the orchestrator queries it only under its commit lock.
type ObjectiveCache struct {
	ev     *Evaluator
	phi    []float64
	load   []packedLoad
	dirty  []bool
	active []bool
	scr    *Scratch
	// view is the one SparseLoad SessionLoad unpacks into and returns.
	view SparseLoad

	// recomputes counts lazy per-session re-evaluations, so tests and
	// benchmarks can verify the delta path avoids full-scenario work.
	recomputes int
}

// NewObjectiveCache builds an empty cache (all sessions inactive).
func NewObjectiveCache(ev *Evaluator) *ObjectiveCache {
	n := ev.Scenario().NumSessions()
	return &ObjectiveCache{
		ev:     ev,
		phi:    make([]float64, n),
		load:   make([]packedLoad, n),
		dirty:  make([]bool, n),
		active: make([]bool, n),
		scr:    ev.NewScratch(),
		view:   *NewSparseLoad(ev.Scenario().NumAgents()),
	}
}

// SetActive marks session s active (participating in the total) or inactive.
// Activation marks the session dirty; deactivation clears the cached
// objective and empties the session's packed load, keeping its few records
// of capacity for a re-arrival. The view SessionLoad last returned is not
// touched: it holds its values until the next SessionLoad call, whatever
// happens to the session it was unpacked from.
func (c *ObjectiveCache) SetActive(s model.SessionID, on bool) {
	c.active[s] = on
	if on {
		c.dirty[s] = true
	} else {
		c.phi[s] = 0
		c.dirty[s] = false
		c.load[s].recs = c.load[s].recs[:0]
	}
}

// Active reports whether session s is active.
func (c *ObjectiveCache) Active(s model.SessionID) bool { return c.active[s] }

// SetDelayCacheEnabled toggles BeginSession's reuse on the cache's internal
// refresh scratch — a control plane replaying on the rebuild reference path
// turns it off here too, so every evaluation path it owns, refreshes
// included, rebuilds.
func (c *ObjectiveCache) SetDelayCacheEnabled(on bool) { c.scr.SetDelayCacheEnabled(on) }

// EachActive visits the active session IDs in ascending order without
// building a list; it reads the live flags as it goes.
func (c *ObjectiveCache) EachActive() iter.Seq[model.SessionID] {
	return func(yield func(model.SessionID) bool) {
		for s, on := range c.active {
			if on && !yield(model.SessionID(s)) {
				return
			}
		}
	}
}

// ActiveSessions returns a fresh list of the active session IDs in
// ascending order.
func (c *ObjectiveCache) ActiveSessions() []model.SessionID {
	return slices.Collect(c.EachActive())
}

// NumActive returns the number of active sessions.
func (c *ObjectiveCache) NumActive() int {
	n := 0
	for _, on := range c.active {
		if on {
			n++
		}
	}
	return n
}

// Invalidate marks session s dirty: its objective and load are recomputed on
// the next query. Call it after committing any decision touching s.
func (c *ObjectiveCache) Invalidate(s model.SessionID) {
	if c.active[s] {
		c.dirty[s] = true
	}
}

// refresh recomputes session s from the assignment if dirty, via the sparse
// pipeline: the scratch computes load and Φ_s, and the load is packed into
// the session's record (storage reused across refreshes).
func (c *ObjectiveCache) refresh(a *assign.Assignment, s model.SessionID) {
	if !c.dirty[s] {
		return
	}
	be := c.ev.BeginSession(a, s, c.scr)
	c.phi[s] = be.Phi
	c.load[s].pack(c.scr.CurLoad())
	c.dirty[s] = false
	c.recomputes++
}

// Prime installs a freshly evaluated objective and load for session s and
// marks it clean, without touching the assignment. The pipelined
// orchestrator's commit path feeds it from the committing worker's own
// BeginSession evaluation, so objective queries never recompute an
// in-flight session from the shared assignment. phi and load must describe
// s's committed state (they are bit-identical to what a refresh would
// compute, since Φ_s is a pure function of the session's variables).
// Inactive sessions are ignored.
func (c *ObjectiveCache) Prime(s model.SessionID, phi float64, load *SparseLoad) {
	if !c.active[s] {
		return
	}
	c.phi[s] = phi
	c.load[s].pack(load)
	c.dirty[s] = false
}

// SessionObjective returns Φ_s, recomputing only if s is dirty. Inactive
// sessions read as zero.
func (c *ObjectiveCache) SessionObjective(a *assign.Assignment, s model.SessionID) float64 {
	if !c.active[s] {
		return 0
	}
	c.refresh(a, s)
	return c.phi[s]
}

// SessionLoad returns session s's cached load (nil when inactive), unpacked
// into the cache's one view. Every call returns the same *SparseLoad
// and overwrites it: the result is valid until the next SessionLoad call on
// this cache, for any session — use or copy one session's load before asking
// for another's. Nothing else the cache does touches the view; callers must
// not mutate it.
func (c *ObjectiveCache) SessionLoad(a *assign.Assignment, s model.SessionID) *SparseLoad {
	if !c.active[s] {
		return nil
	}
	c.refresh(a, s)
	c.load[s].unpack(&c.view)
	return &c.view
}

// TotalObjective returns Σ over active sessions of Φ_s, recomputing only
// dirty entries.
func (c *ObjectiveCache) TotalObjective(a *assign.Assignment) float64 {
	total := 0.0
	for s, on := range c.active {
		if !on {
			continue
		}
		c.refresh(a, model.SessionID(s))
		total += c.phi[s]
	}
	return total
}

// Recomputes returns the cumulative count of per-session re-evaluations the
// cache has performed — the delta-evaluation cost meter.
func (c *ObjectiveCache) Recomputes() int { return c.recomputes }

// Clone returns a deep copy of the ledger, including usage vectors and any
// capacity scaling. Solver workers clone the shared ledger to evaluate hop
// candidates without holding the commit lock.
func (g *Ledger) Clone() *Ledger {
	out := &Ledger{
		sc:    g.sc,
		down:  append([]float64(nil), g.down...),
		up:    append([]float64(nil), g.up...),
		tasks: append([]int(nil), g.tasks...),
	}
	if g.scale != nil {
		out.scale = append([]float64(nil), g.scale...)
	}
	return out
}
