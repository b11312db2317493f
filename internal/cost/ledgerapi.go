package cost

import "vconf/internal/model"

// This file defines the capacity-ledger API surface and the agent-range
// primitives the sharded backend (internal/shard) is built from. Every
// range method is the exact restriction of its whole-fleet counterpart to
// agents in [lo, hi): per-agent updates and checks are independent, so a
// partition of the agent space into ranges reproduces the global operation
// bit for bit — the property the shard equivalence tests pin.

// LedgerAPI is the capacity-ledger surface solvers and control planes
// program against: accounting (constraints (5)–(7)), feasibility queries,
// and runtime capacity degradation. Two backends satisfy it:
//
//   - *Ledger (this package): one fleet-wide usage vector, single-owner, no
//     internal locking — the solver-engine and snapshot workhorse.
//   - *shard.Ledger: the same arithmetic behind P lock-striped ID-range
//     shards, safe for concurrent commit pipelines.
//
// Every method that takes a load takes its one form, *SparseLoad.
type LedgerAPI interface {
	// Add and Remove account a session load in and out.
	Add(sl *SparseLoad)
	Remove(sl *SparseLoad)
	// Fits reports whether the ledger plus the candidate respects every
	// capacity; nil checks the ledger alone.
	Fits(candidate *SparseLoad) bool
	// TryAdd atomically checks Fits(load) and, on success, accounts the
	// load — one critical section, so admissions racing concurrent commits
	// (the pipelined orchestrator) can never overshoot capacity the way a
	// separate Fits-then-Add could. Bootstrap policies must use it for
	// their final admission step.
	TryAdd(load *SparseLoad) bool
	// FitsTouched is the strict check restricted to the candidate's touched
	// agents (callers must guard a degraded background; see sparse.go).
	FitsTouched(candidate *SparseLoad) bool
	// Usage returns copies of the per-agent usage vectors; UsageAt reads one
	// agent's entries without copying the fleet.
	Usage() (down, up []float64, tasks []int)
	UsageAt(l model.AgentID) (down, up float64, tasks int)
	// SetCapacityScale degrades (or restores) one agent's capacities.
	SetCapacityScale(l model.AgentID, factor float64) error
}

// Compile-time check: the single-owner ledger satisfies the API.
var _ LedgerAPI = (*Ledger)(nil)

// TryAdd implements the atomic check-then-add admission. This ledger has no
// internal locking, so this is the two calls fused — kept on the interface
// so bootstrap code is backend-agnostic and the sharded backend can make the
// same step genuinely atomic.
func (g *Ledger) TryAdd(load *SparseLoad) bool {
	if !g.Fits(load) {
		return false
	}
	g.Add(load)
	return true
}

// Touched returns the indices of the agents the load touches, in insertion
// order. The slice is shared with the load: callers must not mutate it or
// retain it past the load's next mutation. The shard router uses it to map
// loads onto ID-range shards without copying.
func (sl *SparseLoad) Touched() []int32 { return sl.touched }

// NumAgents returns the agent-space dimension the load was sized for.
func (sl *SparseLoad) NumAgents() int { return len(sl.down) }

// AddRange accumulates the load's components on agents in [lo, hi) into the
// ledger — Add restricted to one shard's range. Each slot receives exactly
// the addition the unrestricted call would apply, so a partition of
// [0, NumAgents) reproduces Add bit for bit.
func (g *Ledger) AddRange(sl *SparseLoad, lo, hi int) {
	for _, l32 := range sl.touched {
		l := int(l32)
		if l < lo || l >= hi {
			continue
		}
		g.down[l] += sl.down[l]
		g.up[l] += sl.up[l]
		g.tasks[l] += sl.tasks[l]
	}
}

// RemoveRange subtracts the load's components on agents in [lo, hi).
func (g *Ledger) RemoveRange(sl *SparseLoad, lo, hi int) {
	for _, l32 := range sl.touched {
		l := int(l32)
		if l < lo || l >= hi {
			continue
		}
		g.down[l] -= sl.down[l]
		g.up[l] -= sl.up[l]
		g.tasks[l] -= sl.tasks[l]
	}
}

// RepairRefusalRange returns the first agent in [lo, hi) where replacing
// current with candidate fails FitsRepairDelta's condition, or -1 where none
// does: the condition is per agent, so the ranges of a partition of the
// agent space find no refusal exactly when FitsRepairDelta accepts.
func (g *Ledger) RepairRefusalRange(candidate, current *SparseLoad, lo, hi int) int {
	for _, l32 := range candidate.touched {
		l := int(l32)
		if l < lo || l >= hi {
			continue
		}
		if !g.fitsRepairAt(l, candidate.down[l], candidate.up[l], candidate.tasks[l],
			current.down[l], current.up[l], current.tasks[l]) {
			return l
		}
	}
	for _, l32 := range current.touched {
		l := int(l32)
		if l < lo || l >= hi || candidate.mark[l32] {
			continue
		}
		if !g.fitsRepairAt(l, 0, 0, 0, current.down[l], current.up[l], current.tasks[l]) {
			return l
		}
	}
	return -1
}

// CopyRangeFrom overwrites the [lo, hi) agent range of this ledger (usage
// and capacity scale) with src's. Both ledgers must be over the same
// scenario. Shard snapshots assemble a dense worker-local copy range by
// range, each under its shard's lock.
func (g *Ledger) CopyRangeFrom(src *Ledger, lo, hi int) {
	copy(g.down[lo:hi], src.down[lo:hi])
	copy(g.up[lo:hi], src.up[lo:hi])
	copy(g.tasks[lo:hi], src.tasks[lo:hi])
	switch {
	case src.scale == nil && g.scale == nil:
		// No degradation anywhere: nothing to copy.
	case src.scale == nil:
		for l := lo; l < hi; l++ {
			g.scale[l] = 1
		}
	default:
		if g.scale == nil {
			g.scale = make([]float64, g.sc.NumAgents())
			for i := range g.scale {
				g.scale[i] = 1
			}
		}
		copy(g.scale[lo:hi], src.scale[lo:hi])
	}
}
