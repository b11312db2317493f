// Package shard implements the lock-striped concurrent capacity ledger: the
// fleet's per-agent down/up/task usage partitioned into P deterministic
// ID-range shards, each guarding its slice behind its own lock, with a
// commit pipeline that lets proposals touching disjoint shards proceed
// fully in parallel.
//
// The paper's control plane decomposes by session (Φ = Σ_s Φ_s), so the
// only cross-session coupling is capacity — constraints (5)–(7) sum session
// loads per agent. A single-variable migration touches O(session) agents,
// not the fleet, which makes capacity state an ideal candidate for
// striping: route the proposal's touched-agent set to the shards it
// intersects, lock those shards in canonical (ascending) order, re-validate
// with the exact per-shard restriction of cost.FitsRepairDelta, and apply
// or reject atomically. Related systems scale conferencing control planes
// exactly this way — vSkyConf distributes surrogate placement so no
// coordinator owns global state; Celerity's rate control is fully
// decentralized — and the same holds here: nothing in the commit path ever
// takes a fleet-wide lock.
//
// Pipeline (one commit):
//
//  1. Route: map the union of the candidate and current loads' touched
//     agents (cost.SparseLoad.Touched) onto shard indices — O(touched).
//  2. Lock: acquire the routed shards' locks in ascending shard order.
//     Every committer uses the same canonical order, so the pipeline is
//     deadlock-free by construction.
//  3. Validate: per routed shard, check the exact range restriction of
//     FitsRepairDelta against the *live* usage (not the snapshot the
//     proposal was evaluated on).
//  4. Apply or reject: on success swap current → candidate load and bump
//     the routed shards' epochs; on failure restore and report whether the
//     snapshot was stale (Conflict — retry with a fresh snapshot) or the
//     proposal genuinely does not fit (Infeasible — drop it).
//
// Workers evaluate proposals against epoch-stamped snapshots
// (SnapshotInto): each shard's range is copied under that shard's lock and
// stamped with its epoch. Snapshots are per-shard consistent but may tear
// across shards; commit-time validation is what guarantees safety, the
// epochs only classify rejections. With P = 1 the pipeline degenerates to
// exactly the single global lock — same arithmetic, same operation order —
// which the equivalence tests pin bit for bit.
//
// All float arithmetic lives in internal/cost range primitives
// (AddRange, RepairRefusalRange, ...); this package contributes
// only routing, locking, and epochs, so sharded and dense results are
// bit-identical by construction.
package shard

import (
	"fmt"
	"sync"

	"vconf/internal/cost"
	"vconf/internal/model"
)

// CommitResult classifies the outcome of one commit attempt.
type CommitResult int

const (
	// Committed: validation passed, the ledger now holds the candidate load.
	Committed CommitResult = iota + 1
	// Conflict: validation failed and at least one routed shard's epoch
	// moved since the caller's snapshot — the proposal was built on stale
	// residual capacities. Retry against a fresh snapshot.
	Conflict
	// Infeasible: validation failed with every routed shard unchanged since
	// the snapshot — the proposal does not fit current state and a retry
	// from the same state cannot help.
	Infeasible
)

// String implements fmt.Stringer.
func (r CommitResult) String() string {
	switch r {
	case Committed:
		return "committed"
	case Conflict:
		return "conflict"
	case Infeasible:
		return "infeasible"
	default:
		return fmt.Sprintf("CommitResult(%d)", int(r))
	}
}

// Epochs records per-shard epoch counters observed at snapshot time.
type Epochs []uint64

// Route is a reusable touched-shard set. Callers on the commit hot path
// keep one per worker so routing allocates nothing at steady state.
type Route struct {
	mark []bool
	list []int32
}

// reset prepares the route for a ledger with p shards.
func (r *Route) reset(p int) {
	if len(r.mark) != p {
		r.mark = make([]bool, p)
		r.list = make([]int32, 0, p)
	}
	for _, s := range r.list {
		r.mark[s] = false
	}
	r.list = r.list[:0]
}

func (r *Route) add(s int32) {
	if !r.mark[s] {
		r.mark[s] = true
		r.list = append(r.list, s)
	}
}

// sort orders the routed shards ascending — the canonical lock order.
// Insertion sort: routes are a handful of entries.
func (r *Route) sort() {
	t := r.list
	for i := 1; i < len(t); i++ {
		for j := i; j > 0 && t[j-1] > t[j]; j-- {
			t[j-1], t[j] = t[j], t[j-1]
		}
	}
}

// pad keeps each shard's lock and epoch on its own cache line so
// uncontended commits on neighboring shards do not false-share.
type shardState struct {
	mu    sync.Mutex
	epoch uint64
	_     [48]byte
}

// Ledger is the lock-striped capacity ledger. The usage arithmetic lives in
// an inner dense cost.Ledger; shard i exclusively guards the agent ID range
// [bounds[i], bounds[i+1]), so concurrent range operations under distinct
// shard locks never touch the same agent slot.
//
// It satisfies cost.LedgerAPI: those whole-fleet convenience methods lock
// every shard in canonical order and delegate — control-plane rate
// (bootstrap, departures, invariant checks). The concurrent hot path is
// SnapshotInto + CommitDelta.
type Ledger struct {
	inner   *cost.Ledger
	sc      *model.Scenario
	shards  []shardState
	bounds  []int32 // len P+1; shard i covers [bounds[i], bounds[i+1])
	shardOf []int32 // agent → shard index
}

// Compile-time check: the sharded ledger satisfies the same API as the
// dense one.
var _ cost.LedgerAPI = (*Ledger)(nil)

// New creates an empty sharded ledger with p ID-range shards over the
// scenario's agents. p is clamped to [1, NumAgents]; ranges are balanced
// (⌈L/p⌉ or ⌊L/p⌋ agents each) and deterministic in (L, p).
func New(sc *model.Scenario, p int) *Ledger {
	l := sc.NumAgents()
	if p < 1 {
		p = 1
	}
	if p > l {
		p = l
	}
	sl := &Ledger{
		inner:   cost.NewLedger(sc),
		sc:      sc,
		shards:  make([]shardState, p),
		bounds:  make([]int32, p+1),
		shardOf: make([]int32, l),
	}
	// Pre-allocate the scale array so a mid-run SetCapacityScale (fault
	// injection) under one stripe lock never races readers under other
	// stripes' locks on the lazy slice-header publication.
	sl.inner.EnsureScale()
	for i := 0; i <= p; i++ {
		sl.bounds[i] = int32(i * l / p)
	}
	for i := 0; i < p; i++ {
		for a := sl.bounds[i]; a < sl.bounds[i+1]; a++ {
			sl.shardOf[a] = int32(i)
		}
	}
	return sl
}

// NumShards returns the shard count P.
func (sl *Ledger) NumShards() int { return len(sl.shards) }

// lockAll acquires every shard lock in canonical order.
func (sl *Ledger) lockAll() {
	for i := range sl.shards {
		sl.shards[i].mu.Lock()
	}
}

func (sl *Ledger) unlockAll() {
	for i := range sl.shards {
		sl.shards[i].mu.Unlock()
	}
}

// bumpAll advances every shard's epoch (callers hold all locks).
func (sl *Ledger) bumpAll() {
	for i := range sl.shards {
		sl.shards[i].epoch++
	}
}

// ---------------------------------------------------------------------------
// cost.LedgerAPI: whole-fleet convenience surface (lock-all + delegate)

// Add accounts a session load in, bumping only the shards it touches.
func (sl *Ledger) Add(load *cost.SparseLoad) {
	var r Route
	r.reset(len(sl.shards))
	sl.route(&r, load, nil)
	sl.lockRoute(&r)
	for _, si := range r.list {
		sl.inner.AddRange(load, int(sl.bounds[si]), int(sl.bounds[si+1]))
		sl.shards[si].epoch++
	}
	sl.unlockRoute(&r)
}

// Remove accounts a session load out (departure path).
func (sl *Ledger) Remove(load *cost.SparseLoad) {
	var r Route
	r.reset(len(sl.shards))
	sl.route(&r, load, nil)
	sl.lockRoute(&r)
	for _, si := range r.list {
		sl.inner.RemoveRange(load, int(sl.bounds[si]), int(sl.bounds[si+1]))
		sl.shards[si].epoch++
	}
	sl.unlockRoute(&r)
}

// Fits reports whether the ledger plus the candidate respects every
// capacity (nil checks the ledger alone).
func (sl *Ledger) Fits(candidate *cost.SparseLoad) bool {
	sl.lockAll()
	defer sl.unlockAll()
	return sl.inner.Fits(candidate)
}

// TryAdd atomically checks Fits(load) and accounts the load on success:
// every stripe lock is held across check and add, so a concurrent
// CommitDelta cannot interleave between them — the admission primitive
// that keeps pipelined-mode bootstraps from overshooting capacity.
func (sl *Ledger) TryAdd(load *cost.SparseLoad) bool {
	sl.lockAll()
	defer sl.unlockAll()
	if !sl.inner.Fits(load) {
		return false
	}
	sl.inner.Add(load)
	sl.bumpAll()
	return true
}

// FitsTouched is the strict capacity check over the candidate's touched
// agents.
func (sl *Ledger) FitsTouched(candidate *cost.SparseLoad) bool {
	sl.lockAll()
	defer sl.unlockAll()
	return sl.inner.FitsTouched(candidate)
}

// Violations lists agents over their (scaled) capacity.
func (sl *Ledger) Violations() []model.AgentID {
	sl.lockAll()
	defer sl.unlockAll()
	return sl.inner.Violations()
}

// Usage returns copies of the per-agent usage vectors.
func (sl *Ledger) Usage() (down, up []float64, tasks []int) {
	sl.lockAll()
	defer sl.unlockAll()
	return sl.inner.Usage()
}

// UsageAt returns agent l's accounted usage, read under its stripe's lock.
func (sl *Ledger) UsageAt(l model.AgentID) (down, up float64, tasks int) {
	mu := &sl.shards[sl.shardOf[l]].mu
	mu.Lock()
	defer mu.Unlock()
	return sl.inner.UsageAt(l)
}

// SetCapacityScale degrades (or restores) one agent's capacities.
func (sl *Ledger) SetCapacityScale(l model.AgentID, factor float64) error {
	if int(l) < 0 || int(l) >= len(sl.shardOf) {
		return fmt.Errorf("shard: unknown agent %d", l)
	}
	si := sl.shardOf[l]
	sl.shards[si].mu.Lock()
	defer sl.shards[si].mu.Unlock()
	err := sl.inner.SetCapacityScale(l, factor)
	if err == nil {
		sl.shards[si].epoch++
	}
	return err
}

// ---------------------------------------------------------------------------
// Concurrent commit pipeline

// route marks the shards the loads' touched agents fall in (b may be nil).
func (sl *Ledger) route(r *Route, a, b *cost.SparseLoad) {
	for _, l := range a.Touched() {
		r.add(sl.shardOf[l])
	}
	if b != nil {
		for _, l := range b.Touched() {
			r.add(sl.shardOf[l])
		}
	}
	r.sort()
}

func (sl *Ledger) lockRoute(r *Route) {
	for _, si := range r.list {
		sl.shards[si].mu.Lock()
	}
}

func (sl *Ledger) unlockRoute(r *Route) {
	for _, si := range r.list {
		sl.shards[si].mu.Unlock()
	}
}

// SnapshotInto copies the ledger's current state into the caller-owned
// dense ledger and returns the per-shard epochs observed while copying,
// appended to epochs (pass epochs[:0] to reuse the backing array; entry i
// is shard i's epoch). Each shard's range is copied under that shard's
// lock, so the snapshot is consistent per shard but may tear across shards
// under concurrent commits; CommitDelta's validation makes that safe, and
// the epochs let it tell a stale snapshot (Conflict) from a genuine
// capacity miss (Infeasible). Allocation-free once epochs has capacity P.
func (sl *Ledger) SnapshotInto(dst *cost.Ledger, epochs Epochs) Epochs {
	for i := range sl.shards {
		sh := &sl.shards[i]
		sh.mu.Lock()
		dst.CopyRangeFrom(sl.inner, int(sl.bounds[i]), int(sl.bounds[i+1]))
		epochs = append(epochs, sh.epoch)
		sh.mu.Unlock()
	}
	return epochs
}

// RouteAgents adds the shards covering the given agents to the route (call
// route.reset-equivalent ResetRoute first; Finish sorts). Proposal workers
// use it to describe the agent set their walk can read — current session
// agents plus every candidate-window agent — before a partial snapshot.
func (sl *Ledger) RouteAgents(r *Route, agents []model.AgentID) {
	if len(r.mark) != len(sl.shards) {
		r.reset(len(sl.shards))
	}
	for _, l := range agents {
		r.add(sl.shardOf[l])
	}
}

// ResetRoute clears a route for this ledger's shard count.
func (sl *Ledger) ResetRoute(r *Route) { r.reset(len(sl.shards)) }

// SnapshotRoute is SnapshotInto restricted to the routed shards: only
// their agent ranges are copied (under each shard's lock) and only their
// entries in the returned full-length epoch vector are meaningful. Ranges
// outside the route keep whatever dst held before — callers must ensure
// their walk reads only routed agents (the candidate-window discipline),
// which also guarantees a later CommitDelta routes within this set. Cuts
// per-proposal snapshot cost from O(fleet) to O(routed ranges) — the
// difference between a fleet-sized and a session-sized cost on large
// fleets. epochs is resized to P; pass the previous buffer to reuse it.
func (sl *Ledger) SnapshotRoute(dst *cost.Ledger, epochs Epochs, r *Route) Epochs {
	r.sort()
	if cap(epochs) < len(sl.shards) {
		epochs = make(Epochs, len(sl.shards))
	}
	epochs = epochs[:len(sl.shards)]
	for _, si := range r.list {
		sh := &sl.shards[si]
		sh.mu.Lock()
		dst.CopyRangeFrom(sl.inner, int(sl.bounds[si]), int(sl.bounds[si+1]))
		epochs[si] = sh.epoch
		sh.mu.Unlock()
	}
	return epochs
}

// CommitDelta atomically replaces a session's current load with the
// candidate: route both loads to their shards, lock those shards in
// canonical order, re-validate the per-shard FitsRepairDelta restriction
// against live usage, and apply (bumping routed epochs) or restore. snap
// must be the Epochs returned by the SnapshotInto the proposal was
// evaluated against; route is the caller's reusable routing buffer. The
// call is allocation-free at steady state.
//
// Commits whose routes do not intersect hold disjoint lock sets and
// therefore proceed fully in parallel.
func (sl *Ledger) CommitDelta(candidate, current *cost.SparseLoad, snap Epochs, route *Route) CommitResult {
	route.reset(len(sl.shards))
	sl.route(route, candidate, current)
	sl.lockRoute(route)

	stale := false
	for _, si := range route.list {
		if sl.shards[si].epoch != snap[si] {
			stale = true
			break
		}
	}

	// Same operation order as the single-lock path: withdraw the current
	// load, check repair feasibility of the replacement, then apply or
	// restore — restricted per shard, which is exact (see internal/cost).
	for _, si := range route.list {
		sl.inner.RemoveRange(current, int(sl.bounds[si]), int(sl.bounds[si+1]))
	}
	ok := true
	for _, si := range route.list {
		if sl.inner.RepairRefusalRange(candidate, current, int(sl.bounds[si]), int(sl.bounds[si+1])) >= 0 {
			ok = false
			break
		}
	}
	if ok {
		for _, si := range route.list {
			sl.inner.AddRange(candidate, int(sl.bounds[si]), int(sl.bounds[si+1]))
			sl.shards[si].epoch++
		}
	} else {
		for _, si := range route.list {
			sl.inner.AddRange(current, int(sl.bounds[si]), int(sl.bounds[si+1]))
		}
	}
	sl.unlockRoute(route)

	switch {
	case ok:
		return Committed
	case stale:
		return Conflict
	default:
		return Infeasible
	}
}
