package cost

// This file implements the persistent per-session delay cache: the warm-hop
// complement of sparse.go's per-candidate delta evaluation. Without it,
// every BeginSession rebuilds the session's full n×n per-flow delay base —
// the one remaining O(n²) flow-delay term in an otherwise O(moved-flows)
// hop pipeline. The cache retains each session's delay matrix, decision
// signature, load and summary between hops, so a warm BeginSession patches
// only the rows/columns invalidated by decisions committed since the last
// hop and is O(moved flows).
//
// Staleness contract (what makes warm reuse exact): a session's delay
// matrix is a pure function of the session's OWN decision variables — the
// member subscriptions λ_u and the session's transcoding-flow placements
// γ_f — plus immutable scenario data (H, D, σ, θ, representations). No
// other session's variables and no capacity state enter a flow's delay. Each
// cache entry therefore records the variable values it was computed from
// (the signature); BeginSession diffs the signature against the live
// assignment and recomputes exactly the entries whose endpoints moved:
//
//   - a changed member subscription invalidates that member's row and
//     column (2(n−1) flows, the same set CandidatePhi patches for a
//     UserMove);
//   - a changed flow placement invalidates one entry;
//   - an unchanged signature means the matrix, the session load, Φ_s and
//     the delay summary are all bitwise-unchanged and are reused outright.
//
// Every committed decision — a hop migration, an orchestrator commit, a
// bootstrap, a departure's teardown — changes the session's variables and
// is therefore picked up by the signature diff on the next BeginSession,
// regardless of which code path wrote the assignment. Explicit
// invalidation (Invalidate) exists for the state transitions where
// patching is pointless because everything changed: session departure and
// re-arrival (the engines and the orchestrator invalidate there, under
// their existing state locks), and scenario rebinding (Scratch.Ensure
// drops the cache wholesale). A cold or invalidated entry falls back to
// the full rebuild, which is kept verbatim (and selectable per scratch via
// Scratch.SetDelayCacheEnabled for differential testing).
//
// Exactness: patched entries are recomputed by the same pure flowDelay
// (FlowDelayMS read through the scenario's compiled plan) on the same
// inputs a full rebuild would use, unchanged entries are
// unchanged bits, and the summary/objective recomputations run the exact
// code and order of the rebuild path — so the warm path is bit-identical
// to the rebuild path. The differential tests in internal/core and
// internal/orchestrator replay whole runs under both settings.
//
// A DelayCache is private to its Scratch (one per worker goroutine); it is
// not safe for concurrent use and needs no locking.
//
// What a departed session still pins: the orchestrator invalidates the
// commit scratch's and the objective cache's entries on departure, but a
// worker's cache is private to a goroutine it does not own, so that entry
// stays — base n², n maxima, two signatures, a packed load (32 B per touched
// agent, nothing sized by the fleet): well under 1 kB. It is left to
// re-validation on purpose: when the session ID recurs, the signature diff
// brings the same storage up to date without an allocation.

import (
	"vconf/internal/model"
)

// delayEntry is one session's retained delay state.
type delayEntry struct {
	// valid marks the entry warm. Invalid entries full-rebuild on the next
	// BeginSession.
	valid bool
	// base is the session's n×n per-flow delay matrix (row = source member
	// index), exactly as BeginSession fills it.
	base []float64
	// userMax[j] is member j's maximum incoming delay in base — the column
	// maxima CandidatePhi updates per candidate instead of rescanning.
	userMax []float64
	// userSig[i] is the agent member i subscribed to when base was last
	// synchronized; flowSig[k] is the transcoding agent of the session's
	// k-th flow (aligned with assign.SessionFlowsShared). Together they
	// are the complete decision state the matrix was computed from.
	userSig []model.AgentID
	flowSig []model.AgentID
	// load, phi, mean and worst capture the rest of the BeginSession
	// output at the signature state, reused outright on an unchanged
	// signature. The load is kept at rest (packed) and unpacked into the
	// scratch's CurLoad on a hit.
	load  packedLoad
	phi   float64
	mean  float64
	worst float64
}

// DelayCache retains per-session delay-evaluation state across hops for
// one Scratch. Entries are allocated lazily on first evaluation of a
// session; steady-state warm evaluations allocate nothing.
type DelayCache struct {
	sc  *model.Scenario
	ent []delayEntry

	hits     int // warm evaluations with an unchanged signature
	patches  int // warm evaluations that recomputed ≥1 moved flow
	rebuilds int // cold evaluations (first touch or invalidated)
}

// NewDelayCache builds an empty cache over the scenario's session set.
func NewDelayCache(sc *model.Scenario) *DelayCache {
	return &DelayCache{sc: sc, ent: make([]delayEntry, sc.NumSessions())}
}

// Invalidate marks session s's entry cold and releases its buffers: the
// next BeginSession performs a full delay-base rebuild into fresh storage.
// Call it when the session's variables are torn down or rebuilt wholesale
// (departure, re-arrival bootstrap) — patching a fully-changed matrix
// costs more than rebuilding it, and releasing keeps long-running churny
// control planes from pinning per-session matrices, signatures and packed
// loads for sessions that left.
func (dc *DelayCache) Invalidate(s model.SessionID) {
	if int(s) >= 0 && int(s) < len(dc.ent) {
		dc.ent[s] = delayEntry{}
	}
}

// Hits returns the count of warm evaluations that reused the entry with an
// unchanged signature (no flow recomputed).
func (dc *DelayCache) Hits() int { return dc.hits }

// Patches returns the count of warm evaluations that recomputed at least
// one moved flow.
func (dc *DelayCache) Patches() int { return dc.patches }

// Rebuilds returns the count of cold evaluations (full delay-base
// rebuilds).
func (dc *DelayCache) Rebuilds() int { return dc.rebuilds }
