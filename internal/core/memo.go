package core

import (
	"math"
	"slices"
	"sync/atomic"

	"vconf/internal/assign"
	"vconf/internal/cost"
	"vconf/internal/model"
)

// WalkMemo holds the candidate sets of states of one session, each keyed by
// the session's own decision variables — the member agents, then the flow
// agents — in a few arenas per memo (keys at a fixed stride, values end to
// end), with no per-state slice headers and nothing sized by the fleet.
//
// A memo has one of two owners. The hop scratch owns one that it empties
// when each walk starts, and keeps each state's candidate set as the hop
// uses it: the feasible decisions and their noiseless Φ. Capacity refusals
// in it hold only against the walk's own background. A host can give
// WalkSession a memo of its own (NewWalkMemo) that outlives the walk. That
// one keeps, per state, one Φ per neighbor in appendNeighbors order, NaN for
// a neighbor that is not a candidate, and no decisions: they are a pure
// function of the state and the candidate window, so a hit enumerates them
// again. It keeps only states whose every candidate fitted through the
// plain capacity branch, with their envelope — per agent, the largest down,
// up and tasks of any candidate's load — and each later walk keeps the
// states only if the envelope still fits its background
// (cost.Ledger.FitsEnvelope): Φ and delay feasibility are a pure function of
// the state, so a kept state prices exactly as a fresh evaluation would.
// Such a memo draws the bytes of its keys and Φs from a shared MemoBudget
// and, when the budget is spent, overwrites its own least recently used
// state.
type WalkMemo struct {
	k    int     // key length
	keys []int32 // state e's key: keys[e*k : (e+1)*k]
	// vals holds state e's values at vals[states[e-1].end : states[e].end]:
	// one Φ per neighbor (host-owned) or the feasible candidates' Φs,
	// aligned with ds (scratch-owned).
	vals   []float64
	ds     []assign.Decision
	states []memoState
	// env bounds the loads of every candidate of every state stored since
	// the memo was last emptied (host-owned memos only).
	env    []cost.EnvelopeAgent
	clock  uint32
	bytes  int64
	budget *MemoBudget
}

type memoState struct {
	end  int32  // end of the state's Φs in vals
	used uint32 // clock at the state's last use
}

// MemoBudget is the byte budget — 4 per key entry, 8 per Φ — that the
// memos drawing on it share. Safe for concurrent use.
type MemoBudget struct {
	Limit int64
	used  atomic.Int64
}

// Used returns the bytes the memos drawing on the budget hold.
func (b *MemoBudget) Used() int64 { return b.used.Load() }

// reserve adds n bytes to the budget's use and reports whether it did: a
// release (n ≤ 0) always, a growth only while the use is under the limit,
// so stores overshoot the limit by at most one state.
func (b *MemoBudget) reserve(n int64) bool {
	for {
		u := b.used.Load()
		if n > 0 && u >= b.Limit {
			return false
		}
		if b.used.CompareAndSwap(u, u+n) {
			return true
		}
	}
}

// walkMemoStates bounds the states a scratch-owned memo keeps in one walk,
// and with it the scratch memory a long walk can pin; later states are not
// kept.
const walkMemoStates = 64

// NewWalkMemo returns an empty memo that outlives walks, drawing its bytes
// from budget. Only one walk at a time may use it.
func NewWalkMemo(budget *MemoBudget) *WalkMemo { return &WalkMemo{budget: budget} }

// Bytes returns the bytes of keys and Φs the memo holds.
func (m *WalkMemo) Bytes() int64 { return m.bytes }

// Clear empties the memo and returns its bytes to its budget; a host-owned
// memo drops its storage too. A nil memo is empty.
func (m *WalkMemo) Clear() {
	switch {
	case m == nil:
	case m.budget != nil:
		m.budget.reserve(-m.bytes)
		*m = WalkMemo{budget: m.budget}
	default:
		m.keys, m.vals, m.ds, m.states = m.keys[:0], m.vals[:0], m.ds[:0], m.states[:0]
	}
}

// Restrict empties the memo unless covered holds for every agent of its
// envelope: a walk whose ledger is current only on some agents can certify
// nothing that reads the others.
func (m *WalkMemo) Restrict(covered func(model.AgentID) bool) {
	for _, e := range m.env {
		if !covered(model.AgentID(e.Agent)) {
			m.Clear()
			return
		}
	}
}

// lookup returns the values of the state keyed by key and, in a
// scratch-owned memo, its feasible decisions.
func (m *WalkMemo) lookup(key []int32) ([]float64, []assign.Decision, bool) {
	if m == nil || m.k != len(key) {
		return nil, nil, false
	}
	lo := int32(0)
	for e := range m.states {
		st := &m.states[e]
		if slices.Equal(m.keys[e*m.k:(e+1)*m.k], key) {
			m.clock++
			st.used = m.clock
			if m.budget != nil {
				return m.vals[lo:st.end], nil, true
			}
			return m.vals[lo:st.end], m.ds[lo:st.end], true
		}
		lo = st.end
	}
	return nil, nil, false
}

// keep makes the feasible candidates among decisions — vals holds one Φ per
// decision, NaN for a neighbor that is not a candidate — the candidate set
// of the state keyed by key in a scratch-owned memo, recorded while the
// memo holds fewer than walkMemoStates states, and returns it.
func (m *WalkMemo) keep(key []int32, decisions []assign.Decision, vals []float64) ([]assign.Decision, []float64) {
	lo := int32(0)
	if n := len(m.states); n > 0 {
		lo = m.states[n-1].end
	}
	m.ds, m.vals = m.ds[:lo], m.vals[:lo]
	for i, v := range vals {
		if !math.IsNaN(v) {
			m.ds = append(m.ds, decisions[i])
			m.vals = append(m.vals, v)
		}
	}
	if len(m.states) < walkMemoStates {
		m.k = len(key)
		m.keys = append(m.keys, key...)
		m.states = append(m.states, memoState{end: int32(len(m.vals))})
	}
	return m.ds[lo:], m.vals[lo:]
}

// store records a state in a host-owned memo and reports whether it did: as
// a new state while the budget has room, otherwise in place of the least
// recently used one.
func (m *WalkMemo) store(key []int32, vals []float64) bool {
	size := memoBytes(len(key), len(vals))
	if !m.budget.reserve(size) {
		return len(m.states) > 0 && m.replaceLRU(key, vals)
	}
	m.bytes += size
	m.k = len(key)
	m.keys = append(m.keys, key...)
	m.vals = append(m.vals, vals...)
	m.clock++
	m.states = append(m.states, memoState{end: int32(len(m.vals)), used: m.clock})
	return true
}

// roomy reports whether a host-owned memo could store a state now: while
// the budget has room, or in place of one of its own.
func (m *WalkMemo) roomy() bool {
	return m != nil && (len(m.states) > 0 || m.budget.Used() < m.budget.Limit)
}

// replaceLRU overwrites the least recently used state with (key, vals) if
// the budget covers any growth.
func (m *WalkMemo) replaceLRU(key []int32, vals []float64) bool {
	e := 0
	for i, st := range m.states {
		if st.used < m.states[e].used {
			e = i
		}
	}
	lo := int32(0)
	if e > 0 {
		lo = m.states[e-1].end
	}
	hi := m.states[e].end
	delta := memoBytes(0, len(vals)) - memoBytes(0, int(hi-lo))
	if !m.budget.reserve(delta) {
		return false
	}
	m.bytes += delta
	copy(m.keys[e*m.k:], key)
	m.vals = slices.Replace(m.vals, int(lo), int(hi), vals...)
	for i := e; i < len(m.states); i++ {
		m.states[i].end += int32(len(vals)) - (hi - lo)
	}
	m.clock++
	m.states[e].used = m.clock
	return true
}

func memoBytes(keys, vals int) int64 { return int64(4*keys + 8*vals) }

// widen raises the memo's envelope to cover env. at is a zeroed dense
// agent → index+1 map, zeroed again on return.
func (m *WalkMemo) widen(env []cost.EnvelopeAgent, at []int32) {
	for i, e := range m.env {
		at[e.Agent] = int32(i + 1)
	}
	for _, e := range env {
		i := at[e.Agent] - 1
		if i < 0 {
			m.env = append(m.env, cost.EnvelopeAgent{Agent: e.Agent})
			i = int32(len(m.env) - 1)
			at[e.Agent] = i + 1
		}
		m.env[i].Raise(float64(e.Down), float64(e.Up), int(e.Tasks))
	}
	for _, e := range m.env {
		at[e.Agent] = 0
	}
}

// appendKey appends the memo key of session s's state in a: the member
// agents, then the flow agents.
func appendKey(dst []int32, a *assign.Assignment, s model.SessionID) []int32 {
	for _, u := range a.Scenario().Session(s).Users {
		dst = append(dst, int32(a.UserAgent(u)))
	}
	for _, l := range a.SessionFlowAgents(s) {
		dst = append(dst, int32(l))
	}
	return dst
}
