package core

import (
	"math"
	"slices"
	"sync"

	"vconf/internal/assign"
	"vconf/internal/cost"
	"vconf/internal/model"
)

// walkMemo holds the states one walk has been in, emptied when each walk
// starts: per state its key — the session's own decision variables, the
// member agents, then the flow agents — and its candidate set as the hop
// uses it, the feasible decisions and their noiseless Φ, in a few arenas
// (keys at a fixed stride, candidates end to end), with no per-state slice
// headers and nothing sized by the fleet. A capacity refusal in it holds
// only against the walk's own background.
//
// It stays beside MemoTable for the states the table cannot certify, with a
// neighbor refused by a healthy agent. On one 2 s battery pass per workload
// (seed 1) the table held every walk-memo hit on steady_regional and
// wide_diurnal and 362 469 of 362 553 on chaos_heavy, but 25 740 of 39 022
// on big_sessions, whose 53.2k pricings would grow by about 13.3k (+25 %)
// without it.
type walkMemo struct {
	// keys holds state e's key at keys[e*k : (e+1)*k], k the key length: a
	// walk has one session, so all its keys have one length.
	keys []int32
	// ends[e] ends state e's candidates in vals and ds, which start where
	// state e-1's end.
	ends []int32
	vals []float64
	ds   []assign.Decision
}

// walkMemoStates bounds the states a walk's memo keeps, and with it the
// scratch memory a long walk can pin; later states are not kept.
const walkMemoStates = 64

func (m *walkMemo) clear() {
	m.keys, m.ends, m.vals, m.ds = m.keys[:0], m.ends[:0], m.vals[:0], m.ds[:0]
}

// lookup returns the candidate set of the state keyed by key.
func (m *walkMemo) lookup(key []int32) ([]float64, []assign.Decision, bool) {
	lo, k := int32(0), len(key)
	for e, hi := range m.ends {
		if slices.Equal(m.keys[e*k:(e+1)*k], key) {
			return m.vals[lo:hi], m.ds[lo:hi], true
		}
		lo = hi
	}
	return nil, nil, false
}

// keep makes the feasible candidates among decisions — vals holds one Φ per
// decision, NaN for a neighbor that is not a candidate — the candidate set
// of the state keyed by key, recorded while the memo holds fewer than
// walkMemoStates states, and returns it.
func (m *walkMemo) keep(key []int32, decisions []assign.Decision, vals []float64) ([]assign.Decision, []float64) {
	lo := int32(0)
	if n := len(m.ends); n > 0 {
		lo = m.ends[n-1]
	}
	m.ds, m.vals = m.ds[:lo], m.vals[:lo]
	for i, v := range vals {
		if !math.IsNaN(v) {
			m.ds = append(m.ds, decisions[i])
			m.vals = append(m.vals, v)
		}
	}
	if len(m.ends) < walkMemoStates {
		m.keys = append(m.keys, key...)
		m.ends = append(m.ends, int32(len(m.vals)))
	}
	return m.ds[lo:], m.vals[lo:]
}

// MemoTable holds the candidate sets that outlive their walk, for every
// session of one host: per state, one noiseless Φ per neighbor in
// appendNeighbors order, NaN for a neighbor that is not a candidate, and no
// decisions — a pure function of the state and the candidate window, which
// a hit enumerates again. A table serves one evaluator and one window.
//
// A state is stored only with price's certificate: the envelope of its
// candidates' loads fits, and each neighbor refused for capacity was
// refused by a degraded agent (a capacity fault, which outlasts walks) and
// left a witness (cost.Refusal) of it there. A session keeps the
// envelope and the distinct witnesses of what it stored, and a generation;
// a state is keyed by (session, generation, member agents, flow agents),
// and a lookup compares the whole key. Each walk checks the certificate
// once, right after taking the session's own load out: unless the envelope
// fits and every witness still refuses, the session moves to a new
// generation with an empty certificate, orphaning all its states at once.
// The check is exact: where the envelope fits, every stored candidate
// fits; the repair check is an AND over agents, so a witness that still
// refuses gives the NaN a fresh evaluation would; Φ and delay feasibility
// are a pure function of the state. A departure drops nothing: a
// re-arrival's first walk checks the certificate like any other. A walk's
// ledger need be current only where its reachable states' candidates read,
// in the members' windows and under the session's members and flows (as a
// route's snapshot is): a stale value elsewhere can fail the check, costing
// reuse, or pass it, serving no state that reads it.
//
// The states lie end to end in a ring of words, found through chains of an
// index, one per eight words, that a hash of the key picks. Ring and index
// grow together, never past the table's byte limit. Once the ring is full,
// the oldest state makes room, unless a lookup has used it since it was
// written: then it is written again at the head (second chance). Safe for
// concurrent use by walks of different sessions, one walk per session at a
// time.
type MemoTable struct {
	// mu guards the ring and the index. A session's generation and
	// certificate belong to the walk that owns the session.
	mu sync.Mutex
	// ring holds the states from tail to head, wrapping at wrap when
	// wrapped, and grows to at most most words; index[i] is 1 + the ring
	// offset of the first state of chain i, 0 for none.
	ring                   []uint64
	index                  []int32
	tail, head, wrap, most int
	wrapped                bool
	sess                   []memoSession
	kw                     []uint64 // the key being looked up or stored, packed
	collide                bool     // test hook: every state hashes to chain 0
}

// A state is memoHeader words — its size << 32 | 1 + the ring offset of the
// next state of its chain (0: none); its session << 32 | its key length << 1
// | a used mark; its generation — then its key two entries to a word, then
// its Φs.
const memoHeader = 3

// memoSession is one session's certificate: the generation its states are
// keyed by, and the envelope and witnesses of the states stored under it.
type memoSession struct {
	gen uint64
	env []cost.EnvelopeAgent
	wit []cost.Refusal
}

// NewMemoTable returns an empty table for sessions 0 … sessions−1 whose ring
// and index never allocate more than limit bytes (at least a kilobyte)
// between them.
func NewMemoTable(limit, sessions int) *MemoTable {
	return &MemoTable{most: 2 * limit / 17, sess: make([]memoSession, sessions)}
}

// Bytes returns the bytes the table's ring and index have allocated.
func (t *MemoTable) Bytes() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return 8*cap(t.ring) + 4*cap(t.index)
}

// Witnesses returns the most witnesses one session holds and how many the
// sessions' lists, which Bytes leaves out, have room for.
func (t *MemoTable) Witnesses() (most, room int) {
	for _, ms := range t.sess {
		most, room = max(most, len(ms.wit)), room+cap(ms.wit)
	}
	return most, room
}

// check moves session s to a new generation with an empty certificate,
// which orphans all its states, unless its envelope fits the ledger and
// each of its witnesses still refuses there.
func (t *MemoTable) check(s model.SessionID, g *cost.Ledger) {
	if t == nil {
		return
	}
	ms := &t.sess[s]
	ok := g.FitsEnvelope(ms.env)
	for i := 0; ok && i < len(ms.wit); i++ {
		ok = g.Refuses(ms.wit[i])
	}
	if !ok {
		ms.gen, ms.env, ms.wit = ms.gen+1, ms.env[:0], ms.wit[:0]
	}
}

// lookup appends the Φs of session s's state keyed by key to dst and
// reports whether the table holds the state.
func (t *MemoTable) lookup(s model.SessionID, key []int32, dst []float64) ([]float64, bool) {
	if t == nil {
		return dst, false
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.index) == 0 {
		return dst, false
	}
	id, gen, kw := memoID(s, key), t.sess[s].gen, t.pack(key)
	for off := int(t.index[t.slot(id, gen, kw)]) - 1; off >= 0; off = int(uint32(t.ring[off])) - 1 {
		if t.ring[off+1]&^1 == id && t.ring[off+2] == gen &&
			slices.Equal(t.ring[off+memoHeader:off+memoHeader+len(kw)], kw) {
			t.ring[off+1] |= 1
			for _, w := range t.ring[off+memoHeader+len(kw) : off+int(t.ring[off]>>32)] {
				dst = append(dst, math.Float64frombits(w))
			}
			return dst, true
		}
	}
	return dst, false
}

// store records session s's state keyed by key, with vals one Φ per
// neighbor, and adds the state's certificate — its envelope env (at: see
// widen) and its witnesses wit — to the session's; not a state that would
// grow the session's witnesses past its own neighbor count.
func (t *MemoTable) store(s model.SessionID, key []int32, vals []float64, env []cost.EnvelopeAgent, wit []cost.Refusal, at []int32) {
	ms := &t.sess[s]
	t.mu.Lock()
	kw := t.pack(key)
	size := memoHeader + len(kw) + len(vals)
	if size > t.most || len(ms.wit)+len(wit) > len(vals) {
		t.mu.Unlock()
		return
	}
	off := t.alloc(size)
	t.ring[off], t.ring[off+1], t.ring[off+2] = uint64(size)<<32, memoID(s, key), ms.gen
	copy(t.ring[off+memoHeader:], kw)
	for i, v := range vals {
		t.ring[off+memoHeader+len(kw)+i] = math.Float64bits(v)
	}
	t.link(off)
	t.mu.Unlock()
	ms.widen(env, at)
	for _, w := range wit {
		if !slices.Contains(ms.wit, w) {
			ms.wit = append(ms.wit, w)
		}
	}
}

func memoID(s model.SessionID, key []int32) uint64 {
	return uint64(uint32(s))<<32 | uint64(len(key))<<1
}

// pack returns key two entries to a word, in the table's key buffer.
func (t *MemoTable) pack(key []int32) []uint64 {
	t.kw = t.kw[:0]
	for i := 0; i < len(key); i += 2 {
		w := uint64(uint32(key[i]))
		if i+1 < len(key) {
			w |= uint64(uint32(key[i+1])) << 32
		}
		t.kw = append(t.kw, w)
	}
	return t.kw
}

func (t *MemoTable) slot(id, gen uint64, kw []uint64) int {
	if t.collide {
		return 0
	}
	h := id*0x9e3779b97f4a7c15 ^ gen*0xbf58476d1ce4e5b9
	for _, w := range kw {
		h = (h ^ w) * 0x94d049bb133111eb
	}
	return int((h ^ h>>32) % uint64(len(t.index)))
}

// chain returns the index chain of the state at ring offset off.
func (t *MemoTable) chain(off int) int {
	id := t.ring[off+1] &^ 1
	return t.slot(id, t.ring[off+2], t.ring[off+memoHeader:off+memoHeader+(int(uint32(id)>>1)+1)/2])
}

// link puts the state at ring offset off first in its chain.
func (t *MemoTable) link(off int) {
	i := t.chain(off)
	t.ring[off] = t.ring[off]&^math.MaxUint32 | uint64(uint32(t.index[i]))
	t.index[i] = int32(off + 1)
}

// alloc returns the ring offset of size free words at the head: growing the
// ring while the limit allows, then wrapping to its start and evicting from
// the tail.
func (t *MemoTable) alloc(size int) int {
	for {
		if t.wrapped {
			if t.head+size <= t.tail {
				break
			}
		} else if t.head+size <= len(t.ring) {
			break
		} else if len(t.ring) < t.most {
			// The ring has not wrapped yet: its states run from 0 to the head.
			ring := make([]uint64, min(max(2*len(t.ring), 1<<10), t.most))
			copy(ring, t.ring[:t.head])
			t.ring, t.index = ring, make([]int32, len(ring)/8)
			for off := 0; off < t.head; off += int(t.ring[off] >> 32) {
				t.link(off)
			}
			continue
		} else if t.tail == t.head {
			t.tail, t.head = 0, 0
			continue
		} else if size <= t.tail {
			t.wrap, t.head, t.wrapped = t.head, 0, true
			continue
		}
		t.evict()
	}
	t.head += size
	return t.head - size
}

// evict frees the oldest state or, if a lookup has used it since it was
// written, clears its mark and writes it again at the head.
func (t *MemoTable) evict() {
	off := t.tail
	size, i, to := int(t.ring[off]>>32), t.chain(off), int32(uint32(t.ring[off]))
	if t.tail += size; t.wrapped && t.tail == t.wrap {
		t.tail, t.wrapped = 0, false
	}
	if t.ring[off+1]&1 != 0 {
		t.ring[off+1] &^= 1
		// The state's own words are free now, so this evicts nothing.
		n := t.alloc(size)
		copy(t.ring[n:n+size], t.ring[off:off+size])
		to = int32(n + 1)
	}
	// Point the link to off, from the index or its chain predecessor, at to.
	if p := int(t.index[i]) - 1; p == off {
		t.index[i] = to
	} else {
		for int(uint32(t.ring[p]))-1 != off {
			p = int(uint32(t.ring[p])) - 1
		}
		t.ring[p] = t.ring[p]&^math.MaxUint32 | uint64(uint32(to))
	}
}

// widen raises the session's envelope to cover env. at is a zeroed dense
// agent → index+1 map, zeroed again on return.
func (ms *memoSession) widen(env []cost.EnvelopeAgent, at []int32) {
	for i, e := range ms.env {
		at[e.Agent] = int32(i + 1)
	}
	for _, e := range env {
		i := at[e.Agent] - 1
		if i < 0 {
			i, ms.env = int32(len(ms.env)), append(ms.env, cost.EnvelopeAgent{Agent: e.Agent})
			at[e.Agent] = i + 1
		}
		ms.env[i].Raise(e.Down, e.Up, int(e.Tasks))
	}
	for _, e := range ms.env {
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
