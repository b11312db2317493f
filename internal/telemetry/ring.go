package telemetry

import (
	"encoding/json"
	"io"
	"math"
	"sync"
)

// Ring is the bounded overwrite-oldest buffer behind every retained stream:
// decision records, spans and closed sampler windows. Appends are
// mutex-guarded (one per event, span end or window close — off the
// per-candidate hot path); once full, the oldest item is overwritten and
// counted as dropped. The item with sequence number q always lives in slot
// q mod capacity.
type Ring[T any] struct {
	mu   sync.Mutex
	buf  []T
	next int64 // items ever appended
	// seq stamps an item's position in the full stream, under the lock, so
	// the number stays stable after the ring wraps (nil: items carry none).
	seq func(*T, int64)
}

// NewRing builds a ring holding the last capacity items (minimum 1). seq,
// when non-nil, stamps each appended item with its stream position; it
// runs under the ring's lock, so it must only write the item.
func NewRing[T any](capacity int, seq func(*T, int64)) *Ring[T] {
	if capacity < 1 {
		capacity = 1
	}
	return &Ring[T]{buf: make([]T, 0, capacity), seq: seq}
}

// Append stores one item and reports whether an older item was overwritten
// (the ring was full).
func (r *Ring[T]) Append(v T) (overwrote bool) {
	r.mu.Lock()
	i := int(r.next % int64(cap(r.buf)))
	if len(r.buf) < cap(r.buf) {
		r.buf = r.buf[:i+1]
	} else {
		overwrote = true
	}
	r.buf[i] = v
	if r.seq != nil {
		r.seq(&r.buf[i], r.next)
	}
	r.next++
	r.mu.Unlock()
	return overwrote
}

// Len returns the number of items currently held.
func (r *Ring[T]) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.buf)
}

// Total returns the number of items ever appended.
func (r *Ring[T]) Total() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.next
}

// Dropped returns how many old items the ring overwrote.
func (r *Ring[T]) Dropped() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.next - int64(len(r.buf))
}

// Items returns every held item, oldest first.
func (r *Ring[T]) Items() []T { return r.Tail(math.MaxInt) }

// Tail returns a copy of the newest n held items (all of them when n
// exceeds Len), oldest first.
func (r *Ring[T]) Tail(n int) []T {
	r.mu.Lock()
	defer r.mu.Unlock()
	n = max(0, min(n, len(r.buf)))
	out := make([]T, n)
	for k, q := 0, r.next-int64(n); k < n; k, q = k+1, q+1 {
		out[k] = r.buf[q%int64(cap(r.buf))]
	}
	return out
}

// WriteJSONL streams the held items oldest first, one JSON object per line —
// the vcsim -trace-out/-span-out format and what cmd/vcreport ingests.
func (r *Ring[T]) WriteJSONL(w io.Writer) error {
	enc := json.NewEncoder(w)
	for _, v := range r.Items() {
		if err := enc.Encode(v); err != nil {
			return err
		}
	}
	return nil
}
