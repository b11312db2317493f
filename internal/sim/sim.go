// Package sim is the virtual-clock discrete-event core: a deterministic
// merge engine over pull-based lazy event sources, plus a versioned trace
// recorder/replayer. It decouples simulated load from host speed — a
// virtual day of churn is bounded by CPU, not by wall-clock pacing or by
// materializing the schedule (memory stays O(in-flight state), however
// many events the horizon holds).
//
// Determinism contract: the merged stream is a pure function of the
// sources. Events order by (TimeS, Event.Rank, source registration order,
// per-source sequence) — the order faults.Merge gives the same streams as
// slices. The engine's clock is the single time authority: it advances to
// each popped event's timestamp and never regresses (a source yielding out
// of order, or a NaN or infinite time, is an engine error, not a silent
// reorder).
package sim

import (
	"fmt"
	"math"

	"vconf/internal/workload"
)

// EventSource is a pull-based, time-ordered lazy event stream. Next
// returns events in non-decreasing TimeS order and ok=false when the
// stream is exhausted; Err reports a stream failure after Next returns
// false (generators are infallible and return nil; trace replayers surface
// read/decode errors here). workload.ChurnSource, faults.Source, Engine
// itself and Replayer all satisfy it.
type EventSource interface {
	Next() (workload.Event, bool)
	Err() error
}

// entry is one source's lookahead event.
type entry struct {
	src  EventSource
	ev   workload.Event
	live bool
}

// Engine merges registered sources into one deterministic virtual-time
// stream. It holds exactly one lookahead event per source — the whole of
// its buffering — and linear-scans for the minimum, which beats a heap for
// the two-to-three-source shapes this repo merges (churn + faults).
type Engine struct {
	now     float64 // the last popped event's TimeS
	entries []entry
	seq     uint64
	err     error
}

// New builds an engine over the given sources. Registration order is the
// final tie-break rank: on equal (TimeS, Event.Rank) the earlier-registered
// source's event pops first, so register churn before faults to reproduce
// faults.Merge(churn, faults) exactly (their Rank fields already order them;
// the registration rank only matters between sources of equal Rank).
func New(sources ...EventSource) *Engine {
	e := &Engine{entries: make([]entry, len(sources))}
	for i, src := range sources {
		e.entries[i].src = src
		e.pull(i, nil)
	}
	return e
}

// pull loads source i's next lookahead event. A source failure, a
// non-finite timestamp, or an event ordering before popped (the source's
// last delivered event, nil for the first pull) becomes the engine's error;
// the first error wins.
func (e *Engine) pull(i int, popped *workload.Event) {
	en := &e.entries[i]
	en.ev, en.live = en.src.Next()
	var err error
	switch {
	case !en.live:
		if serr := en.src.Err(); serr != nil {
			err = fmt.Errorf("sim: source %d: %w", i, serr)
		}
	case math.IsNaN(en.ev.TimeS) || math.IsInf(en.ev.TimeS, 0):
		err = fmt.Errorf("sim: source %d emitted non-finite time %v", i, en.ev.TimeS)
	case popped != nil && en.ev.Before(*popped):
		err = fmt.Errorf("sim: source %d emitted out of order: %v(rank %d) after %v(rank %d)",
			i, en.ev.TimeS, en.ev.Rank, popped.TimeS, popped.Rank)
	}
	if err != nil && e.err == nil {
		e.err = err
	}
}

// Next pops the next event of the merged stream and advances the clock to
// its timestamp. ok=false means every source is exhausted (or the engine
// hit an error — check Err).
func (e *Engine) Next() (workload.Event, bool) {
	if e.err != nil {
		return workload.Event{}, false
	}
	min := -1
	for i := range e.entries {
		if !e.entries[i].live {
			continue
		}
		if min < 0 || e.entries[i].ev.Before(e.entries[min].ev) {
			min = i
		}
	}
	if min < 0 {
		return workload.Event{}, false
	}
	ev := e.entries[min].ev
	if ev.TimeS < e.now {
		e.err = fmt.Errorf("sim: source %d regressed virtual time: %v after %v",
			min, ev.TimeS, e.now)
		return workload.Event{}, false
	}
	e.now = ev.TimeS
	e.seq++
	e.pull(min, &ev)
	return ev, true
}

// Err reports the first engine or source failure.
func (e *Engine) Err() error { return e.err }

// Now returns the current virtual time (the last popped event's timestamp).
func (e *Engine) Now() float64 { return e.now }

// SliceSource adapts a pre-sorted event slice to the EventSource contract,
// so recorded or hand-built schedules mix with the lazy generators.
type SliceSource struct {
	events []workload.Event
	i      int
}

// NewSliceSource wraps a time-ordered slice.
func NewSliceSource(events []workload.Event) *SliceSource {
	return &SliceSource{events: events}
}

// Next returns the next slice element.
func (s *SliceSource) Next() (workload.Event, bool) {
	if s.i >= len(s.events) {
		return workload.Event{}, false
	}
	e := s.events[s.i]
	s.i++
	return e, true
}

// Err always returns nil: slices cannot fail.
func (s *SliceSource) Err() error { return nil }
