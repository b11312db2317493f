// Package pipeline implements the churn-event scheduler: the layer that
// lets the orchestrator admit the next event while the current one
// re-optimizes, instead of barriering per event.
//
// Each submitted event names a trigger session, and its admission returns
// a Footprint: the sessions it owns until it retires (Φ = Σ_s Φ_s
// decomposes by session; capacity is the client ledger's job). The
// scheduler is one bounded FIFO: submission, admission, re-optimization
// and retirement follow one order.
//
//  1. It admits only the head of the pending queue, serially, once fewer
//     than MaxInFlight events are in flight and no in-flight footprint
//     claims the head's trigger. A head without a trigger (a fault, which
//     may rewrite any session) waits until nothing is in flight.
//  2. An event is in flight from admission until it retires. One
//     long-lived goroutine takes the oldest in-flight event and runs its
//     Reopt, then its Retire; the one overlap across events is an
//     admission running beside that goroutine.
//
// At MaxInFlight = 1 (the orchestrator's default, whose decision stream is
// pinned against recordings) this is strictly serial: admit → re-optimize
// → retire, one event at a time.
package pipeline

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"sync"
)

// Footprint is the session set one event owns until it retires: the
// trigger plus its re-optimization set. The event must touch no session
// outside it. Normalize sorts it for ContainsSession.
type Footprint struct{ Sessions []int32 }

// Normalize sorts the session set ascending.
func (f *Footprint) Normalize() { slices.Sort(f.Sessions) }

// ContainsSession reports whether the (normalized) session set contains s.
func (f Footprint) ContainsSession(s int32) bool {
	_, ok := slices.BinarySearch(f.Sessions, s)
	return ok
}

// Exec is one event's work, supplied at Submit. The scheduler calls the
// stages without holding its lock, so they may take client locks.
type Exec struct {
	// Trigger is the session the admission stage mutates; admission waits
	// while an in-flight footprint claims it. A negative trigger is
	// admitted only when nothing is in flight.
	Trigger int32
	// Admit applies the event's state mutation (bootstrap/release) and
	// derives its footprint. Admissions are serialized, in submission
	// order, and may run beside an earlier event's Reopt or Retire. An
	// error aborts the stream: every pending event is discarded.
	Admit func() (Footprint, error)
	// OnAdmit, when non-nil, is called right before Admit with the event's
	// stall flag: true iff its admission waited at least once — exactly
	// what Stats.AdmissionStalls counts. Called outside the scheduler lock.
	OnAdmit func(stalled bool)
	// Reopt runs the event's re-optimization once every earlier event has
	// retired; it must touch only sessions in the event's footprint. An
	// error aborts the stream: neither this event nor any later one
	// retires, and the later in-flight ones skip their stages.
	Reopt func() error
	// Retire runs right after a successful Reopt, on the same goroutine.
	Retire func()
}

// ErrClosed is Submit's error after Close.
var ErrClosed = errors.New("pipeline: submit after close")

// Config tunes the scheduler.
type Config struct {
	// MaxInFlight bounds the events between admission and retirement.
	// Defaults to 1, strict serial execution. Submit blocks while
	// 4 × MaxInFlight submissions await admission (backpressure).
	MaxInFlight int
}

// Stats are scheduler activity counters.
type Stats struct {
	Submitted int
	Retired   int
	// AdmissionStalls counts events found blocked at the queue head at
	// least once — on the in-flight cap or on a claimed trigger.
	AdmissionStalls int
	// ReoptWaits counts events admitted while an earlier event was still
	// in flight, so their re-optimization waited for it.
	ReoptWaits int
	// QueueDepthPeak and InFlightPeak are the high-water marks of pending
	// (unadmitted) and in-flight (admitted, unretired) events.
	QueueDepthPeak int
	InFlightPeak   int
}

type event struct {
	exec    Exec
	fp      Footprint
	stalled bool // found blocked at the queue head at least once
	retired chan struct{}
}

// Scheduler runs submitted events per the package contract: one goroutine
// admits the queue head, another re-optimizes and retires the oldest
// in-flight event. Submit/Drain/Close follow the orchestrator's
// single-caller discipline, though they are internally locked.
type Scheduler struct {
	cfg      Config
	mu       sync.Mutex
	cond     *sync.Cond
	pending  []*event // submitted, unadmitted, in submission order
	inFlight []*event // admitted, unretired, in submission order
	open     int      // events whose retire channel is still open
	err      error
	closed   bool
	// admitting is cleared when the admitting goroutine exits after Close.
	admitting bool
	stats     Stats
	done      chan struct{} // closed once both goroutines have exited
}

// New starts a scheduler. Call Close when done.
func New(cfg Config) (*Scheduler, error) {
	if cfg.MaxInFlight == 0 {
		cfg.MaxInFlight = 1
	}
	if cfg.MaxInFlight < 1 {
		return nil, fmt.Errorf("pipeline: invalid config: max in-flight %d", cfg.MaxInFlight)
	}
	s := &Scheduler{cfg: cfg, admitting: true, done: make(chan struct{})}
	s.cond = sync.NewCond(&s.mu)
	go s.admitLoop()
	go s.retireLoop()
	return s, nil
}

// Submit enqueues one event and returns a channel closed when it retires
// or is discarded. Blocks while the pending queue is at the submit window
// (which moves during an abort too: discarded heads leave it). Returns
// ErrClosed after Close.
func (s *Scheduler) Submit(exec Exec) (<-chan struct{}, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for !s.closed && len(s.pending) >= 4*s.cfg.MaxInFlight {
		s.cond.Wait()
	}
	if s.closed {
		return nil, ErrClosed
	}
	e := &event{exec: exec, retired: make(chan struct{})}
	s.pending = append(s.pending, e)
	s.open++
	s.stats.QueueDepthPeak = max(s.stats.QueueDepthPeak, len(s.pending))
	s.stats.Submitted++
	s.cond.Broadcast()
	return e.retired, nil
}

// Drain blocks until every submitted event has retired or been discarded
// and returns the stream's first error, clearing it: one bad event aborts
// the stream without wedging the scheduler.
func (s *Scheduler) Drain() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	for s.open > 0 {
		s.cond.Wait()
	}
	err := s.err
	s.err = nil
	return err
}

// Err returns the stream's first error without waiting.
func (s *Scheduler) Err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}

// Stats returns a copy of the activity counters.
func (s *Scheduler) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// Close stops new submissions (ErrClosed) and returns at once — Retire may
// call it — with a channel closed once both goroutines have finished the
// queue and exited.
func (s *Scheduler) Close() <-chan struct{} {
	s.mu.Lock()
	s.closed = true
	s.cond.Broadcast()
	s.mu.Unlock()
	return s.done
}

// finishLocked closes the retire channel of an event leaving the
// scheduler, retired or discarded.
func (s *Scheduler) finishLocked(e *event) {
	s.open--
	close(e.retired)
	s.cond.Broadcast()
}

// admissibleLocked reports whether the queue head may be admitted now.
func (s *Scheduler) admissibleLocked(trigger int32) bool {
	if len(s.inFlight) >= s.cfg.MaxInFlight || trigger < 0 && len(s.inFlight) > 0 {
		return false
	}
	for _, f := range s.inFlight {
		if f.fp.ContainsSession(trigger) {
			return false
		}
	}
	return true
}

// admitLoop admits the pending queue's head, one event at a time, and
// discards every pending event while the stream is aborted.
func (s *Scheduler) admitLoop() {
	s.mu.Lock()
	defer s.mu.Unlock()
	for len(s.pending) > 0 || !s.closed {
		if len(s.pending) == 0 || s.err == nil && !s.admissibleLocked(s.pending[0].exec.Trigger) {
			if len(s.pending) > 0 {
				s.pending[0].stalled = true
			}
			s.cond.Wait()
			continue
		}
		e := s.pending[0]
		s.pending = s.pending[1:]
		if s.err == nil {
			if e.stalled {
				s.stats.AdmissionStalls++
			}
			if len(s.inFlight) > 0 {
				s.stats.ReoptWaits++
			}
			s.mu.Unlock()
			if e.exec.OnAdmit != nil {
				e.exec.OnAdmit(e.stalled)
			}
			fp, err := e.exec.Admit()
			s.mu.Lock()
			s.err = cmp.Or(s.err, err) // keep the stream's first error
			fp.Normalize()
			e.fp = fp
		}
		if s.err != nil {
			// An abort, this admission's failure, or a Reopt that failed while
			// it ran: nothing from this event on retires.
			s.finishLocked(e)
			continue
		}
		s.inFlight = append(s.inFlight, e)
		s.stats.InFlightPeak = max(s.stats.InFlightPeak, len(s.inFlight))
		s.cond.Broadcast()
	}
	s.admitting = false
	s.cond.Broadcast()
}

// retireLoop re-optimizes and retires the oldest in-flight event, one at a
// time. A failed Reopt discards it and every later in-flight event.
func (s *Scheduler) retireLoop() {
	defer close(s.done)
	s.mu.Lock()
	defer s.mu.Unlock()
	for len(s.inFlight) > 0 || s.admitting {
		if len(s.inFlight) == 0 {
			s.cond.Wait()
			continue
		}
		e := s.inFlight[0]
		s.mu.Unlock()
		err := e.exec.Reopt()
		if err == nil {
			e.exec.Retire()
		}
		s.mu.Lock()
		if err == nil {
			s.inFlight = s.inFlight[1:]
			s.stats.Retired++
			s.finishLocked(e)
			continue
		}
		s.err = cmp.Or(s.err, err)
		for _, f := range s.inFlight {
			s.finishLocked(f)
		}
		s.inFlight = s.inFlight[:0]
	}
}
