// Package pipeline implements the churn-event scheduler: the layer that
// lets the orchestrator admit the next event while the current one
// re-optimizes, instead of barriering per event.
//
// The paper's online setting is a stream of join/leave events, each
// triggering incremental re-optimization of a handful of sessions. Φ =
// Σ_s Φ_s decomposes by session, and capacity is the only cross-session
// coupling. Each submitted event names a trigger session, and its admission
// returns a Footprint: the session set the event exclusively owns during
// re-optimization. The scheduler:
//
//  1. admits an event (runs its serialized state-mutating admission, which
//     derives the footprint) as soon as its trigger session is unclaimed
//     and the in-flight cap allows, possibly out of submission order;
//  2. re-optimizes admitted events one at a time, in admission order: an
//     event's Reopt starts only after every event admitted before it has
//     finished its own. The one overlap across events is an admission
//     running beside a re-optimization;
//  3. retires events strictly in submission order, so the *shape* of
//     reporting — which event retires when, relative to its peers — is
//     deterministic no matter how execution interleaved. (Values sampled
//     at retire time may still reflect later events' admissions at
//     MaxInFlight > 1; only cap 1 pins them bit-for-bit.)
//
// The footprint is what keeps an admission off the sessions a
// re-optimization is walking: the client must guarantee an event's
// execution touches only sessions in its footprint, and the scheduler never
// admits an event whose trigger an in-flight event's footprint claims.
//
// With MaxInFlight = 1 the scheduler degenerates to strict serial
// execution: admit → re-optimize → retire, one event at a time, in
// submission order — the orchestrator's default, whose decision stream is
// pinned against recordings (the orchestrator's golden decision streams).
package pipeline

import (
	"errors"
	"fmt"
	"slices"
	"sync"
)

// Footprint is the session set one event owns, treated as an unordered ID
// set; Normalize sorts it for ContainsSession.
type Footprint struct {
	// Sessions are the session IDs the event exclusively owns while
	// executing: the trigger plus its re-optimization set. The event must
	// touch no session outside this set.
	Sessions []int32
}

// Normalize sorts the session set ascending.
func (f *Footprint) Normalize() { slices.Sort(f.Sessions) }

// ContainsSession reports whether the (normalized) session set contains s.
func (f Footprint) ContainsSession(s int32) bool {
	_, ok := slices.BinarySearch(f.Sessions, s)
	return ok
}

// Exec is one event's work, supplied at Submit. The scheduler calls the
// three stages without holding its own lock, so they may freely take client
// locks.
type Exec struct {
	// Trigger is the session whose state the admission stage mutates. An
	// event's admission is deferred while its trigger is claimed by an
	// earlier un-admitted event with the same trigger or by any in-flight
	// event's footprint.
	Trigger int32
	// Admit applies the event's state mutation (bootstrap/release) and
	// derives its footprint. Admissions are serialized — the scheduler never
	// runs two concurrently — but may run while an earlier event's Reopt
	// stage is executing, and may run out of submission order. An error
	// aborts the stream (no further admissions; see Drain).
	Admit func() (Footprint, error)
	// OnAdmit, when non-nil, is called immediately before Admit with the
	// event's stall flag: true iff this admission waited at least once —
	// exactly the condition counted by Stats.AdmissionStalls, so per-event
	// observers reconcile with the aggregate counter. Called on the
	// dispatcher goroutine, outside the scheduler lock.
	OnAdmit func(stalled bool)
	// Reopt runs the event's re-optimization stage, after every event
	// admitted before it has finished its own: Reopt stages never overlap.
	// It may run beside a later event's Admit, and must touch only sessions
	// in the event's footprint.
	Reopt func() error
	// Retire runs after the event and every earlier event have finished;
	// retires are serialized in submission order.
	Retire func()
}

// ErrClosed is Submit's error after Close.
var ErrClosed = errors.New("pipeline: submit after close")

// Config tunes the scheduler.
type Config struct {
	// MaxInFlight bounds the events between admission and re-optimization
	// completion: how far admission may run ahead of the one
	// re-optimization running. 1 degenerates to strict serial execution in
	// submission order. Defaults to 1. It also sizes the submit window:
	// Submit blocks while 4 × MaxInFlight submissions await admission
	// (backpressure, and what makes the queue-depth telemetry meaningful).
	MaxInFlight int
}

func (c Config) withDefaults() (Config, error) {
	if c.MaxInFlight == 0 {
		c.MaxInFlight = 1
	}
	if c.MaxInFlight < 1 {
		return c, fmt.Errorf("pipeline: invalid config: max in-flight %d", c.MaxInFlight)
	}
	return c, nil
}

// Stats are scheduler activity counters.
type Stats struct {
	Submitted int
	Retired   int
	// AdmissionStalls counts events whose admission had to wait at least
	// once — on the in-flight cap (admission already MaxInFlight events
	// ahead of re-optimization), on an earlier same-trigger event, or on an
	// in-flight event claiming their trigger session.
	AdmissionStalls int
	// ReoptWaits counts events whose re-optimization stage had to wait for
	// an earlier-admitted event's to finish.
	ReoptWaits int
	// QueueDepthPeak is the high-water mark of submitted-but-unadmitted
	// events.
	QueueDepthPeak int
	// InFlightPeak is the high-water mark of concurrently in-flight events
	// (admitted, re-optimization not yet complete).
	InFlightPeak int
}

type evPhase int

const (
	phasePending  evPhase = iota // submitted, not admitted
	phaseInFlight                // admitted; re-optimization waiting or running
	phaseDone                    // re-optimization complete, not yet retired
)

type event struct {
	seq     int
	exec    Exec
	phase   evPhase
	fp      Footprint
	ticket  int  // admission order: re-optimization runs in ticket order
	stalled bool // passed over by at least one admission scan
	skipped bool // aborted without running (admission error or stream abort)
	retired chan struct{}
}

// Scheduler runs submitted events per the package contract. One dispatcher
// goroutine owns admissions and retirements; each in-flight event gets a
// goroutine for its turn wait + Reopt. Submit/Drain/Close follow the
// orchestrator's single-caller discipline, though they are internally
// locked.
type Scheduler struct {
	cfg Config

	mu   sync.Mutex
	cond *sync.Cond
	// queue holds every un-retired event in ascending submission order.
	queue   []*event
	nextSeq int
	tickets int
	// reopted counts finished Reopt stages: the ticket whose turn it is.
	reopted  int
	inFlight int
	pending  int
	err      error
	// errSeq is the failing event's submission seq while err is set:
	// retirement is suppressed from that seq on, so the retired stream is
	// always a strict prefix of the submission order — an abort loses no
	// event before the failing one and reports none after it.
	errSeq int
	closed bool
	stats  Stats

	done chan struct{} // dispatcher exited
}

// New starts a scheduler. Call Close when done.
func New(cfg Config) (*Scheduler, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	s := &Scheduler{cfg: cfg, done: make(chan struct{})}
	s.cond = sync.NewCond(&s.mu)
	go s.dispatch()
	return s, nil
}

// Submit enqueues one event and returns a channel closed when it retires
// (or is discarded by a stream abort). Blocks while the pending queue is at
// the submit window. Returns ErrClosed after Close.
func (s *Scheduler) Submit(exec Exec) (<-chan struct{}, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	// The window holds even while a stream error is draining: the
	// dispatcher keeps discarding pending heads (broadcasting each time),
	// so blocked submitters make progress without ever buffering the whole
	// remaining schedule.
	for !s.closed && s.pending >= 4*s.cfg.MaxInFlight {
		s.cond.Wait()
	}
	if s.closed {
		return nil, ErrClosed
	}
	e := &event{seq: s.nextSeq, exec: exec, retired: make(chan struct{})}
	s.nextSeq++
	s.queue = append(s.queue, e)
	s.pending++
	if s.pending > s.stats.QueueDepthPeak {
		s.stats.QueueDepthPeak = s.pending
	}
	s.stats.Submitted++
	s.cond.Broadcast()
	return e.retired, nil
}

// Drain blocks until every submitted event has retired (or been discarded)
// and returns the stream's first error, if any, clearing it — so one bad
// event aborts the in-flight stream (pending events are discarded, as an
// aborted Run stops at its failing event) without permanently wedging the
// scheduler: the next submission after a Drain admits normally.
func (s *Scheduler) Drain() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	for len(s.queue) > 0 {
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

// Close stops the scheduler: Submit returns ErrClosed from now on, and the
// dispatcher exits once the queue empties (in-flight events finish; a
// stream error discards what remains). Close does not wait for that exit —
// Retire runs on the dispatcher, so a Close from inside it could not — and
// returns a channel closed when the dispatcher has exited.
func (s *Scheduler) Close() <-chan struct{} {
	s.mu.Lock()
	if !s.closed {
		s.closed = true
		s.cond.Broadcast()
	}
	s.mu.Unlock()
	return s.done
}

// dispatch is the scheduler's single dispatcher loop: it retires done
// events in submission order, admits eligible pending events (running their
// Admit serially), and spawns the per-event execution goroutines.
func (s *Scheduler) dispatch() {
	defer close(s.done)
	s.mu.Lock()
	for {
		// Retirement: strictly head-of-queue, in submission order. An
		// aborted stream retires nothing from the failing seq on (even
		// events that finished executing), so the retired stream is always
		// a strict prefix of the submission order.
		if len(s.queue) > 0 {
			h := s.queue[0]
			switch {
			case h.phase == phaseDone:
				suppressed := h.skipped || (s.err != nil && h.seq >= s.errSeq)
				s.mu.Unlock()
				if !suppressed {
					h.exec.Retire()
				}
				s.mu.Lock()
				s.queue = s.queue[1:]
				if !suppressed {
					s.stats.Retired++
				}
				close(h.retired)
				s.cond.Broadcast()
				continue
			case h.phase == phasePending && s.err != nil:
				// Stream aborted before this event was admitted: discard.
				h.skipped = true
				s.queue = s.queue[1:]
				s.pending--
				close(h.retired)
				s.cond.Broadcast()
				continue
			}
		}

		// Admission: first eligible pending event in submission order.
		if s.err == nil {
			if e := s.eligibleLocked(); e != nil {
				stalled := e.stalled
				if stalled {
					s.stats.AdmissionStalls++
				}
				s.mu.Unlock()
				if e.exec.OnAdmit != nil {
					e.exec.OnAdmit(stalled)
				}
				fp, err := e.exec.Admit()
				s.mu.Lock()
				if err != nil {
					if s.err == nil {
						s.err = err
						s.errSeq = e.seq
					}
					e.phase = phaseDone
					e.skipped = true
					s.pending--
				} else {
					fp.Normalize()
					e.fp = fp
					e.phase = phaseInFlight
					e.ticket = s.tickets
					s.tickets++
					s.pending--
					s.inFlight++
					if s.inFlight > s.stats.InFlightPeak {
						s.stats.InFlightPeak = s.inFlight
					}
					go s.run(e)
				}
				s.cond.Broadcast()
				continue
			}
		}

		if s.closed && len(s.queue) == 0 {
			s.mu.Unlock()
			return
		}
		s.cond.Wait()
	}
}

// eligibleLocked returns the first pending event admissible now, marking as
// stalled every pending event it had to pass over (and the queue head when
// the in-flight cap blocks all admission).
func (s *Scheduler) eligibleLocked() *event {
	if s.inFlight >= s.cfg.MaxInFlight {
		for _, e := range s.queue {
			if e.phase == phasePending {
				e.stalled = true
				break
			}
		}
		return nil
	}
	for i, e := range s.queue {
		if e.phase != phasePending {
			continue
		}
		if s.triggerBlockedLocked(e, i) {
			e.stalled = true
			continue
		}
		return e
	}
	return nil
}

// triggerBlockedLocked reports whether event e (at queue index idx) must
// wait before its admission may mutate its trigger session: an earlier
// un-admitted event with the same trigger preserves per-session event
// order, and any in-flight event claiming the trigger in its footprint
// still owns that session's variables.
func (s *Scheduler) triggerBlockedLocked(e *event, idx int) bool {
	for i, f := range s.queue {
		switch f.phase {
		case phasePending:
			if i < idx && f.exec.Trigger == e.exec.Trigger {
				return true
			}
		case phaseInFlight:
			if f.fp.ContainsSession(e.exec.Trigger) {
				return true
			}
		}
	}
	return false
}

// run executes one admitted event: wait until every event admitted before
// it has finished re-optimizing (tickets are admission order), then run the
// re-optimization stage.
func (s *Scheduler) run(e *event) {
	s.mu.Lock()
	if s.reopted < e.ticket {
		s.stats.ReoptWaits++
		for s.reopted < e.ticket {
			s.cond.Wait()
		}
	}
	s.mu.Unlock()

	err := e.exec.Reopt()

	s.mu.Lock()
	if err != nil && s.err == nil {
		s.err = err
		s.errSeq = e.seq
	}
	e.phase = phaseDone
	s.inFlight--
	s.reopted++
	s.cond.Broadcast()
	s.mu.Unlock()
}
