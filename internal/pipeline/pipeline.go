// Package pipeline implements the dependency-aware churn-event scheduler:
// the concurrency layer that lets the orchestrator keep several events in
// flight at once instead of barriering per event.
//
// The paper's online setting is a stream of join/leave events, each
// triggering incremental re-optimization of a handful of sessions. Because
// Φ = Σ_s Φ_s decomposes by session and capacity is the only cross-session
// coupling, two events whose state surfaces are disjoint are fully
// independent: nothing one reads or writes can affect the other. This
// package schedules on exactly that structure. Each submitted event carries
// a conflict Footprint — the session set it will exclusively own during
// re-optimization, plus the capacity-ledger stripes its walks can read or
// its commits can touch — and the scheduler:
//
//  1. admits an event (runs its serialized state-mutating admission, which
//     finalizes the footprint) as soon as its trigger session is unclaimed
//     and the in-flight cap allows, possibly out of submission order;
//  2. starts the event's re-optimization immediately when its footprint is
//     disjoint from every in-flight event, and otherwise queues it behind
//     exactly the events it conflicts with (a ticket-ordered wait: an event
//     defers only to conflicting events admitted before it, so the implicit
//     DAG is acyclic and every wait resolves);
//  3. retires events strictly in submission order, so the *shape* of
//     reporting — which event retires when, relative to its peers — is
//     deterministic no matter how execution interleaved. (Values sampled
//     at retire time may still reflect later events' admissions at
//     MaxInFlight > 1; only cap 1 pins them bit-for-bit.)
//
// Footprints are allowed to under-estimate the *stripe* set (capacity
// safety never depends on them: stripe locks plus commit-time validation in
// internal/shard make concurrent commits safe, and the epoch-stamped
// Conflict/retry path absorbs stale snapshots). The *session* set is the
// safety-critical half: the client must guarantee an event's execution
// touches only sessions in its footprint, and the scheduler guarantees two
// events owning a common session never execute concurrently.
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

// Footprint is the conflict surface of one event. Both sets are treated as
// unordered ID sets; Normalize sorts them so Conflicts can merge-scan.
type Footprint struct {
	// Sessions are the session IDs the event exclusively owns while
	// executing: the trigger plus its re-optimization set. Safety-critical —
	// the event must touch no session outside this set.
	Sessions []int32
	// Shards are the capacity-ledger stripe indices the event's walks can
	// read or its commits can touch. Advisory — an under-estimate costs
	// commit conflicts/retries, never correctness.
	Shards []int32
}

// Normalize sorts both sets ascending.
func (f *Footprint) Normalize() {
	slices.Sort(f.Sessions)
	slices.Sort(f.Shards)
}

// Conflicts reports whether two normalized footprints overlap in either
// set.
func (f Footprint) Conflicts(g Footprint) bool {
	return intersects(f.Sessions, g.Sessions) || intersects(f.Shards, g.Shards)
}

// ContainsSession reports whether the (normalized) session set contains s.
func (f Footprint) ContainsSession(s int32) bool {
	for _, x := range f.Sessions {
		if x == s {
			return true
		}
		if x > s {
			return false
		}
	}
	return false
}

// intersects merge-scans two ascending sets.
func intersects(a, b []int32) bool {
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] == b[j]:
			return true
		case a[i] < b[j]:
			i++
		default:
			j++
		}
	}
	return false
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
	// runs two concurrently — but may run while other events' Reopt stages
	// are executing, and may run out of submission order. An error aborts
	// the stream (no further admissions; see Drain).
	Admit func() (Footprint, error)
	// OnAdmit, when non-nil, is called immediately before Admit with the
	// event's stall flag: true iff this admission waited at least once —
	// exactly the condition counted by Stats.AdmissionStalls, so per-event
	// observers reconcile with the aggregate counter. Called on the
	// dispatcher goroutine, outside the scheduler lock.
	OnAdmit func(stalled bool)
	// Reopt runs the event's re-optimization stage. It may run concurrently
	// with other events' Reopt stages whose footprints are disjoint, and
	// must touch only sessions in the event's footprint.
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
	// completion. 1 degenerates to strict serial execution in submission
	// order. Defaults to 1. It also sizes the submit window: Submit blocks
	// while 4 × MaxInFlight submissions await admission (backpressure, and
	// what makes the queue-depth telemetry meaningful).
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
	// once — on the in-flight cap, on an earlier same-trigger event, or on
	// an in-flight event claiming their trigger session.
	AdmissionStalls int
	// ReoptWaits counts events whose re-optimization stage had to queue
	// behind a conflicting in-flight event at least once (the DAG edges).
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
	ticket  int  // admission order; conflict waits defer to smaller tickets
	stalled bool // passed over by at least one admission scan
	skipped bool // aborted without running (admission error or stream abort)
	retired chan struct{}
}

// Scheduler runs submitted events per the package contract. One dispatcher
// goroutine owns admissions and retirements; each in-flight event gets a
// goroutine for its conflict wait + Reopt. Submit/Drain/Close follow the
// orchestrator's single-caller discipline, though they are internally
// locked.
type Scheduler struct {
	cfg Config

	mu   sync.Mutex
	cond *sync.Cond
	// queue holds every un-retired event in ascending submission order.
	queue    []*event
	nextSeq  int
	tickets  int
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

// Close stops the scheduler after the queue empties (in-flight events
// finish; a stream error discards what remains) and waits for the
// dispatcher to exit. The scheduler must not be used afterwards.
func (s *Scheduler) Close() {
	s.mu.Lock()
	if !s.closed {
		s.closed = true
		s.cond.Broadcast()
	}
	s.mu.Unlock()
	<-s.done
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

// run executes one admitted event: wait until no conflicting in-flight
// event with a smaller ticket remains (the DAG edge — tickets are admission
// order, so waits are acyclic), then run the re-optimization stage.
func (s *Scheduler) run(e *event) {
	s.mu.Lock()
	waited := false
	for s.conflictLocked(e) {
		if !waited {
			waited = true
			s.stats.ReoptWaits++
		}
		s.cond.Wait()
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
	s.cond.Broadcast()
	s.mu.Unlock()
}

// conflictLocked reports whether a conflicting in-flight event admitted
// before e is still executing.
func (s *Scheduler) conflictLocked(e *event) bool {
	for _, f := range s.queue {
		if f.phase == phaseInFlight && f.ticket < e.ticket && f.fp.Conflicts(e.fp) {
			return true
		}
	}
	return false
}
