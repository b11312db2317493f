package core

import (
	"container/heap"
	"fmt"
	"math/rand"

	"vconf/internal/assign"
	"vconf/internal/cost"
	"vconf/internal/model"
)

// Engine is the deterministic virtual-time simulator of Alg. 1 across all
// sessions of a scenario. Events (session hops, arrivals, departures) are
// processed in timestamp order from a seeded RNG, so identical seeds replay
// identical runs — the property every experiment and benchmark relies on.
//
// Engine is not safe for concurrent use; internal/dist provides the
// concurrent per-session deployment shape instead.
type Engine struct {
	ev     *cost.Evaluator
	cfg    Config
	a      *assign.Assignment
	ledger *cost.Ledger
	rng    *rand.Rand
	// scratch carries the reusable hop/eval buffers: the engine is
	// single-threaded, so one scratch serves hops, rate queries and session
	// deactivation.
	scratch *HopScratch
	// hop and rate are the hop and holding-rate kernels, HopSessionWith and
	// SessionTotalRateWith; the package's differential tests swap in the
	// from-scratch reference.
	hop  func(*assign.Assignment, model.SessionID, *cost.Evaluator, *cost.Ledger, Config, *rand.Rand, *HopScratch) (HopResult, error)
	rate func(*assign.Assignment, model.SessionID, *cost.Evaluator, *cost.Ledger, Config, *HopScratch) (float64, error)

	active map[model.SessionID]bool
	epochs []int // arrival generation per session; stale hops are dropped
	events eventHeap
	seq    int // tiebreaker for deterministic ordering
	now    float64
	hops   int
	moves  int

	// OnHop, when set, observes every hop result (used by per-session
	// traces, Fig. 7).
	OnHop func(timeS float64, s model.SessionID, r HopResult)
}

type eventKind int

const (
	eventHop eventKind = iota + 1
	eventArrival
	eventDeparture
)

type event struct {
	t       float64
	seq     int
	kind    eventKind
	session model.SessionID
	boot    Bootstrapper
	// epoch guards hop events: a hop scheduled before a session departed
	// and re-arrived must not fire.
	epoch int
}

type eventHeap []event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].t != h[j].t {
		return h[i].t < h[j].t
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x interface{}) { *h = append(*h, x.(event)) }
func (h *eventHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

// NewEngine builds an engine over the evaluator's scenario. Sessions start
// inactive; activate them with ActivateSession or schedule arrivals.
func NewEngine(ev *cost.Evaluator, cfg Config) (*Engine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	sc := ev.Scenario()
	e := &Engine{
		ev:      ev,
		cfg:     cfg,
		a:       assign.New(sc),
		ledger:  cost.NewLedger(sc),
		rng:     rand.New(rand.NewSource(cfg.Seed)),
		scratch: NewHopScratch(ev),
		hop:     HopSessionWith,
		rate:    SessionTotalRateWith,
		active:  make(map[model.SessionID]bool, sc.NumSessions()),
	}
	return e, nil
}

// Assignment returns a snapshot (deep copy) of the current assignment.
func (e *Engine) Assignment() *assign.Assignment { return e.a.Clone() }

// Ledger exposes the engine's capacity ledger (read-mostly; mutate only via
// engine operations).
func (e *Engine) Ledger() *cost.Ledger { return e.ledger }

// Now returns the current virtual time in seconds.
func (e *Engine) Now() float64 { return e.now }

// Hops returns (total hop events, hops that actually migrated).
func (e *Engine) Hops() (total, moved int) { return e.hops, e.moves }

// epochOf returns the arrival generation of session s, sizing the table
// lazily on first use.
func (e *Engine) epochOf(s model.SessionID) int {
	if e.epochs == nil {
		e.epochs = make([]int, e.ev.Scenario().NumSessions())
	}
	return e.epochs[s]
}

// ActivateSession bootstraps session s immediately (at the current virtual
// time) and schedules its first countdown.
func (e *Engine) ActivateSession(s model.SessionID, boot Bootstrapper) error {
	if e.active[s] {
		return fmt.Errorf("core: session %d already active", s)
	}
	if err := boot(e.a, s, e.ledger); err != nil {
		return fmt.Errorf("core: bootstrap session %d: %w", s, err)
	}
	e.active[s] = true
	e.scheduleHop(s)
	return nil
}

// DeactivateSession removes session s: its load leaves the ledger and its
// decisions reset. Pending hop events for it become stale and are dropped.
func (e *Engine) DeactivateSession(s model.SessionID) error {
	if !e.active[s] {
		return fmt.Errorf("core: session %d not active", s)
	}
	e.ledger.Remove(e.ev.SessionLoadSparse(e.a, s, e.scratch.Eval()))
	sc := e.ev.Scenario()
	for _, u := range sc.Session(s).Users {
		e.a.SetUserAgent(u, assign.Unassigned)
	}
	for _, f := range e.a.SessionFlows(s) {
		if err := e.a.SetFlowAgent(f, assign.Unassigned); err != nil {
			return err
		}
	}
	e.active[s] = false
	e.epochOf(s) // ensure allocated
	e.epochs[s]++
	return nil
}

// DegradeAgent shrinks agent l's effective capacities to factor × nominal
// at the current virtual time (failure injection). Sessions currently
// overloading the agent are not evicted; the chain's repair moves migrate
// load away on subsequent hops (see Ledger.FitsRepairDelta). factor = 1 restores
// full capacity.
func (e *Engine) DegradeAgent(l model.AgentID, factor float64) error {
	return e.ledger.SetCapacityScale(l, factor)
}

// ScheduleArrival enqueues a session arrival at virtual time t with the
// given bootstrapper (Fig. 5's dynamics).
func (e *Engine) ScheduleArrival(t float64, s model.SessionID, boot Bootstrapper) {
	e.push(event{t: t, kind: eventArrival, session: s, boot: boot})
}

// ScheduleDeparture enqueues a session departure at virtual time t.
func (e *Engine) ScheduleDeparture(t float64, s model.SessionID) {
	e.push(event{t: t, kind: eventDeparture, session: s})
}

func (e *Engine) push(ev event) {
	ev.seq = e.seq
	e.seq++
	heap.Push(&e.events, ev)
}

func (e *Engine) scheduleHop(s model.SessionID) {
	rate := 0.0
	if e.cfg.Mode == ExactCTMC {
		r, err := e.rate(e.a, s, e.ev, e.ledger, e.cfg, e.scratch)
		if err == nil {
			rate = r
		}
	}
	e.push(event{
		t:       e.now + holdingTime(e.cfg, rate, e.rng),
		kind:    eventHop,
		session: s,
		epoch:   e.epochOf(s),
	})
}

// Run advances virtual time to untilS, processing all events, and returns
// samples: one immediately, one after every hop, one per
// arrival/departure, and one at every sampleEveryS boundary (0 disables
// periodic sampling).
func (e *Engine) Run(untilS, sampleEveryS float64) ([]Sample, error) {
	var samples []Sample
	samples = append(samples, e.Snapshot())

	nextSample := e.now + sampleEveryS
	for len(e.events) > 0 {
		ev := e.events[0]
		if ev.t > untilS {
			break
		}
		heap.Pop(&e.events)

		// Emit periodic samples up to the event time.
		if sampleEveryS > 0 {
			for nextSample < ev.t {
				e.now = nextSample
				samples = append(samples, e.Snapshot())
				nextSample += sampleEveryS
			}
		}
		e.now = ev.t

		switch ev.kind {
		case eventArrival:
			if err := e.ActivateSession(ev.session, ev.boot); err != nil {
				return samples, err
			}
			samples = append(samples, e.Snapshot())
		case eventDeparture:
			if err := e.DeactivateSession(ev.session); err != nil {
				return samples, err
			}
			samples = append(samples, e.Snapshot())
		case eventHop:
			if !e.active[ev.session] || ev.epoch != e.epochOf(ev.session) {
				continue // stale event from a departed generation
			}
			res, err := e.hop(e.a, ev.session, e.ev, e.ledger, e.cfg, e.rng, e.scratch)
			if err != nil {
				return samples, fmt.Errorf("core: hop session %d: %w", ev.session, err)
			}
			e.hops++
			if res.Moved {
				e.moves++
			}
			if e.OnHop != nil {
				e.OnHop(e.now, ev.session, res)
			}
			samples = append(samples, e.Snapshot())
			e.scheduleHop(ev.session)
		}
	}
	// Trailing periodic samples.
	if sampleEveryS > 0 {
		for nextSample <= untilS {
			e.now = nextSample
			samples = append(samples, e.Snapshot())
			nextSample += sampleEveryS
		}
	}
	e.now = untilS
	samples = append(samples, e.Snapshot())
	return samples, nil
}

// Snapshot measures the current system state over the active sessions
// (Evaluator.ReportSession per session).
func (e *Engine) Snapshot() Sample {
	sc := e.ev.Scenario()
	s := Sample{
		TimeS:      e.now,
		Hops:       e.hops,
		Moves:      e.moves,
		PerSession: make(map[model.SessionID]SessionSample),
	}
	totalDelay, users := 0.0, 0
	for sid := 0; sid < sc.NumSessions(); sid++ {
		id := model.SessionID(sid)
		if !e.active[id] {
			continue
		}
		rep := e.ev.ReportSession(e.a, id)
		s.ActiveSessions++
		s.TrafficMbps += rep.InterTraffic
		s.Objective += rep.Objective
		n := sc.Session(id).Size()
		totalDelay += rep.MeanDelayMS * float64(n)
		users += n
		s.PerSession[id] = SessionSample{
			TrafficMbps: rep.InterTraffic,
			MeanDelayMS: rep.MeanDelayMS,
			Objective:   rep.Objective,
		}
	}
	if users > 0 {
		s.MeanDelayMS = totalDelay / float64(users)
	}
	return s
}
