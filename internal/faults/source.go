package faults

// Lazy, pull-based fault generation: Source is the one implementation of
// the fault processes. Schedule drains it into a slice and the
// virtual-clock engine (internal/sim) pulls from it directly, so a long
// horizon holds only O(in-flight incidents) of state.
//
// The stream is defined as follows. Each (process, target) pair is one
// sub-stream drawing from its own splitmix64-derived RNG, in a fixed order
// (agent failures per agent, region outages per region, degradations per
// agent, flash crowds per region). Every sub-stream emits in (time,
// generation order), and Source k-way-merges them on (time, stream index),
// so the merged order is (time, stream index, generation order). Incident
// ids number the fault-kind events as they pop. The draw order of each
// sub-stream is part of the definition: changing it changes every
// schedule. The eager reference the differential tests compare against
// lives in schedule_ref_test.go.

import (
	"container/heap"
	"math/rand"

	"vconf/internal/workload"
)

// Source is a lazy generator of the fault event stream. It satisfies the
// sim.EventSource contract.
type Source struct {
	streams  []faultStream
	pq       mergeHeap
	incident int
}

// Next returns the next fault-schedule event in time order (ties broken by
// the fixed process/target stream order), or ok=false once every process
// has run past the horizon.
func (s *Source) Next() (workload.Event, bool) {
	if len(s.pq) == 0 {
		return workload.Event{}, false
	}
	top := &s.pq[0]
	ev := top.ev
	if next, ok := s.streams[top.order].next(); ok {
		top.ev = next
		heap.Fix(&s.pq, 0)
	} else {
		heap.Pop(&s.pq)
	}
	if ev.Kind.IsFault() {
		s.incident++
		ev.Incident = s.incident
	}
	return ev, true
}

// Err reports a stream failure. Fault generation is infallible after
// configuration validation, so it always returns nil.
func (s *Source) Err() error { return nil }

// NewSource builds the fault stream of cfg. The same Config (seed
// included) yields the same events in the same order.
func NewSource(cfg Config) (*Source, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	s := &Source{}
	// Stream registration order is the tie rank between sub-streams:
	// agent failures, region outages, degradations, flash crowds.
	if cfg.AgentMTBFS > 0 {
		for a := 0; a < cfg.NumAgents; a++ {
			a := a
			s.streams = append(s.streams, &renewalStream{
				rng: subRNG(cfg.Seed, tagAgentFail, a), horizonS: cfg.HorizonS,
				mtbfS: cfg.AgentMTBFS, mttrS: cfg.AgentMTTRS,
				mk: func(t float64, up bool) workload.Event {
					k := workload.EventAgentFail
					if up {
						k = workload.EventAgentRecover
					}
					return workload.Event{TimeS: t, Kind: k, Session: -1, Agent: a,
						Region: regionOf(cfg.AgentRegion, a), Rank: workload.RankFaults}
				},
			})
		}
	}
	if cfg.RegionMTBFS > 0 {
		for r := 0; r < cfg.numRegions(); r++ {
			r := r
			s.streams = append(s.streams, &renewalStream{
				rng: subRNG(cfg.Seed, tagRegionOutage, r), horizonS: cfg.HorizonS,
				mtbfS: cfg.RegionMTBFS, mttrS: cfg.RegionMTTRS,
				mk: func(t float64, up bool) workload.Event {
					k := workload.EventRegionOutage
					if up {
						k = workload.EventRegionRecover
					}
					return workload.Event{TimeS: t, Kind: k, Session: -1, Agent: -1,
						Region: r, Rank: workload.RankFaults}
				},
			})
		}
	}
	if cfg.DegradeMTBFS > 0 {
		for a := 0; a < cfg.NumAgents; a++ {
			s.streams = append(s.streams, &degradeStream{
				rng: subRNG(cfg.Seed, tagDegrade, a), cfg: cfg, agent: a,
			})
		}
	}
	if cfg.FlashMTBFS > 0 {
		for r := range cfg.FlashSessions {
			s.streams = append(s.streams, newFlashSource(cfg, r))
		}
	}
	for i, st := range s.streams {
		if ev, ok := st.next(); ok {
			s.pq = append(s.pq, mergeEntry{ev: ev, order: i})
		}
	}
	heap.Init(&s.pq)
	return s, nil
}

// faultStream is one suspended (process, target) iterator, emitting in
// (time, generation order).
type faultStream interface {
	next() (workload.Event, bool)
}

// mergeEntry is one event keyed for a time-ordered heap: order breaks time
// ties — the stream index in Source's merge, the generation index in a
// flash stream's pending queue.
type mergeEntry struct {
	ev    workload.Event
	order int
}

// mergeHeap orders entries by (time, order).
type mergeHeap []mergeEntry

func (h mergeHeap) Len() int { return len(h) }
func (h mergeHeap) Less(i, j int) bool {
	if h[i].ev.TimeS != h[j].ev.TimeS {
		return h[i].ev.TimeS < h[j].ev.TimeS
	}
	return h[i].order < h[j].order
}
func (h mergeHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *mergeHeap) Push(x interface{}) { *h = append(*h, x.(mergeEntry)) }
func (h *mergeHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

// renewalStream is one target's fail/recover renewal process: alternate
// exponential time-to-failure and time-to-recovery draws until either
// crosses the horizon.
type renewalStream struct {
	rng          *rand.Rand
	horizonS     float64
	mtbfS, mttrS float64
	mk           func(t float64, up bool) workload.Event
	t            float64
	up           bool // next emission is a recovery
	done         bool
}

func (r *renewalStream) next() (workload.Event, bool) {
	if r.done {
		return workload.Event{}, false
	}
	if !r.up {
		r.t += r.rng.ExpFloat64() * r.mtbfS
		if r.t >= r.horizonS {
			r.done = true
			return workload.Event{}, false
		}
		r.up = true
		return r.mk(r.t, false), true
	}
	r.t += r.rng.ExpFloat64() * r.mttrS
	if r.t >= r.horizonS {
		r.done = true // failed through the horizon: no recovery event
		return workload.Event{}, false
	}
	r.up = false
	return r.mk(r.t, true), true
}

// degradeStream is one agent's degradation renewal process: each incident
// draws its scale right after the onset time, restores to 1 after the
// repair.
type degradeStream struct {
	rng   *rand.Rand
	cfg   Config
	agent int
	t     float64
	up    bool
	done  bool
}

func (d *degradeStream) next() (workload.Event, bool) {
	if d.done {
		return workload.Event{}, false
	}
	base := workload.Event{Kind: workload.EventCapacityDegrade, Session: -1,
		Agent: d.agent, Region: regionOf(d.cfg.AgentRegion, d.agent), Rank: workload.RankFaults}
	if !d.up {
		d.t += d.rng.ExpFloat64() * d.cfg.DegradeMTBFS
		if d.t >= d.cfg.HorizonS {
			d.done = true
			return workload.Event{}, false
		}
		base.TimeS = d.t
		base.Scale = d.cfg.DegradeFloor + (1-d.cfg.DegradeFloor)*d.rng.Float64()
		d.up = true
		return base, true
	}
	d.t += d.rng.ExpFloat64() * d.cfg.DegradeMTTRS
	if d.t >= d.cfg.HorizonS {
		d.done = true
		return workload.Event{}, false
	}
	base.TimeS = d.t
	base.Scale = 1
	d.up = false
	return base, true
}

// flashSource is region r's flash-crowd process. Each onset emits an
// EventFlashCrowd marker, then up to FlashIntensity burst arrivals from the
// region's reserved pool, staggered a millisecond apart; each burst session
// departs after an exponential hold and returns to the pool.
//
// Draw order: the first onset; then, per onset, one hold per burst arrival
// followed by the next onset. Each arrival's pool check reads the pool
// before the departures due by that arrival return to it.
//
// An onset's whole block — the departures due by the onset, the marker,
// the arrivals and the departures due by each — is generated at once into
// a pending heap keyed (time, generation order). Two onsets closer than one
// burst's stagger window overlap in time, so the pending head is released
// only once no later draw can produce an earlier event: once it is at or
// before both the next onset (already drawn) and the earliest held
// departure.
type flashSource struct {
	rng     *rand.Rand
	cfg     Config
	region  int
	idle    []int
	deps    departureHeap
	t       float64 // next onset, already drawn
	done    bool    // onsets have passed the horizon; pending holds the rest
	pending mergeHeap
	seq     int
}

func newFlashSource(cfg Config, r int) *flashSource {
	f := &flashSource{
		rng:    subRNG(cfg.Seed, tagFlash, r),
		cfg:    cfg,
		region: r,
		idle:   append([]int(nil), cfg.FlashSessions[r]...),
	}
	f.drawOnset()
	return f
}

func (f *flashSource) next() (workload.Event, bool) {
	for !f.done && (len(f.pending) == 0 || f.pending[0].ev.TimeS > f.bound()) {
		f.onset()
	}
	if len(f.pending) == 0 {
		return workload.Event{}, false
	}
	return heap.Pop(&f.pending).(mergeEntry).ev, true
}

// bound is the earliest time any later draw can produce an event at.
func (f *flashSource) bound() float64 {
	if len(f.deps) > 0 && f.deps[0].timeS < f.t {
		return f.deps[0].timeS
	}
	return f.t
}

// onset generates the block of the onset at f.t, then draws the next one.
func (f *flashSource) onset() {
	f.flushUntil(f.t)
	f.emit(workload.Event{TimeS: f.t, Kind: workload.EventFlashCrowd, Session: -1, Agent: -1})
	for j := 0; j < f.cfg.FlashIntensity && len(f.idle) > 0; j++ {
		at := f.t + float64(j+1)*1e-3
		if at >= f.cfg.HorizonS {
			break
		}
		hold := f.rng.ExpFloat64() * f.cfg.FlashHoldS
		f.flushUntil(at)
		s := f.idle[0]
		f.idle = f.idle[1:]
		f.emit(workload.Event{TimeS: at, Kind: workload.EventArrival, Session: s})
		heap.Push(&f.deps, departure{timeS: at + hold, session: s})
	}
	f.drawOnset()
}

// drawOnset draws the next onset. Past the horizon the process ends: the
// departures still due before it become pending.
func (f *flashSource) drawOnset() {
	f.t += f.rng.ExpFloat64() * f.cfg.FlashMTBFS
	if f.t >= f.cfg.HorizonS {
		f.flushUntil(f.cfg.HorizonS)
		f.done = true
	}
}

// flushUntil moves the departures due at or before limit to pending and
// returns their sessions to the pool. Departures at or past the horizon
// return their session but are not emitted.
func (f *flashSource) flushUntil(limit float64) {
	for len(f.deps) > 0 && f.deps[0].timeS <= limit {
		d := heap.Pop(&f.deps).(departure)
		if d.timeS >= f.cfg.HorizonS {
			continue
		}
		f.emit(workload.Event{TimeS: d.timeS, Kind: workload.EventDeparture, Session: d.session})
		f.idle = append(f.idle, d.session)
	}
}

// emit queues one generated event, stamped with the region and the fault
// rank, under the next generation index.
func (f *flashSource) emit(ev workload.Event) {
	ev.Region, ev.Rank = f.region, workload.RankFaults
	heap.Push(&f.pending, mergeEntry{ev: ev, order: f.seq})
	f.seq++
}

func regionOf(agentRegion []int, a int) int {
	if agentRegion == nil {
		return -1
	}
	return agentRegion[a]
}

// departure is one burst session's scheduled departure.
type departure struct {
	timeS   float64
	session int
}

type departureHeap []departure

func (h departureHeap) Len() int            { return len(h) }
func (h departureHeap) Less(i, j int) bool  { return h[i].timeS < h[j].timeS }
func (h departureHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *departureHeap) Push(x interface{}) { *h = append(*h, x.(departure)) }
func (h *departureHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}
