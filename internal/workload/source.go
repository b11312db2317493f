package workload

// Lazy, pull-based churn generation: ChurnSource is the one implementation
// of the churn processes. PoissonSchedule drains it into a slice and the
// virtual-clock engine (internal/sim) pulls from it directly, so a
// 10M-event day holds only O(in-flight sessions) of state.
//
// The RNG draw order is part of the stream's definition; changing it
// changes every schedule. Homogeneous: the initial sessions' holds, then
// per candidate the inter-arrival gap followed — only when the arrival is
// admitted — by its hold. Diurnal: the initial sessions' holds, then per
// candidate one block of gap, region pick, thinning acceptance and hold,
// drawn before any departure is flushed, even for rejected candidates.
// The eager reference the differential tests compare against lives in
// schedule_ref_test.go.

import (
	"container/heap"
	"math/rand"
)

// ChurnSource is a lazy generator of the churn event stream: each Next call
// produces the next event in time order, drawing from the RNG only as far
// as needed. It satisfies the sim.EventSource contract.
type ChurnSource struct {
	next func() (Event, bool)
}

// Next returns the next churn event in time order, or ok=false once the
// horizon is exhausted.
func (s *ChurnSource) Next() (Event, bool) { return s.next() }

// Err reports a stream failure. Churn generation is infallible after
// configuration validation, so it always returns nil; the method exists to
// satisfy the EventSource contract shared with trace replayers.
func (s *ChurnSource) Err() error { return nil }

// NewChurnSource builds the churn stream of cfg. The same config (seed
// included) yields the same events in the same order.
func NewChurnSource(cfg ChurnConfig) (*ChurnSource, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.Diurnal != nil {
		return &ChurnSource{next: newDiurnalState(cfg).next}, nil
	}
	return &ChurnSource{next: newPoissonState(cfg).next}, nil
}

// poissonState is the homogeneous generator as a suspended loop: the rng,
// idle pool, departure heap and candidate arrival time, so the loop can
// return one event at a time.
type poissonState struct {
	cfg  ChurnConfig
	rng  *rand.Rand
	idle []int
	deps departureHeap
	// t is the candidate arrival time; drawn means it is pending (drawn but
	// not yet emitted or dropped), done means arrivals are exhausted.
	t     float64
	drawn bool
	done  bool
}

func newPoissonState(cfg ChurnConfig) *poissonState {
	st := &poissonState{cfg: cfg, rng: rand.New(rand.NewSource(cfg.Seed))}
	st.idle = make([]int, 0, cfg.NumSessions)
	for s := cfg.InitialActive; s < cfg.NumSessions; s++ {
		st.idle = append(st.idle, s)
	}
	for s := 0; s < cfg.InitialActive; s++ {
		heap.Push(&st.deps, departure{timeS: st.rng.ExpFloat64() * cfg.MeanHoldS, session: s})
	}
	return st
}

func (st *poissonState) next() (Event, bool) {
	for {
		// Advance the candidate arrival if none is pending: one draw.
		if !st.done && !st.drawn {
			st.t += st.rng.ExpFloat64() / st.cfg.ArrivalRatePerS
			if st.t >= st.cfg.HorizonS {
				st.done = true
			} else {
				st.drawn = true
			}
		}
		// Departures due before the candidate (or before the horizon, once
		// arrivals are exhausted) come first, one at a time.
		limit := st.cfg.HorizonS
		if !st.done {
			limit = st.t
		}
		if len(st.deps) > 0 && st.deps[0].timeS <= limit {
			d := heap.Pop(&st.deps).(departure)
			if d.timeS >= st.cfg.HorizonS {
				continue
			}
			st.idle = append(st.idle, d.session)
			return Event{TimeS: d.timeS, Kind: EventDeparture, Session: d.session}, true
		}
		if st.done {
			return Event{}, false
		}
		// The candidate's turn: admit from the idle pool or drop.
		st.drawn = false
		if len(st.idle) == 0 {
			continue // pool exhausted: drop this arrival
		}
		s := st.idle[0]
		st.idle = st.idle[1:]
		heap.Push(&st.deps, departure{timeS: st.t + st.rng.ExpFloat64()*st.cfg.MeanHoldS, session: s})
		return Event{TimeS: st.t, Kind: EventArrival, Session: s}, true
	}
}

// diurnalState is the Diurnal generator: a non-homogeneous Poisson process
// per region, realized by exact thinning of one merged candidate process.
// Candidates arrive at the constant peak rate Λmax = λ·(1+A) (region shares
// w_r sum to 1); each picks a region with probability w_r and survives with
// probability M_r(t)/(1+A), so the surviving stream is exactly the target
// process. A candidate is the block (arrival time, region, thinning
// acceptance, hold) drawn together before any heap flush. Departed
// sessions return to their region's idle pool.
type diurnalState struct {
	cfg         ChurnConfig
	rng         *rand.Rand
	drawRegions []int
	cumShare    []float64
	maxRate     float64
	idle        [][]int
	deps        departureHeap

	t          float64
	candRegion int
	candAccept bool
	candHold   float64
	drawn      bool
	done       bool
}

func newDiurnalState(cfg ChurnConfig) *diurnalState {
	d := cfg.Diurnal
	st := &diurnalState{cfg: cfg, rng: rand.New(rand.NewSource(cfg.Seed))}
	R := len(d.PeakFrac)
	poolSize := make([]int, R)
	for s := 0; s < cfg.NumSessions; s++ {
		poolSize[d.SessionRegion[s]]++
	}
	st.drawRegions, st.cumShare = diurnalShares(poolSize, cfg.NumSessions)
	st.idle = make([][]int, R)
	for s := 0; s < cfg.NumSessions; s++ {
		if s < cfg.InitialActive {
			heap.Push(&st.deps, departure{timeS: st.rng.ExpFloat64() * cfg.MeanHoldS, session: s})
		} else {
			r := d.SessionRegion[s]
			st.idle[r] = append(st.idle[r], s)
		}
	}
	st.maxRate = cfg.ArrivalRatePerS * (1 + d.Amplitude)
	return st
}

func (st *diurnalState) next() (Event, bool) {
	d := st.cfg.Diurnal
	for {
		if !st.done && !st.drawn {
			st.t += st.rng.ExpFloat64() / st.maxRate
			if st.t >= st.cfg.HorizonS {
				st.done = true
			} else {
				// Draw the candidate's region, acceptance and hold before the
				// flush, so the random sequence is a pure function of the
				// seed.
				u := st.rng.Float64()
				st.candRegion = pickRegion(st.drawRegions, st.cumShare, u)
				st.candAccept = st.rng.Float64() < d.RegionRate(st.candRegion, st.t)/(1+d.Amplitude)
				st.candHold = st.rng.ExpFloat64() * st.cfg.MeanHoldS
				st.drawn = true
			}
		}
		limit := st.cfg.HorizonS
		if !st.done {
			limit = st.t
		}
		if len(st.deps) > 0 && st.deps[0].timeS <= limit {
			dep := heap.Pop(&st.deps).(departure)
			if dep.timeS >= st.cfg.HorizonS {
				continue
			}
			r := d.SessionRegion[dep.session]
			st.idle[r] = append(st.idle[r], dep.session)
			return Event{TimeS: dep.timeS, Kind: EventDeparture, Session: dep.session}, true
		}
		if st.done {
			return Event{}, false
		}
		st.drawn = false
		if !st.candAccept || len(st.idle[st.candRegion]) == 0 {
			continue // thinned out, or the region's pool is exhausted
		}
		s := st.idle[st.candRegion][0]
		st.idle[st.candRegion] = st.idle[st.candRegion][1:]
		heap.Push(&st.deps, departure{timeS: st.t + st.candHold, session: s})
		return Event{TimeS: st.t, Kind: EventArrival, Session: s}, true
	}
}
