package workload

import (
	"container/heap"
	"math/rand"
)

// refPoissonSchedule is the eager churn generator ChurnSource replaced,
// kept verbatim as the reference the lazy stream is compared against.
func refPoissonSchedule(cfg ChurnConfig) ([]Event, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.Diurnal != nil {
		return diurnalSchedule(cfg)
	}
	rng := rand.New(rand.NewSource(cfg.Seed))

	idle := make([]int, 0, cfg.NumSessions)
	for s := cfg.InitialActive; s < cfg.NumSessions; s++ {
		idle = append(idle, s)
	}
	var deps departureHeap
	for s := 0; s < cfg.InitialActive; s++ {
		heap.Push(&deps, departure{timeS: rng.ExpFloat64() * cfg.MeanHoldS, session: s})
	}

	var events []Event
	flushUntil := func(t float64) {
		for len(deps) > 0 && deps[0].timeS <= t {
			d := heap.Pop(&deps).(departure)
			if d.timeS >= cfg.HorizonS {
				continue
			}
			events = append(events, Event{TimeS: d.timeS, Kind: EventDeparture, Session: d.session})
			idle = append(idle, d.session)
		}
	}

	t := 0.0
	for {
		t += rng.ExpFloat64() / cfg.ArrivalRatePerS
		if t >= cfg.HorizonS {
			break
		}
		flushUntil(t)
		if len(idle) == 0 {
			continue // pool exhausted: drop this arrival
		}
		s := idle[0]
		idle = idle[1:]
		events = append(events, Event{TimeS: t, Kind: EventArrival, Session: s})
		heap.Push(&deps, departure{timeS: t + rng.ExpFloat64()*cfg.MeanHoldS, session: s})
	}
	flushUntil(cfg.HorizonS)
	return events, nil
}

// diurnalSchedule is the Diurnal path of refPoissonSchedule: a
// non-homogeneous Poisson process per region, realized by exact thinning of
// one merged candidate process. Candidates arrive at the constant peak rate
// Λmax = λ·(1+A) (region shares w_r sum to 1); each candidate picks a
// region with probability w_r and survives with probability
// M_r(t)/(1+A) — the standard thinning construction, so the surviving
// stream is exactly the target non-homogeneous process. Departures reuse
// the shared exponential-hold heap; departed sessions return to their
// region's idle pool.
func diurnalSchedule(cfg ChurnConfig) ([]Event, error) {
	d := cfg.Diurnal
	rng := rand.New(rand.NewSource(cfg.Seed))
	R := len(d.PeakFrac)

	// Region shares w_r ∝ the region's session-pool size: a region with
	// more sessions carries proportionally more of the global rate λ.
	poolSize := make([]int, R)
	for s := 0; s < cfg.NumSessions; s++ {
		poolSize[d.SessionRegion[s]]++
	}
	drawRegions, cumShare := diurnalShares(poolSize, cfg.NumSessions)

	// Per-region idle pools; sessions below InitialActive start live.
	idle := make([][]int, R)
	var deps departureHeap
	for s := 0; s < cfg.NumSessions; s++ {
		if s < cfg.InitialActive {
			heap.Push(&deps, departure{timeS: rng.ExpFloat64() * cfg.MeanHoldS, session: s})
		} else {
			r := d.SessionRegion[s]
			idle[r] = append(idle[r], s)
		}
	}

	var events []Event
	flushUntil := func(t float64) {
		for len(deps) > 0 && deps[0].timeS <= t {
			dep := heap.Pop(&deps).(departure)
			if dep.timeS >= cfg.HorizonS {
				continue
			}
			events = append(events, Event{TimeS: dep.timeS, Kind: EventDeparture, Session: dep.session})
			r := d.SessionRegion[dep.session]
			idle[r] = append(idle[r], dep.session)
		}
	}

	maxRate := cfg.ArrivalRatePerS * (1 + d.Amplitude)
	t := 0.0
	for {
		t += rng.ExpFloat64() / maxRate
		if t >= cfg.HorizonS {
			break
		}
		// Draw the candidate's region and thinning acceptance before the
		// flush, so the random sequence is a pure function of the seed.
		u := rng.Float64()
		r := pickRegion(drawRegions, cumShare, u)
		accept := rng.Float64() < d.RegionRate(r, t)/(1+d.Amplitude)
		hold := rng.ExpFloat64() * cfg.MeanHoldS
		flushUntil(t)
		if !accept || len(idle[r]) == 0 {
			continue // thinned out, or the region's pool is exhausted
		}
		s := idle[r][0]
		idle[r] = idle[r][1:]
		events = append(events, Event{TimeS: t, Kind: EventArrival, Session: s})
		heap.Push(&deps, departure{timeS: t + hold, session: s})
	}
	flushUntil(cfg.HorizonS)
	return events, nil
}
