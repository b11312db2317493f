package faults

import (
	"container/heap"
	"math/rand"
	"sort"

	"vconf/internal/workload"
)

// refSchedule is the eager fault generator Source replaced: one sub-stream
// per (process, target), concatenated in a fixed order and stable-sorted
// on time, then numbered. It is kept verbatim as the reference the lazy
// stream is compared against.
func refSchedule(cfg Config) ([]workload.Event, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	var events []workload.Event

	if cfg.AgentMTBFS > 0 {
		for a := 0; a < cfg.NumAgents; a++ {
			rng := subRNG(cfg.Seed, tagAgentFail, a)
			renewal(rng, cfg.HorizonS, cfg.AgentMTBFS, cfg.AgentMTTRS, func(t float64, up bool) workload.Event {
				k := workload.EventAgentFail
				if up {
					k = workload.EventAgentRecover
				}
				return workload.Event{TimeS: t, Kind: k, Session: -1, Agent: a, Region: regionOf(cfg.AgentRegion, a)}
			}, &events)
		}
	}
	if cfg.RegionMTBFS > 0 {
		for r := 0; r < cfg.numRegions(); r++ {
			rng := subRNG(cfg.Seed, tagRegionOutage, r)
			r := r
			renewal(rng, cfg.HorizonS, cfg.RegionMTBFS, cfg.RegionMTTRS, func(t float64, up bool) workload.Event {
				k := workload.EventRegionOutage
				if up {
					k = workload.EventRegionRecover
				}
				return workload.Event{TimeS: t, Kind: k, Session: -1, Agent: -1, Region: r}
			}, &events)
		}
	}
	if cfg.DegradeMTBFS > 0 {
		for a := 0; a < cfg.NumAgents; a++ {
			rng := subRNG(cfg.Seed, tagDegrade, a)
			t := 0.0
			for {
				t += rng.ExpFloat64() * cfg.DegradeMTBFS
				if t >= cfg.HorizonS {
					break
				}
				scale := cfg.DegradeFloor + (1-cfg.DegradeFloor)*rng.Float64()
				events = append(events, workload.Event{TimeS: t, Kind: workload.EventCapacityDegrade,
					Session: -1, Agent: a, Region: regionOf(cfg.AgentRegion, a), Scale: scale})
				t += rng.ExpFloat64() * cfg.DegradeMTTRS
				if t >= cfg.HorizonS {
					break
				}
				events = append(events, workload.Event{TimeS: t, Kind: workload.EventCapacityDegrade,
					Session: -1, Agent: a, Region: regionOf(cfg.AgentRegion, a), Scale: 1})
			}
		}
	}
	if cfg.FlashMTBFS > 0 {
		for r := range cfg.FlashSessions {
			flashStream(cfg, r, &events)
		}
	}

	// Streams were appended in a fixed order, so a stable sort on time alone
	// keeps the schedule a pure function of the Config.
	sort.SliceStable(events, func(i, j int) bool { return events[i].TimeS < events[j].TimeS })
	// Incident ids number the fault-kind events in schedule order (1-based;
	// burst arrivals/departures stay 0 like ordinary churn). Assigned after
	// the sort so the id ↔ time order correlation survives any mix of
	// processes, giving telemetry a deterministic key to join alert
	// timelines and flight-recorder dumps against.
	seq := 0
	for i := range events {
		// Every event of the fault schedule — burst churn included — carries
		// the fault-side merge rank, so equal-timestamp ties against the
		// churn schedule resolve identically in Merge and in the lazy engine.
		events[i].Rank = workload.RankFaults
		if events[i].Kind.IsFault() {
			seq++
			events[i].Incident = seq
		}
	}
	return events, nil
}

// renewal walks one fail/recover renewal process over the horizon.
func renewal(rng *rand.Rand, horizonS, mtbfS, mttrS float64, mk func(t float64, up bool) workload.Event, out *[]workload.Event) {
	t := 0.0
	for {
		t += rng.ExpFloat64() * mtbfS
		if t >= horizonS {
			return
		}
		*out = append(*out, mk(t, false))
		t += rng.ExpFloat64() * mttrS
		if t >= horizonS {
			return // failed through the horizon: no recovery event
		}
		*out = append(*out, mk(t, true))
	}
}

// flashStream generates region r's flash-crowd onsets: a marker event plus a
// burst of arrivals from the region's reserved pool, each with an
// exponential-hold departure (same idle-pool recycling as PoissonSchedule).
func flashStream(cfg Config, r int, out *[]workload.Event) {
	rng := subRNG(cfg.Seed, tagFlash, r)
	idle := append([]int(nil), cfg.FlashSessions[r]...)
	var deps departureHeap
	flushUntil := func(t float64) {
		for len(deps) > 0 && deps[0].timeS <= t {
			d := heap.Pop(&deps).(departure)
			if d.timeS >= cfg.HorizonS {
				continue
			}
			*out = append(*out, workload.Event{TimeS: d.timeS, Kind: workload.EventDeparture, Session: d.session, Region: r})
			idle = append(idle, d.session)
		}
	}
	t := 0.0
	for {
		t += rng.ExpFloat64() * cfg.FlashMTBFS
		if t >= cfg.HorizonS {
			break
		}
		flushUntil(t)
		*out = append(*out, workload.Event{TimeS: t, Kind: workload.EventFlashCrowd, Session: -1, Agent: -1, Region: r})
		for j := 0; j < cfg.FlashIntensity && len(idle) > 0; j++ {
			// Stagger burst arrivals by a millisecond each so the merged
			// schedule orders them deterministically after the marker.
			at := t + float64(j+1)*1e-3
			if at >= cfg.HorizonS {
				break
			}
			// Draw the hold before the next flush so the random sequence is a
			// pure function of the seed regardless of heap state.
			hold := rng.ExpFloat64() * cfg.FlashHoldS
			flushUntil(at)
			s := idle[0]
			idle = idle[1:]
			*out = append(*out, workload.Event{TimeS: at, Kind: workload.EventArrival, Session: s, Region: r})
			heap.Push(&deps, departure{timeS: at + hold, session: s})
		}
	}
	flushUntil(cfg.HorizonS)
}
