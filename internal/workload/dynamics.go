package workload

import (
	"fmt"
	"math"
)

// EventKind distinguishes churn and fault events.
type EventKind int

// Event kinds. The first two are session churn; the rest are fault-injection
// events generated by internal/faults (agent/region failure and recovery,
// partial capacity degradation, and flash-crowd onset markers).
const (
	EventArrival EventKind = iota + 1
	EventDeparture
	// EventAgentFail takes agent Agent fully out of service (capacity
	// scale 0); EventAgentRecover restores it.
	EventAgentFail
	EventAgentRecover
	// EventRegionOutage fails every agent of region Region at once — the
	// correlated whole-region failure mode; EventRegionRecover restores
	// them.
	EventRegionOutage
	EventRegionRecover
	// EventCapacityDegrade partially degrades agent Agent to Scale × its
	// nominal capacities (Scale 1 restores).
	EventCapacityDegrade
	// EventFlashCrowd marks the onset of a burst of arrivals concentrated
	// on region Region; the burst's arrivals follow as ordinary
	// EventArrival events in the same schedule.
	EventFlashCrowd
)

// IsFault reports whether k is a fault-injection kind (anything but session
// arrival/departure).
func (k EventKind) IsFault() bool {
	return k != EventArrival && k != EventDeparture
}

// String names the kind for telemetry labels and logs.
func (k EventKind) String() string {
	switch k {
	case EventArrival:
		return "arrive"
	case EventDeparture:
		return "depart"
	case EventAgentFail:
		return "agent-fail"
	case EventAgentRecover:
		return "agent-recover"
	case EventRegionOutage:
		return "region-outage"
	case EventRegionRecover:
		return "region-recover"
	case EventCapacityDegrade:
		return "degrade"
	case EventFlashCrowd:
		return "flash-crowd"
	}
	return "unknown"
}

// Source ranks for merged schedules. A merged churn+fault stream orders
// events by (TimeS, Rank): on equal timestamps the churn schedule's event
// precedes the fault schedule's. Making it a field means the lazy engine
// (internal/sim) and faults.Merge over slices cannot diverge on ties,
// whatever order sources are registered.
const (
	// RankChurn marks events from the churn generator (ChurnSource); it is
	// the zero value.
	RankChurn = 0
	// RankFaults marks every event of a fault schedule — including the
	// flash-crowd burst arrivals/departures, which are churn *kinds* but
	// come from the fault schedule's reserved pools.
	RankFaults = 1
)

// Event is one session arrival or departure — or one fault-injection event —
// at a virtual time. Session is meaningful for churn kinds only (fault
// events carry -1); Agent for the per-agent fault kinds, Region for the
// regional ones, Scale for EventCapacityDegrade. Incident is the fault
// schedule's deterministic incident id (1-based, assigned by
// faults.Source in time order); 0 marks churn events, so telemetry can
// correlate alert timelines and flight-recorder dumps with the injected
// fault that caused them. Rank is the producing schedule's merge rank
// (RankChurn or RankFaults): the tie-breaking key on equal timestamps.
type Event struct {
	TimeS    float64
	Kind     EventKind
	Session  int
	Agent    int
	Region   int
	Scale    float64
	Incident int
	Rank     int
}

// Before reports whether e orders strictly before b in a merged schedule:
// ascending time, then ascending rank (churn before faults) on equal
// timestamps. Events equal on both keys are ordered by their producer
// (generation order within a schedule, first-operand-first in a merge).
func (e Event) Before(b Event) bool {
	if e.TimeS != b.TimeS {
		return e.TimeS < b.TimeS
	}
	return e.Rank < b.Rank
}

// ChurnConfig parameterizes a Poisson session-churn process — the
// continuous generalization of Fig. 5's fixed batches, for stressing the
// chain's adaptivity claims (§IV-A-4: "robust to variations due to session
// dynamics").
type ChurnConfig struct {
	Seed int64
	// HorizonS is the schedule length in virtual seconds.
	HorizonS float64
	// ArrivalRatePerS is the Poisson arrival rate λ.
	ArrivalRatePerS float64
	// MeanHoldS is the mean session lifetime (exponential).
	MeanHoldS float64
	// NumSessions bounds the session pool; an arrival is dropped when every
	// session of the scenario is already active.
	NumSessions int
	// InitialActive sessions are active at t = 0 (their departures are
	// scheduled like everyone else's).
	InitialActive int
	// Diurnal, when non-nil, modulates arrivals with per-region time-of-day
	// rate curves (follow-the-sun load). Nil keeps the homogeneous Poisson
	// generator.
	Diurnal *DiurnalConfig
}

// DiurnalConfig turns the homogeneous arrival process into a
// non-homogeneous one with a per-region time-of-day rate curve: region r
// arrives at rate λ·w_r·(1 + A·cos(2π(t/DayS − PeakFrac[r]))), where w_r is
// the region's share of the session pool — so each region's load peaks at
// its own local afternoon and troughs half a (virtual) day away, the
// follow-the-sun shape of real conferencing fleets. Implemented by exact
// Poisson thinning, so schedules stay deterministic per seed.
type DiurnalConfig struct {
	// DayS is the virtual day length in seconds (the curve's period).
	DayS float64
	// Amplitude A ∈ [0, 1]: rates swing between (1−A)·λ_r and (1+A)·λ_r.
	Amplitude float64
	// PeakFrac[r] is region r's peak time as a fraction of the day;
	// FollowTheSunPeaks staggers them evenly.
	PeakFrac []float64
	// SessionRegion maps every scenario session ID (0..NumSessions-1) to a
	// region index into PeakFrac — GenerateSyntheticFleetRegions produces
	// this alongside regional fleets.
	SessionRegion []int
}

// FollowTheSunPeaks returns n regional peak fractions staggered evenly
// across the day — region i peaks at i/n of a day, the canonical
// follow-the-sun configuration.
func FollowTheSunPeaks(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = float64(i) / float64(n)
	}
	return out
}

// RegionRate returns region r's instantaneous rate multiplier at time t.
// A non-positive DayS (rejected by Validate, but reachable through a
// hand-built config) yields a flat curve instead of dividing by zero.
func (d DiurnalConfig) RegionRate(r int, t float64) float64 {
	if d.DayS <= 0 {
		return 1
	}
	return 1 + d.Amplitude*math.Cos(2*math.Pi*(t/d.DayS-d.PeakFrac[r]))
}

func (d DiurnalConfig) validate(numSessions int) error {
	if !(d.DayS > 0) {
		return fmt.Errorf("workload: diurnal day length must be positive")
	}
	if !(d.Amplitude >= 0 && d.Amplitude <= 1) {
		return fmt.Errorf("workload: diurnal amplitude %v outside [0, 1]", d.Amplitude)
	}
	if len(d.PeakFrac) < 1 {
		return fmt.Errorf("workload: diurnal config needs at least one region peak")
	}
	if len(d.SessionRegion) < numSessions {
		return fmt.Errorf("workload: diurnal session-region map covers %d of %d sessions",
			len(d.SessionRegion), numSessions)
	}
	for s, r := range d.SessionRegion[:numSessions] {
		if r < 0 || r >= len(d.PeakFrac) {
			return fmt.Errorf("workload: session %d mapped to region %d outside [0, %d)",
				s, r, len(d.PeakFrac))
		}
	}
	return nil
}

// Validate checks the configuration.
func (c ChurnConfig) Validate() error {
	if !(c.HorizonS > 0 && c.ArrivalRatePerS > 0 && c.MeanHoldS > 0) ||
		math.IsInf(c.HorizonS, 1) || math.IsInf(c.ArrivalRatePerS, 1) {
		return fmt.Errorf("workload: churn horizon, rate and hold time must be positive, horizon and rate finite")
	}
	if c.NumSessions < 1 || c.InitialActive < 0 || c.InitialActive > c.NumSessions {
		return fmt.Errorf("workload: invalid session counts %d/%d", c.InitialActive, c.NumSessions)
	}
	if c.Diurnal != nil {
		return c.Diurnal.validate(c.NumSessions)
	}
	return nil
}

// departure is a heap entry.
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

// PoissonSchedule materializes the churn stream of cfg (see
// NewChurnSource): arrivals follow a Poisson process with rate λ — or, with
// Diurnal set, the per-region time-of-day curves — each session departs
// after an exponential hold time, and departed sessions return to the idle
// pool for reuse. Events are in time order; every departure follows its
// matching arrival (initially-active sessions depart without a recorded
// arrival, since they are active before t = 0).
func PoissonSchedule(cfg ChurnConfig) ([]Event, error) {
	src, err := NewChurnSource(cfg)
	if err != nil {
		return nil, err
	}
	var events []Event
	for ev, ok := src.Next(); ok; ev, ok = src.Next() {
		events = append(events, ev)
	}
	return events, nil
}

// diurnalShares builds the candidate-region draw table: the regions with a
// nonzero session pool (w_r > 0) and their cumulative shares
// w_r = poolSize[r]/numSessions. Regions configured with zero sessions
// carry zero share and are excluded outright — they must never be drawn as
// a candidate, not even through the float-rounding fallback below, and
// excluding them also keeps the draw well-defined without dividing by a
// zero pool anywhere. When every region is populated the table is
// identical to the full region list, so existing seeds replay byte-identical
// schedules.
func diurnalShares(poolSize []int, numSessions int) (drawRegions []int, cumShare []float64) {
	drawRegions = make([]int, 0, len(poolSize))
	cumShare = make([]float64, 0, len(poolSize))
	acc := 0.0
	for r, n := range poolSize {
		if n == 0 {
			continue
		}
		acc += float64(n) / float64(numSessions)
		drawRegions = append(drawRegions, r)
		cumShare = append(cumShare, acc)
	}
	return drawRegions, cumShare
}

// pickRegion maps a uniform draw u ∈ [0,1) to a drawable region via the
// cumulative share table. Float accumulation can leave the final cumulative
// share marginally below 1, so the fallback for u beyond it is the last
// *drawable* region — never a zero-share one.
func pickRegion(drawRegions []int, cumShare []float64, u float64) int {
	r := drawRegions[len(drawRegions)-1]
	for i, c := range cumShare {
		if u < c {
			r = drawRegions[i]
			break
		}
	}
	return r
}
