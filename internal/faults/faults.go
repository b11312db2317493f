// Package faults is the seeded, deterministic fault-injection engine: it
// turns a Config of per-process MTBF/MTTR parameters into a time-ordered
// stream of workload fault events (agent failures, correlated regional
// outages, partial capacity degradations, flash-crowd arrival storms) that
// merges deterministically with the Poisson/diurnal churn stream from
// internal/workload. Source generates the stream lazily; Schedule drains
// it into a slice.
//
// Determinism contract: the same Config (seed included) yields a
// byte-identical event schedule, and Merge is a stable two-way merge, so
// (churn schedule, fault schedule) → merged schedule is a pure function.
// Each fault process draws from its own derived RNG stream (splitmix-mixed
// from the seed, a process tag and the target index), so enabling or
// disabling one process never perturbs another's draws.
package faults

import (
	"fmt"
	"math"
	"math/rand"

	"vconf/internal/workload"
)

// Config parameterizes the fault schedule. Every process is a renewal
// process per target (agent or region): exponential time-to-failure with the
// given MTBF, then exponential time-to-recovery with the given MTTR. A zero
// MTBF disables that process.
type Config struct {
	Seed int64
	// HorizonS is the schedule length in virtual seconds (recovery events
	// beyond it are dropped: the target stays failed through the end).
	HorizonS float64
	// NumAgents is the fleet size the per-agent processes draw over.
	NumAgents int
	// AgentRegion maps agent → region. Required for regional outages and
	// flash crowds; nil disables both.
	AgentRegion []int

	// AgentMTBFS / AgentMTTRS drive whole-agent failures (capacity scale 0)
	// and recoveries, independently per agent.
	AgentMTBFS float64
	AgentMTTRS float64

	// RegionMTBFS / RegionMTTRS drive correlated whole-region outages,
	// independently per region.
	RegionMTBFS float64
	RegionMTTRS float64

	// DegradeMTBFS / DegradeMTTRS drive partial capacity degradations per
	// agent: each incident draws a scale uniformly in [DegradeFloor, 1) and
	// restores to 1 after the repair time.
	DegradeMTBFS float64
	DegradeMTTRS float64
	DegradeFloor float64

	// FlashMTBFS is the mean time between flash-crowd onsets per region.
	// Each onset emits an EventFlashCrowd marker followed by up to
	// FlashIntensity arrivals from that region's reserved session pool
	// (FlashSessions[r]); each burst session departs after an exponential
	// hold with mean FlashHoldS and returns to the pool. The pools must be
	// disjoint from the churn generator's session pool — the two schedules
	// are generated independently, so a shared session would double-arrive.
	FlashMTBFS     float64
	FlashIntensity int
	FlashHoldS     float64
	FlashSessions  [][]int
}

// numRegions derives the region count from the agent-region map.
func (c Config) numRegions() int {
	n := 0
	for _, r := range c.AgentRegion {
		if r+1 > n {
			n = r + 1
		}
	}
	return n
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if !(c.HorizonS > 0 && c.HorizonS < math.Inf(1)) {
		return fmt.Errorf("faults: horizon must be positive and finite")
	}
	if c.NumAgents < 1 {
		return fmt.Errorf("faults: need at least one agent")
	}
	if c.AgentRegion != nil && len(c.AgentRegion) != c.NumAgents {
		return fmt.Errorf("faults: agent-region map covers %d of %d agents", len(c.AgentRegion), c.NumAgents)
	}
	for a, r := range c.AgentRegion {
		if r < 0 {
			return fmt.Errorf("faults: agent %d mapped to negative region %d", a, r)
		}
	}
	if !(c.AgentMTBFS >= 0 && c.RegionMTBFS >= 0 && c.DegradeMTBFS >= 0 && c.FlashMTBFS >= 0) {
		return fmt.Errorf("faults: MTBFs must be non-negative")
	}
	if c.AgentMTBFS > 0 && !(c.AgentMTTRS > 0) {
		return fmt.Errorf("faults: agent failures need a positive MTTR")
	}
	if c.RegionMTBFS > 0 {
		if !(c.RegionMTTRS > 0) {
			return fmt.Errorf("faults: region outages need a positive MTTR")
		}
		if c.AgentRegion == nil {
			return fmt.Errorf("faults: region outages need an agent-region map")
		}
	}
	if c.DegradeMTBFS > 0 {
		if !(c.DegradeMTTRS > 0) {
			return fmt.Errorf("faults: degradations need a positive MTTR")
		}
		if !(c.DegradeFloor >= 0 && c.DegradeFloor < 1) {
			return fmt.Errorf("faults: degrade floor %v outside [0, 1)", c.DegradeFloor)
		}
	}
	if c.FlashMTBFS > 0 {
		if c.FlashIntensity < 1 || !(c.FlashHoldS > 0) {
			return fmt.Errorf("faults: flash crowds need intensity ≥ 1 and a positive hold")
		}
		if c.AgentRegion == nil {
			return fmt.Errorf("faults: flash crowds need an agent-region map")
		}
		if len(c.FlashSessions) > c.numRegions() {
			return fmt.Errorf("faults: %d flash pools for %d regions", len(c.FlashSessions), c.numRegions())
		}
	}
	return nil
}

// subRNG derives an independent stream per (process tag, target index) via a
// splitmix64 finalizer over the seed — enabling one process never shifts
// another's draws.
func subRNG(seed int64, tag, idx int) *rand.Rand {
	z := uint64(seed) + uint64(tag)*0x9e3779b97f4a7c15 + uint64(idx)*0xbf58476d1ce4e5b9
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return rand.New(rand.NewSource(int64(z)))
}

// Process tags for subRNG.
const (
	tagAgentFail = iota + 1
	tagRegionOutage
	tagDegrade
	tagFlash
)

// Schedule materializes the fault stream of cfg (see NewSource): one
// renewal process per target per enabled process, merged into a single
// time-ordered slice. Deterministic: the same Config yields a
// byte-identical schedule.
func Schedule(cfg Config) ([]workload.Event, error) {
	src, err := NewSource(cfg)
	if err != nil {
		return nil, err
	}
	var events []workload.Event
	for ev, ok := src.Next(); ok; ev, ok = src.Next() {
		events = append(events, ev)
	}
	return events, nil
}

// Merge interleaves two time-ordered schedules into one by the explicit
// (TimeS, Rank) order of workload.Event.Before — on equal timestamps the
// lower-ranked (churn) event precedes, and on full key ties a's event
// precedes b's. The order does not depend on operand position: it is the
// slice form of the contract the virtual-clock engine (internal/sim)
// applies to lazy sources. Both inputs must already be time-ordered
// (Schedule and PoissonSchedule both are).
func Merge(a, b []workload.Event) []workload.Event {
	out := make([]workload.Event, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		if !b[j].Before(a[i]) {
			out = append(out, a[i])
			i++
		} else {
			out = append(out, b[j])
			j++
		}
	}
	out = append(out, a[i:]...)
	return append(out, b[j:]...)
}
