package vconf

import (
	"io"

	"vconf/internal/faults"
	"vconf/internal/sim"
	"vconf/internal/workload"
)

// Virtual-clock discrete-event core (see internal/sim). Lazy pull-based
// sources generate events on demand and the engine merges them in
// deterministic order (time, then event rank, then source registration
// order) under a virtual clock — memory stays O(in-flight) however long
// the horizon. The churn and fault sources are the only generators:
// GenerateChurn and GenerateFaults drain them, so an engine over both
// yields exactly MergeSchedules(GenerateChurn, GenerateFaults) for the same
// configs. Orchestrator.RunSource consumes an engine directly.

// SimEventSource is the pull contract lazy generators satisfy: events in
// non-decreasing time order, ok=false at exhaustion.
type SimEventSource = sim.EventSource

// SimEngine merges any number of lazy sources into one deterministic
// time-ordered stream under a virtual clock.
type SimEngine = sim.Engine

// NewSimEngine builds an engine over the given sources. Registration order
// is the final tie-breaker for simultaneous events of equal rank.
func NewSimEngine(sources ...SimEventSource) *SimEngine { return sim.New(sources...) }

// NewChurnEventSource builds the lazy churn stream; GenerateChurn is its
// drain into a slice.
func NewChurnEventSource(cfg ChurnConfig) (SimEventSource, error) {
	return workload.NewChurnSource(cfg)
}

// NewFaultEventSource builds the lazy fault stream; GenerateFaults is its
// drain into a slice.
func NewFaultEventSource(cfg FaultConfig) (SimEventSource, error) { return faults.NewSource(cfg) }

// TraceDigest is the per-event decision fingerprint carried in a trace:
// the post-event objective Φ (bit-exact), active sessions and commits.
type TraceDigest = sim.Digest

// TraceDivergence is the first decision mismatch of a replay or a
// trace-vs-trace comparison; it satisfies error.
type TraceDivergence = sim.Divergence

// CompareTraces reads two recorded traces in lockstep (O(1) memory) and
// returns the first divergence (nil when equivalent) plus the number of
// records compared.
func CompareTraces(a, b io.Reader) (*TraceDivergence, uint64, error) { return sim.CompareTraces(a, b) }
