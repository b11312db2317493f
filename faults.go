package vconf

import (
	"vconf/internal/faults"
	"vconf/internal/workload"
)

// Fault event kinds, carried on ChurnEvent.Kind alongside arrivals and
// departures. The orchestrator heals them in-line: failures orphan the
// affected sessions and evacuate them through the re-optimization pipeline,
// recoveries trigger a re-balance of the sessions that can now reach the
// restored capacity.
const (
	FaultAgentFail       = workload.EventAgentFail
	FaultAgentRecover    = workload.EventAgentRecover
	FaultRegionOutage    = workload.EventRegionOutage
	FaultRegionRecover   = workload.EventRegionRecover
	FaultCapacityDegrade = workload.EventCapacityDegrade
	FaultFlashCrowd      = workload.EventFlashCrowd
)

// FaultConfig parameterizes the seeded fault-injection engine: per-agent
// MTBF/MTTR failure renewals, correlated regional outages, partial capacity
// degradations, and per-region flash crowds bursting from reserved session
// pools (see internal/faults for the fault model and determinism
// guarantees).
type FaultConfig = faults.Config

// GenerateFaults builds a deterministic fault schedule by draining
// NewFaultEventSource: the same seed and config always yield
// byte-identical events, and each fault process draws from an independent
// sub-stream, so enabling one never shifts another. Merge with a churn
// schedule via MergeSchedules.
func GenerateFaults(cfg FaultConfig) ([]ChurnEvent, error) { return faults.Schedule(cfg) }

// MergeSchedules stably interleaves two time-ordered schedules (ties keep
// a's events first) — e.g. Poisson churn plus a fault schedule into one
// orchestrator input.
func MergeSchedules(a, b []ChurnEvent) []ChurnEvent { return faults.Merge(a, b) }

// AgentRegions returns the agent → region map of a regional synthetic fleet
// (agent i lives in region i mod regions) — the map FaultConfig.AgentRegion
// and OrchestratorConfig.AgentRegion consume.
func AgentRegions(numAgents, regions int) []int { return workload.AgentRegions(numAgents, regions) }
