package vconf

import (
	"vconf/internal/orchestrator"
	"vconf/internal/workload"
)

// ChurnConfig parameterizes a Poisson session-churn process: arrivals at
// rate λ, exponential session lifetimes, over the scenario's session pool
// (the continuous generalization of Fig. 5's fixed arrival/departure
// batches).
type ChurnConfig = workload.ChurnConfig

// ChurnEvent is one session arrival or departure at a virtual time.
type ChurnEvent = workload.Event

// ChurnEventKind distinguishes arrivals from departures.
type ChurnEventKind = workload.EventKind

// Churn event kinds.
const (
	ChurnArrival   = workload.EventArrival
	ChurnDeparture = workload.EventDeparture
)

// GenerateChurn builds a deterministic (seeded) churn schedule: Poisson
// arrivals, exponential hold times, departed sessions returning to the idle
// pool for reuse. It drains NewChurnEventSource; events are returned in
// time order.
func GenerateChurn(cfg ChurnConfig) ([]ChurnEvent, error) {
	return workload.PoissonSchedule(cfg)
}

// Orchestrator is the online churn control plane: it consumes ChurnEvent
// streams, maintains the live assignment, and re-optimizes incrementally on
// a sharded solver pool, mirroring accepted moves to an attached data-plane
// Runtime as dual-feed migrations (see the orchestrator package
// documentation for the architecture).
type Orchestrator = orchestrator.Orchestrator

// OrchestratorConfig tunes the orchestrator: Shards sets the solver worker
// count (and the lock-striped capacity ledger's stripe count: one ID-range
// stripe per worker), plus the per-task hop budget,
// touched-set cap, N_ngbr candidate window (Core.NeighborWindow) and the
// refinement chain parameters. Every event goes through the scheduler
// (internal/pipeline), which re-optimizes one event at a time;
// MaxInFlight (default 1) lets admission run that many events ahead of it,
// and reports still arrive in schedule order. Pipeline is deprecated and
// has no effect.
type OrchestratorConfig = orchestrator.Config

// OrchestratorStats aggregates orchestrator activity counters.
type OrchestratorStats = orchestrator.Stats

// ChurnEventReport describes the handling of one churn event: admission
// outcome, re-optimized sessions, commit counts, re-optimization latency
// and the post-event objective.
type ChurnEventReport = orchestrator.EventReport

// DefaultOrchestratorConfig returns the orchestrator defaults (GOMAXPROCS
// shards, 24-hop refinement budget) over the paper's chain settings.
func DefaultOrchestratorConfig(seed int64) OrchestratorConfig {
	return orchestrator.DefaultConfig(seed)
}

// NewOrchestrator builds an online churn orchestrator over the solver's
// scenario, objective and bootstrap policy. The orchestrator starts with no
// live sessions; drive it with HandleEvent or Run over a GenerateChurn
// schedule, and call Close when done.
func (s *Solver) NewOrchestrator(cfg OrchestratorConfig) (*Orchestrator, error) {
	return orchestrator.New(s.ev, s.bootstrapper(), cfg)
}

// FullResolve runs a from-scratch re-solve over the given active session
// set for durationS virtual seconds — the offline oracle incremental
// re-optimization is judged against. Returns the oracle assignment and its
// objective over the active set.
func (s *Solver) FullResolve(active []SessionID, durationS float64) (*Assignment, float64, error) {
	return orchestrator.Oracle(s.ev, active, s.bootstrapper(), s.coreConfig(), durationS)
}
