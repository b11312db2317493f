// Package core implements the paper's primary contribution: the Markov
// approximation-based parallel assignment algorithm (Alg. 1, §IV-A).
//
// Each conferencing session runs a local chain: it waits an exponentially
// distributed countdown (mean 1/τ), then "hops" — migrates to a feasible
// assignment differing in exactly one decision variable, chosen with
// probability ∝ exp(½β(Φ_s,f − Φ_s,f')). Only session-local objectives are
// needed, which is what makes the algorithm parallel. The realized chain's
// stationary distribution concentrates on low-objective states as β grows;
// the optimality gap is bounded by (U+θ_sum)·log L/β (Theorem 1).
//
// Engine, a deterministic virtual-time event simulator (seeded), runs the
// chains for every experiment and benchmark. It reproduces the paper's
// time-series figures and supports session arrival/departure dynamics
// (Fig. 5). The same hop logic also drives the online orchestrator and the
// decentralized deployment of §IV-A in internal/dist, where the
// FREEZE/UNFREEZE exchange is a real network protocol.
package core

import (
	"fmt"

	"vconf/internal/assign"
	"vconf/internal/cost"
	"vconf/internal/model"
)

// HopMode selects how hop timing interacts with transition rates.
type HopMode int

const (
	// PaperHop reproduces Alg. 1 as printed: a fixed-mean exponential
	// countdown per session, then a jump distributed proportionally to
	// exp(½β(Φ_f − Φ_f')) over the feasible neighbors.
	PaperHop HopMode = iota + 1
	// ExactCTMC realizes the continuous-time chain with transition rates
	// q_{f,f'} = τ·exp(½β(Φ_f − Φ_f')) exactly: the holding time in a state
	// is exponential with the state's total outgoing rate. Its stationary
	// distribution is exactly Eq. (9); used by the Theorem-1 validation.
	ExactCTMC
)

// NoiseFunc perturbs an objective reading (see the noise package). nil means
// noiseless evaluation.
type NoiseFunc func(phi float64) float64

// Config parameterizes the chain.
type Config struct {
	// Beta is β: larger values concentrate the stationary distribution on
	// optimal states but slow convergence (§IV-A-4). The paper uses 400,
	// "proportional to the logarithm of the problem state space".
	Beta float64
	// ObjectiveScale multiplies Φ before β is applied. The paper does not
	// state its objective normalization; with traffic in Mbps and delay in
	// ms, raw Φ differences are tens of units and β = 400 would make the
	// chain purely greedy. The default 0.01 reproduces the paper's observed
	// behavior (fluctuations around convergence, β = 200 noisier than 400).
	ObjectiveScale float64
	// MeanCountdownS is 1/τ: the mean WAIT countdown in virtual seconds
	// between hops of one session. The paper's prototype uses 10 s.
	MeanCountdownS float64
	// Mode selects PaperHop (default) or ExactCTMC.
	Mode HopMode
	// Seed drives all randomness of the engine.
	Seed int64
	// Noise optionally perturbs every objective reading (Theorem 1's
	// measurement-error model).
	Noise NoiseFunc
	// NeighborWindow caps the hop candidate set to each variable's k
	// delay-nearest agents (the paper's N_ngbr pruning, Fig. 10), cutting
	// per-hop cost from O(L·session) to O(k·session) at controlled
	// optimality loss. 0 (default) keeps the full neighbor scan — for fixed
	// seeds the output is then unchanged.
	NeighborWindow int
}

// DefaultConfig returns the paper's settings: β = 400, 10 s countdowns.
func DefaultConfig(seed int64) Config {
	return Config{
		Beta:           400,
		ObjectiveScale: 0.01,
		MeanCountdownS: 10,
		Mode:           PaperHop,
		Seed:           seed,
	}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.Beta <= 0 {
		return fmt.Errorf("core: beta must be positive, got %v", c.Beta)
	}
	if c.ObjectiveScale <= 0 {
		return fmt.Errorf("core: objective scale must be positive, got %v", c.ObjectiveScale)
	}
	if c.MeanCountdownS <= 0 {
		return fmt.Errorf("core: mean countdown must be positive, got %v", c.MeanCountdownS)
	}
	if c.Mode != PaperHop && c.Mode != ExactCTMC {
		return fmt.Errorf("core: invalid hop mode %d", c.Mode)
	}
	if c.NeighborWindow < 0 {
		return fmt.Errorf("core: neighbor window must be non-negative, got %d", c.NeighborWindow)
	}
	return nil
}

// Bootstrapper installs an initial feasible assignment for one session and
// accounts it in the ledger (adapters wrap baseline.AssignSessionNearest and
// agrank.BootstrapSession). It takes the ledger API rather than the dense
// implementation so the same bootstrap policies admit sessions against the
// orchestrator's lock-striped sharded ledger (internal/shard).
type Bootstrapper func(a *assign.Assignment, s model.SessionID, ledger cost.LedgerAPI) error

// Sample is one observation of the system state at a virtual time.
type Sample struct {
	TimeS          float64
	TrafficMbps    float64 // Σ over active sessions of inter-agent traffic
	MeanDelayMS    float64 // mean over users of max incoming-flow delay
	Objective      float64 // Σ active-session Φ_s (noiseless reading)
	ActiveSessions int
	Hops           int // cumulative hop events so far
	Moves          int // cumulative hops that migrated (≠ stay-in-place)
	// PerSession maps active sessions to their individual observables.
	PerSession map[model.SessionID]SessionSample
}

// SessionSample is one session's observables.
type SessionSample struct {
	TrafficMbps float64
	MeanDelayMS float64
	Objective   float64
}
