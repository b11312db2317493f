package vconf

import (
	"io"

	"vconf/internal/confsim"
	"vconf/internal/core"
	"vconf/internal/experiments"
	"vconf/internal/model"
)

// SaveScenario serializes a scenario to w as versioned JSON, suitable for
// checking workloads into a repository or sharing failing instances.
func SaveScenario(sc *Scenario, w io.Writer) error { return sc.WriteJSON(w) }

// LoadScenario deserializes a scenario written by SaveScenario, running full
// validation.
func LoadScenario(r io.Reader) (*Scenario, error) { return model.ReadJSON(r) }

// Engine is the virtual-time simulator of the Markov approximation chain.
// Obtain a configured one from Solver.Engine; use ScheduleArrival /
// ScheduleDeparture for session dynamics and Run to advance virtual time.
type Engine = core.Engine

// Bootstrapper installs one session's initial assignment (see
// Solver.Bootstrapper).
type Bootstrapper = core.Bootstrapper

// HopResult describes one executed hop of the chain.
type HopResult = core.HopResult

// Engine builds a virtual-time engine configured with the solver's β,
// objective scale, countdown and seed. Sessions start inactive: activate
// them with Engine.ActivateSession(sid, solver.Bootstrapper()) or schedule
// arrivals.
func (s *Solver) Engine() (*Engine, error) {
	return core.NewEngine(s.ev, s.coreConfig())
}

// Bootstrapper returns the solver's per-session bootstrap hook (AgRank or
// nearest, per WithInit).
func (s *Solver) Bootstrapper() Bootstrapper { return s.bootstrapper() }

// Runtime is the simulated conferencing data plane: frame relay,
// transcoding, and dual-feed migrations (see the confsim package).
type Runtime = confsim.Runtime

// RuntimeConfig tunes the data plane.
type RuntimeConfig = confsim.Config

// Telemetry is one data-plane tick measurement.
type Telemetry = confsim.Telemetry

// DefaultRuntimeConfig matches the paper's prototype: 30 fps, 30 ms
// dual-feed migration overlap, 2% measurement jitter.
func DefaultRuntimeConfig(seed int64) RuntimeConfig { return confsim.DefaultConfig(seed) }

// NewRuntime builds a data-plane runtime for the scenario using the solver's
// objective parameters for traffic accounting.
func (s *Solver) NewRuntime(cfg RuntimeConfig) (*Runtime, error) {
	return confsim.New(s.sc, s.params, cfg)
}

// Fig2Scenario builds the paper's motivating example (Fig. 2): one session
// of four users (CA, BR, JP, HK) over four agents (Oregon, Tokyo, Singapore,
// São Paulo) with the measured latencies printed in the paper.
func Fig2Scenario() (*Scenario, error) { return experiments.BuildFig2Scenario() }

func (s *Solver) coreConfig() core.Config {
	return core.Config{
		Beta:           s.beta,
		ObjectiveScale: s.scale,
		MeanCountdownS: s.countdownS,
		Mode:           core.PaperHop,
		Seed:           s.seed,
	}
}
