// Package vconf is a cost-effective low-delay cloud video-conferencing
// control plane: a Go reproduction of Hajiesmaili et al., "Cost-Effective
// Low-Delay Cloud Video Conferencing" (IEEE ICDCS 2015).
//
// The library jointly decides (1) which cloud agent every conferencing user
// subscribes to and (2) which agent transcodes every stream that needs
// format/bitrate conversion, minimizing the provider's bandwidth and
// transcoding cost together with the users' end-to-end delay, subject to
// per-agent capacities and the 400 ms ITU-T G.114 delay cap.
//
// Typical use:
//
//	sc, _ := vconf.GenerateWorkload(vconf.LargeScaleWorkload(1))
//	solver, _ := vconf.NewSolver(sc, vconf.WithSeed(1))
//	res, _ := solver.Optimize(200) // bootstrap with AgRank, run Alg. 1
//	fmt.Println(res.Report.InterTraffic, res.Report.MeanDelayMS)
//
// For long-running deployments under session churn, the online
// orchestrator consumes arrival/departure schedules and re-optimizes
// incrementally on a sharded solver pool:
//
//	events, _ := vconf.GenerateChurn(vconf.ChurnConfig{Seed: 1, HorizonS: 300,
//		ArrivalRatePerS: 0.1, MeanHoldS: 90, NumSessions: sc.NumSessions()})
//	orc, _ := solver.NewOrchestrator(vconf.DefaultOrchestratorConfig(1))
//	defer orc.Close()
//	reports, _ := orc.Run(events, 300)
//
// The package is a thin facade over the internal packages:
//
//	internal/core         Markov approximation engines (Alg. 1)
//	internal/agrank       AgRank bootstrap (Alg. 2)
//	internal/baseline     Nrst nearest-assignment baseline
//	internal/cost         traffic/delay/objective model (§III) + delta evaluation
//	internal/exact        exhaustive ground truth for small instances
//	internal/confsim      data-plane runtime with dual-feed migration
//	internal/orchestrator online churn control plane (event scheduler + striped-ledger re-optimization)
//	internal/dist         Alg. 1 as a TCP FREEZE/COMMIT protocol
//	internal/workload, internal/netsim, internal/transcode  substrates
package vconf

import (
	"fmt"

	"vconf/internal/agrank"
	"vconf/internal/assign"
	"vconf/internal/baseline"
	"vconf/internal/core"
	"vconf/internal/cost"
	"vconf/internal/model"
	"vconf/internal/workload"
)

// Re-exported model vocabulary. The aliases expose the full method sets of
// the internal types as the public API.
type (
	// Scenario is an immutable problem instance: users, sessions, agents
	// and delay matrices.
	Scenario = model.Scenario
	// ScenarioBuilder assembles scenarios incrementally.
	ScenarioBuilder = model.Builder
	// Agent is a cloud conferencing agent (VM) with capacities and a
	// transcoding-latency profile.
	Agent = model.Agent
	// User is a conferencing participant.
	User = model.User
	// Session groups users of one conference.
	Session = model.Session
	// Flow is a directed stream between two users of a session.
	Flow = model.Flow
	// Representation indexes a video format/bitrate configuration.
	Representation = model.Representation
	// RepSpec names a representation and its bitrate.
	RepSpec = model.RepSpec
	// RepresentationSet is the ordered set of representations in use.
	RepresentationSet = model.RepresentationSet
	// UserID, SessionID and AgentID are dense indices into a scenario.
	UserID    = model.UserID
	SessionID = model.SessionID
	AgentID   = model.AgentID

	// Assignment is one solution {λ, γ}: user subscriptions plus
	// transcoding placements.
	Assignment = assign.Assignment
	// Decision is a single-variable change between assignments.
	Decision = assign.Decision

	// Params weights the UAP objective (α1 delay, α2 traffic, α3
	// transcoding) and selects cost shapes.
	Params = cost.Params
	// SystemReport summarizes an assignment: objective, inter-agent
	// traffic, transcoding tasks, delay statistics.
	SystemReport = cost.SystemReport
	// SessionReport is the per-session analogue.
	SessionReport = cost.SessionReport

	// WorkloadConfig parameterizes random scenario generation.
	WorkloadConfig = workload.Config

	// EngineSample is one engine observation over virtual time.
	EngineSample = core.Sample
)

// NewScenarioBuilder starts building a scenario; nil selects the default
// 360p/480p/720p/1080p representation set.
func NewScenarioBuilder(reps *RepresentationSet) *ScenarioBuilder {
	return model.NewBuilder(reps)
}

// DefaultRepresentations returns the paper's four YouTube-style
// representations.
func DefaultRepresentations() *RepresentationSet { return model.DefaultRepresentations() }

// DefaultParams returns the balanced α1 = α2 = α3 = 1 objective.
func DefaultParams() Params { return cost.DefaultParams() }

// TrafficOnlyParams returns the α1 = 0 operational-cost-only objective.
func TrafficOnlyParams() Params { return cost.TrafficOnlyParams() }

// DelayOnlyParams returns the α2 = α3 = 0 delay-only objective.
func DelayOnlyParams() Params { return cost.DelayOnlyParams() }

// LargeScaleWorkload returns the paper's §V-B Internet-scale workload
// configuration (7 agents, 200 users of 256 nodes, sessions ≤ 5).
func LargeScaleWorkload(seed int64) WorkloadConfig { return workload.LargeScale(seed) }

// PrototypeWorkload returns the §V-A prototype-scale configuration
// (6 agents, ≈10 sessions of 3–5 users).
func PrototypeWorkload(seed int64) WorkloadConfig { return workload.Prototype(seed) }

// GenerateWorkload builds a random scenario from a workload configuration.
func GenerateWorkload(cfg WorkloadConfig) (*Scenario, error) { return workload.Generate(cfg) }

// InitPolicy selects the bootstrap algorithm of a Solver.
type InitPolicy int

const (
	// InitAgRank bootstraps with AgRank (Alg. 2) — the paper's recommended
	// initialization.
	InitAgRank InitPolicy = iota + 1
	// InitNearest bootstraps with the Nrst baseline (Airlift/vSkyConf).
	InitNearest
)

// Solver couples a scenario with the optimization pipeline: bootstrap
// (AgRank or Nrst) followed by the Markov approximation engine.
type Solver struct {
	sc     *Scenario
	params Params
	ev     *cost.Evaluator

	seed       int64
	beta       float64
	scale      float64
	countdownS float64
	init       InitPolicy
	nngbr      int
}

// Option customizes a Solver.
type Option func(*Solver) error

// WithParams sets the objective weights.
func WithParams(p Params) Option {
	return func(s *Solver) error {
		if err := p.Validate(); err != nil {
			return err
		}
		s.params = p
		return nil
	}
}

// WithSeed seeds all randomness (default 1).
func WithSeed(seed int64) Option {
	return func(s *Solver) error { s.seed = seed; return nil }
}

// WithBeta sets β (default 400, the paper's choice).
func WithBeta(beta float64) Option {
	return func(s *Solver) error {
		if beta <= 0 {
			return fmt.Errorf("vconf: beta must be positive")
		}
		s.beta = beta
		return nil
	}
}

// WithObjectiveScale sets the Φ scaling applied before β (default 0.01; see
// the core package documentation).
func WithObjectiveScale(scale float64) Option {
	return func(s *Solver) error {
		if scale <= 0 {
			return fmt.Errorf("vconf: objective scale must be positive")
		}
		s.scale = scale
		return nil
	}
}

// WithCountdown sets the mean WAIT countdown in virtual seconds (default 10,
// the paper's prototype value).
func WithCountdown(seconds float64) Option {
	return func(s *Solver) error {
		if seconds <= 0 {
			return fmt.Errorf("vconf: countdown must be positive")
		}
		s.countdownS = seconds
		return nil
	}
}

// WithInit selects the bootstrap policy (default AgRank with n_ngbr = 2).
func WithInit(policy InitPolicy, nngbr int) Option {
	return func(s *Solver) error {
		switch policy {
		case InitAgRank:
			if nngbr < 1 {
				return fmt.Errorf("vconf: AgRank needs n_ngbr ≥ 1")
			}
		case InitNearest:
		default:
			return fmt.Errorf("vconf: unknown init policy %d", policy)
		}
		s.init = policy
		s.nngbr = nngbr
		return nil
	}
}

// NewSolver builds a solver for the scenario.
func NewSolver(sc *Scenario, opts ...Option) (*Solver, error) {
	s := &Solver{
		sc:         sc,
		params:     cost.DefaultParams(),
		seed:       1,
		beta:       400,
		scale:      0.01,
		countdownS: 10,
		init:       InitAgRank,
		nngbr:      2,
	}
	for _, opt := range opts {
		if err := opt(s); err != nil {
			return nil, err
		}
	}
	ev, err := cost.NewEvaluator(sc, s.params)
	if err != nil {
		return nil, err
	}
	s.ev = ev
	return s, nil
}

// Params returns the solver's objective parameters.
func (s *Solver) Params() Params { return s.params }

// bootstrapper builds the per-session bootstrap hook.
func (s *Solver) bootstrapper() core.Bootstrapper {
	if s.init == InitNearest {
		return func(a *assign.Assignment, sid model.SessionID, ledger cost.LedgerAPI) error {
			return baseline.AssignSessionNearest(a, sid, s.params, ledger)
		}
	}
	opts := agrank.DefaultOptions(s.nngbr)
	return func(a *assign.Assignment, sid model.SessionID, ledger cost.LedgerAPI) error {
		_, err := agrank.BootstrapSession(a, sid, s.params, ledger, opts)
		return err
	}
}

// Bootstrap admits every session under the configured init policy and
// returns the initial assignment without running the chain.
func (s *Solver) Bootstrap() (*Assignment, error) {
	a := assign.New(s.sc)
	ledger := cost.NewLedger(s.sc)
	boot := s.bootstrapper()
	for sid := 0; sid < s.sc.NumSessions(); sid++ {
		if err := boot(a, model.SessionID(sid), ledger); err != nil {
			return nil, fmt.Errorf("vconf: bootstrap: %w", err)
		}
	}
	return a, nil
}

// Result is the outcome of an optimization run.
type Result struct {
	// Assignment is the final state.
	Assignment *Assignment
	// Initial and Report evaluate the bootstrap and final assignments.
	Initial SystemReport
	Report  SystemReport
	// Samples traces the run (one sample per hop plus endpoints).
	Samples []EngineSample
	// Hops and Moves count chain activity.
	Hops, Moves int
}

// Optimize bootstraps every session and runs Alg. 1 for durationS virtual
// seconds, returning the final assignment and its evaluation.
func (s *Solver) Optimize(durationS float64) (*Result, error) {
	if durationS <= 0 {
		return nil, fmt.Errorf("vconf: duration must be positive")
	}
	cfg := core.Config{
		Beta:           s.beta,
		ObjectiveScale: s.scale,
		MeanCountdownS: s.countdownS,
		Mode:           core.PaperHop,
		Seed:           s.seed,
	}
	eng, err := core.NewEngine(s.ev, cfg)
	if err != nil {
		return nil, err
	}
	boot := s.bootstrapper()
	for sid := 0; sid < s.sc.NumSessions(); sid++ {
		if err := eng.ActivateSession(model.SessionID(sid), boot); err != nil {
			return nil, fmt.Errorf("vconf: optimize: %w", err)
		}
	}
	initial := s.ev.ReportSystem(eng.Assignment())
	samples, err := eng.Run(durationS, 0)
	if err != nil {
		return nil, err
	}
	final := eng.Assignment()
	res := &Result{
		Assignment: final,
		Initial:    initial,
		Report:     s.ev.ReportSystem(final),
		Samples:    samples,
	}
	res.Hops, res.Moves = eng.Hops()
	return res, nil
}

// Evaluate reports any complete assignment under the solver's objective.
func (s *Solver) Evaluate(a *Assignment) SystemReport { return s.ev.ReportSystem(a) }

// CheckFeasible verifies an assignment against constraints (1)–(8).
func (s *Solver) CheckFeasible(a *Assignment) error { return s.ev.CheckFeasible(a) }
