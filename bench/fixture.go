// All program-facing construction of the battery lives in this file: the
// four workloads, the fleet and evaluator they run on, the event sources
// and the one fixed orchestrator configuration. Workloads differ in inputs
// only; nothing else in bench/ builds a program object from a config.
package main

import (
	"fmt"

	"vconf/internal/agrank"
	"vconf/internal/assign"
	"vconf/internal/core"
	"vconf/internal/cost"
	"vconf/internal/faults"
	"vconf/internal/model"
	"vconf/internal/orchestrator"
	"vconf/internal/sim"
	"vconf/internal/telemetry"
	"vconf/internal/workload"
)

// Fixed program configuration (every workload, every pass).
const (
	solverShards     = 2
	maxInFlight      = 2
	hopBudget        = 12
	maxReoptSessions = 4
	neighborWindow   = 4
	agrankNeighbors  = 3
	// benchProcs pins GOMAXPROCS: two solver workers plus the pull loop on
	// the 2-vCPU reference host, one process, no sockets.
	benchProcs = 2
	// fleetSeed fixes the deployment (sites, capacities, session rosters)
	// and faultSeed the incident schedule of chaos_heavy: -seed drives the
	// traffic and the solver's randomness, not the fleet or what breaks in
	// it. Runs on different seeds then measure the same system under the
	// same incidents and stay within the regression bounds of one another —
	// five region outages per pass is too few for a freshly drawn schedule
	// to repeat within a tenth.
	fleetSeed = 1
	faultSeed = 2
)

// workloadSpec is one set of inputs. HorizonS is the virtual length of one
// pass; the wall time of a pass follows from the program's speed.
type workloadSpec struct {
	Name string
	// Why is the one-line reason the workload exists (BENCHMARK.json).
	Why     string
	Agents  int
	Regions int
	Users   int
	MinSize int
	MaxSize int
	// RatePerS is the Poisson arrival rate λ, HoldS the mean session hold.
	RatePerS float64
	HoldS    float64
	HorizonS float64
	// Diurnal modulates arrivals follow-the-sun over one day = the horizon.
	Diurnal bool
	// Faults adds the fault source at fixed absolute rates.
	Faults bool
	// CapacityBinds marks the workloads on which placements are refused for
	// lack of capacity. There the two solver workers of one event race for
	// the same headroom, so which of two proposals commits — and with it the
	// trajectory — depends on timing: repetitions of the sync pass need not
	// end bit-equal, and the battery reports whether they did instead of
	// requiring it.
	CapacityBinds bool
}

// workloads is the battery. Horizons are sized so one pass takes ≈ 3 s on
// the reference host: the driver's 92-run budget allows ≈ 30 s per run.
var workloads = []workloadSpec{
	{
		Name:   "steady_regional",
		Why:    "96-agent regional fleet under steady Poisson churn: the bounded re-optimisation walk is ~90% of every event",
		Agents: 96, Regions: 6, Users: 768, MinSize: 4, MaxSize: 6,
		RatePerS: 1, HoldS: 80, HorizonS: 1000,
	},
	{
		Name:   "wide_diurnal",
		Why:    "384 agents and follow-the-sun load: fleet-width costs (AgRank scan, snapshot, routing) grow 4x while the walk does not",
		Agents: 384, Regions: 8, Users: 3072, MinSize: 4, MaxSize: 6,
		RatePerS: 4, HoldS: 80, HorizonS: 200, Diurnal: true,
	},
	{
		Name:   "big_sessions",
		Why:    "sessions of 10-14 users: O(n^2) flows put the time in cost evaluation inside the walk, and capacity binds so arrivals are refused",
		Agents: 48, Regions: 4, Users: 1152, MinSize: 10, MaxSize: 14,
		RatePerS: 1, HoldS: 80, HorizonS: 300, CapacityBinds: true,
	},
	{
		Name:   "chaos_heavy",
		Why:    "steady_regional plus agent, region, degrade and flash-crowd faults: healing re-homes sessions and the pipeline drains at every barrier",
		Agents: 96, Regions: 6, Users: 768, MinSize: 4, MaxSize: 6,
		RatePerS: 1, HoldS: 80, HorizonS: 1000, Faults: true, CapacityBinds: true,
	},
}

func findWorkload(name string) (workloadSpec, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workloadSpec{}, false
}

// fixture is everything a pass needs that does not hold run state: the
// scenario, its evaluator and the generator configurations.
type fixture struct {
	spec        workloadSpec
	seed        int64
	sc          *model.Scenario
	homes       []int
	ev          *cost.Evaluator
	params      cost.Params
	agentRegion []int
	churn       workload.ChurnConfig
	faults      *faults.Config
}

// newFixture generates the fleet and derives the churn and fault
// configurations. scale shrinks the horizon (the smoke test runs at 1/20).
func newFixture(spec workloadSpec, seed int64, scale float64) (*fixture, error) {
	fc := workload.DefaultFleetConfig(fleetSeed)
	fc.NumAgents = spec.Agents
	fc.NumUsers = spec.Users
	fc.MinSessionSize = spec.MinSize
	fc.MaxSessionSize = spec.MaxSize
	fc.Regions = spec.Regions
	fc.AgentBandwidthMbps = 3000
	fc.AgentTranscodeSlots = 12
	sc, homes, err := workload.GenerateSyntheticFleetRegions(fc)
	if err != nil {
		return nil, fmt.Errorf("%s: fleet: %w", spec.Name, err)
	}
	p := cost.DefaultParams()
	ev, err := cost.NewEvaluator(sc, p)
	if err != nil {
		return nil, fmt.Errorf("%s: evaluator: %w", spec.Name, err)
	}
	horizon := spec.HorizonS * scale
	// The churn pool is the first 3/5 of the sessions; the rest are the
	// per-region flash reserves, disjoint from it by construction.
	nChurn := len(homes) * 3 / 5
	f := &fixture{
		spec:        spec,
		seed:        seed,
		sc:          sc,
		homes:       homes,
		ev:          ev,
		params:      p,
		agentRegion: workload.AgentRegions(spec.Agents, spec.Regions),
		churn: workload.ChurnConfig{
			Seed:            seed,
			HorizonS:        horizon,
			ArrivalRatePerS: spec.RatePerS,
			MeanHoldS:       spec.HoldS,
			NumSessions:     nChurn,
		},
	}
	if spec.Diurnal {
		f.churn.Diurnal = &workload.DiurnalConfig{
			DayS:          horizon,
			Amplitude:     0.8,
			PeakFrac:      workload.FollowTheSunPeaks(spec.Regions),
			SessionRegion: homes,
		}
	}
	if spec.Faults {
		pools := make([][]int, spec.Regions)
		for s := nChurn; s < len(homes); s++ {
			pools[homes[s]] = append(pools[homes[s]], s)
		}
		f.faults = &faults.Config{
			Seed:           faultSeed,
			HorizonS:       horizon,
			NumAgents:      spec.Agents,
			AgentRegion:    f.agentRegion,
			AgentMTBFS:     600,
			AgentMTTRS:     60,
			RegionMTBFS:    1200,
			RegionMTTRS:    50,
			DegradeMTBFS:   600,
			DegradeMTTRS:   60,
			DegradeFloor:   0.4,
			FlashMTBFS:     300,
			FlashIntensity: 4,
			FlashHoldS:     50,
			FlashSessions:  pools,
		}
	}
	return f, nil
}

// bootstrapper is the production admission policy: AgRank over the three
// nearest agents per user.
func (f *fixture) bootstrapper() core.Bootstrapper {
	opts := agrank.DefaultOptions(agrankNeighbors)
	p := f.params
	return func(a *assign.Assignment, s model.SessionID, ledger cost.LedgerAPI) error {
		_, err := agrank.BootstrapSession(a, s, p, ledger, opts)
		return err
	}
}

// newEngine builds a fresh merged event stream: churn first, then faults,
// the registration order the eager merge is pinned against.
func (f *fixture) newEngine() (*sim.Engine, error) {
	cs, err := workload.NewChurnSource(f.churn)
	if err != nil {
		return nil, err
	}
	if f.faults == nil {
		return sim.New(cs), nil
	}
	fs, err := faults.NewSource(*f.faults)
	if err != nil {
		return nil, err
	}
	return sim.New(cs, fs), nil
}

// newOrchestrator starts the program under the fixed configuration. boot
// and sink are the injection points the traced pass wraps; measured passes
// pass the plain bootstrapper and a nil sink.
func (f *fixture) newOrchestrator(boot core.Bootstrapper, sink *telemetry.Sink) (*orchestrator.Orchestrator, error) {
	cfg := orchestrator.DefaultConfig(f.seed)
	cfg.Shards = solverShards
	cfg.Pipeline = true
	cfg.MaxInFlight = maxInFlight
	cfg.HopBudget = hopBudget
	cfg.MaxReoptSessions = maxReoptSessions
	cfg.Core.NeighborWindow = neighborWindow
	cfg.AgentRegion = f.agentRegion
	cfg.Telemetry = sink
	return orchestrator.New(f.ev, boot, cfg)
}

// newSink is the traced pass's telemetry sink: attached only so the
// registry families the per-layer table names can be read afterwards.
func (f *fixture) newSink() *telemetry.Sink {
	return telemetry.New(telemetry.Config{
		Workers:       solverShards,
		SessionRegion: f.homes,
		Regions:       f.spec.Regions,
	})
}
