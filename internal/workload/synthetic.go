package workload

import (
	"fmt"
	"math/rand"

	"vconf/internal/model"
	"vconf/internal/netsim"
)

// FleetConfig sizes a synthetic large-fleet scenario. The EC2-site workloads
// top out at the paper's 7 agents; performance work on the hop pipeline
// needs fleets of hundreds of agents, so this generator fabricates agents
// with bounded synthetic delay matrices instead of drawing from real sites.
type FleetConfig struct {
	// Seed drives every random choice.
	Seed int64
	// NumAgents is the fleet size (any positive count — not limited to the
	// EC2 site list).
	NumAgents int
	// NumUsers is the user population, partitioned into sessions of
	// MinSessionSize..MaxSessionSize members.
	NumUsers       int
	MinSessionSize int
	MaxSessionSize int

	// Regions > 0 switches on regional structure: agents and users cluster
	// around that many netsim anchor cities (sampled across continents),
	// delays come from the geographic latency synthesis instead of uniform
	// noise, sessions are homed in population-skewed regions, and agent
	// capacities are finite with per-region skew — so large-fleet
	// experiments exercise realistic geographic imbalance (hot, tight
	// regions next to cold, roomy ones) instead of uniform fleets.
	// 0 keeps the legacy uniform generator, byte-identical per seed.
	Regions int
	// RegionCapacitySkew ∈ [0, 1) spreads per-region capacity: every agent
	// in region r gets its capacities scaled by a factor drawn once per
	// region from [1−skew, 1+skew]. 0 defaults to 0.5 when Regions > 0;
	// pass a negative value for an explicit zero (uniform capacities).
	RegionCapacitySkew float64
	// AgentBandwidthMbps is the base per-agent up/down capacity in regional
	// mode (default 600). The legacy mode stays unlimited.
	AgentBandwidthMbps float64
	// AgentTranscodeSlots is the base per-agent transcoding capacity in
	// regional mode (default 12).
	AgentTranscodeSlots int
	// CrossRegionFrac is the probability that a session member joins from a
	// random foreign region instead of the session's home region — the
	// long-haul participants that stress delay feasibility. 0 defaults to
	// 0.1; pass a negative value for an explicit zero (purely intra-region
	// sessions).
	CrossRegionFrac float64
	// DelayCapMS overrides the scenario's Dmax end-to-end delay cap
	// (constraint (8)); 0 keeps model.DefaultDMaxMS. Tight caps model a
	// converged, delay-bound fleet where most single-variable moves are
	// delay-infeasible — the shape the warm-hop benchmarks measure (hops
	// mostly stay put, so a session's prepared state is reused across hops).
	DelayCapMS float64
}

// DefaultFleetConfig returns the hop-benchmark fleet: 100 agents, 60 users.
func DefaultFleetConfig(seed int64) FleetConfig {
	return FleetConfig{
		Seed:           seed,
		NumAgents:      100,
		NumUsers:       60,
		MinSessionSize: 3,
		MaxSessionSize: 5,
	}
}

// AgentRegions returns the agent→region map of a regional synthetic fleet:
// generateRegionalFleet assigns agent i to region i mod regions. The fault
// engine and the orchestrator's regional healing consume this.
func AgentRegions(numAgents, regions int) []int {
	out := make([]int, numAgents)
	for i := range out {
		out[i] = i % regions
	}
	return out
}

// GenerateSyntheticFleet builds a deterministic scenario with an
// arbitrarily large agent fleet. Delays are synthesized within bounds that
// keep every assignment under the default Dmax (H ≤ 40 ms, D ≤ 80 ms,
// σ = 40 ms ⇒ worst path 280 ms), so capacity-unconstrained chains explore
// the full neighbor structure — the shape hop-pipeline benchmarks need.
func GenerateSyntheticFleet(cfg FleetConfig) (*model.Scenario, error) {
	sc, _, err := GenerateSyntheticFleetRegions(cfg)
	return sc, err
}

// GenerateSyntheticFleetRegions is GenerateSyntheticFleet plus each
// generated session's home-region index (all zeros in the legacy uniform
// mode) — the session→region mapping DiurnalConfig.SessionRegion consumes,
// so follow-the-sun churn schedules line up with the fleet's actual
// geography.
func GenerateSyntheticFleetRegions(cfg FleetConfig) (*model.Scenario, []int, error) {
	if cfg.NumAgents < 1 || cfg.NumUsers < 2 {
		return nil, nil, fmt.Errorf("workload: fleet needs ≥1 agent and ≥2 users, got %d/%d",
			cfg.NumAgents, cfg.NumUsers)
	}
	if cfg.MinSessionSize < 2 || cfg.MaxSessionSize < cfg.MinSessionSize {
		return nil, nil, fmt.Errorf("workload: invalid fleet session size range [%d, %d]",
			cfg.MinSessionSize, cfg.MaxSessionSize)
	}
	if cfg.Regions > 0 {
		return generateRegionalFleet(cfg)
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	b := model.NewBuilder(nil)
	rs := b.Reps()
	r360, _ := rs.ByName("360p")
	r720, _ := rs.ByName("720p")
	r1080, _ := rs.ByName("1080p")

	for i := 0; i < cfg.NumAgents; i++ {
		b.AddAgent(model.Agent{
			Name:           fmt.Sprintf("agent-%03d", i),
			Upload:         UnlimitedMbps,
			Download:       UnlimitedMbps,
			TranscodeSlots: UnlimitedSlots,
			SigmaMS:        model.UniformSigma(rs.Len(), 40),
		})
	}

	// Sessions of MinSessionSize..MaxSessionSize users; the first member
	// uploads 1080p and the others demand 360p from it, so every session
	// carries transcoding flows.
	var users, sessions int
	for users < cfg.NumUsers {
		size := cfg.MinSessionSize + rng.Intn(cfg.MaxSessionSize-cfg.MinSessionSize+1)
		if rem := cfg.NumUsers - users; size > rem {
			if rem < cfg.MinSessionSize {
				break // drop a remainder too small to form a session
			}
			size = rem
		}
		sid := b.AddSession(fmt.Sprintf("fleet-%03d", sessions))
		sessions++
		first := b.AddUser("src", sid, r1080, nil)
		for i := 1; i < size; i++ {
			up := r720
			if i%2 == 0 {
				up = r1080
			}
			u := b.AddUser("dst", sid, up, nil)
			b.DemandFrom(u, first, r360)
		}
		users += size
	}

	// Bounded synthetic delay matrices: deterministic in the seed.
	L := cfg.NumAgents
	d := make([][]float64, L)
	for i := range d {
		d[i] = make([]float64, L)
	}
	for i := 0; i < L; i++ {
		for j := i + 1; j < L; j++ {
			v := 10 + 70*rng.Float64()
			d[i][j] = v
			d[j][i] = v
		}
	}
	h := make([][]float64, L)
	for l := range h {
		h[l] = make([]float64, users)
		for u := range h[l] {
			h[l][u] = 5 + 35*rng.Float64()
		}
	}
	b.SetInterAgentDelays(d)
	b.SetAgentUserDelays(h)
	if cfg.DelayCapMS > 0 {
		b.SetDelayCap(cfg.DelayCapMS)
	}
	sc, err := b.Build()
	return sc, make([]int, sessions), err
}

// generateRegionalFleet is the Regions > 0 path of GenerateSyntheticFleet:
// geographic clustering around netsim anchor cities, population-skewed
// session homing, and finite per-region-skewed capacities. Returns each
// session's home region alongside the scenario.
func generateRegionalFleet(cfg FleetConfig) (*model.Scenario, []int, error) {
	if cfg.RegionCapacitySkew >= 1 {
		return nil, nil, fmt.Errorf("workload: region capacity skew %v outside [0, 1)", cfg.RegionCapacitySkew)
	}
	switch {
	case cfg.RegionCapacitySkew == 0:
		cfg.RegionCapacitySkew = 0.5
	case cfg.RegionCapacitySkew < 0:
		cfg.RegionCapacitySkew = 0 // explicit zero: uniform capacities
	}
	if cfg.AgentBandwidthMbps == 0 {
		cfg.AgentBandwidthMbps = 600
	}
	if cfg.AgentBandwidthMbps < 0 || cfg.AgentTranscodeSlots < 0 {
		return nil, nil, fmt.Errorf("workload: negative regional capacities")
	}
	if cfg.AgentTranscodeSlots == 0 {
		cfg.AgentTranscodeSlots = 12
	}
	if cfg.CrossRegionFrac > 1 {
		return nil, nil, fmt.Errorf("workload: cross-region fraction %v outside [0, 1]", cfg.CrossRegionFrac)
	}
	switch {
	case cfg.CrossRegionFrac == 0:
		cfg.CrossRegionFrac = 0.1
	case cfg.CrossRegionFrac < 0:
		cfg.CrossRegionFrac = 0 // explicit zero: purely intra-region
	}

	rng := rand.New(rand.NewSource(cfg.Seed))
	// Stride-sample the anchor pool so even a few regions span continents
	// (the pool is grouped by continent).
	all := netsim.AnchorSites()
	r := cfg.Regions
	if r > len(all) {
		r = len(all)
	}
	anchors := make([]netsim.Site, r)
	for i := 0; i < r; i++ {
		anchors[i] = all[i*len(all)/r]
	}

	// Per-region capacity factor (the skew) and population weight (the
	// imbalance): hot regions attract sessions regardless of how much
	// capacity they happen to have.
	capFactor := make([]float64, r)
	popWeight := make([]float64, r)
	popTotal := 0.0
	for i := 0; i < r; i++ {
		capFactor[i] = 1 + cfg.RegionCapacitySkew*(2*rng.Float64()-1)
		popWeight[i] = 0.25 + rng.Float64()
		popTotal += popWeight[i]
	}
	pickRegion := func() int {
		u := rng.Float64() * popTotal
		acc := 0.0
		for i, w := range popWeight {
			acc += w
			if u < acc {
				return i
			}
		}
		return r - 1
	}
	jitter := func(s netsim.Site, name string) netsim.Site {
		return netsim.Site{
			Name:   name,
			Region: s.Region,
			Lat:    s.Lat + (rng.Float64()-0.5)*1.5,
			Lon:    s.Lon + (rng.Float64()-0.5)*1.5,
		}
	}

	b := model.NewBuilder(nil)
	rs := b.Reps()
	r360, _ := rs.ByName("360p")
	r720, _ := rs.ByName("720p")
	r1080, _ := rs.ByName("1080p")

	// Agents: round-robin across regions (every region gets data centers),
	// placed at the region anchor with metro jitter, capacities scaled by
	// the region factor.
	agentSites := make([]netsim.Site, cfg.NumAgents)
	for i := 0; i < cfg.NumAgents; i++ {
		reg := i % r
		agentSites[i] = jitter(anchors[reg], fmt.Sprintf("agent-%03d-%s", i, anchors[reg].Name))
		slots := int(float64(cfg.AgentTranscodeSlots)*capFactor[reg] + 0.5)
		if slots < 1 {
			slots = 1
		}
		b.AddAgent(model.Agent{
			Name:           agentSites[i].Name,
			Upload:         cfg.AgentBandwidthMbps * capFactor[reg],
			Download:       cfg.AgentBandwidthMbps * capFactor[reg],
			TranscodeSlots: slots,
			SigmaMS:        model.UniformSigma(rs.Len(), 40),
		})
	}

	// Sessions: homed in a population-weighted region; most members join
	// from the home metro, a few from a random foreign region.
	var userSites []netsim.Site
	var homes []int
	var users, sessions int
	for users < cfg.NumUsers {
		size := cfg.MinSessionSize + rng.Intn(cfg.MaxSessionSize-cfg.MinSessionSize+1)
		if rem := cfg.NumUsers - users; size > rem {
			if rem < cfg.MinSessionSize {
				break // drop a remainder too small to form a session
			}
			size = rem
		}
		home := pickRegion()
		sid := b.AddSession(fmt.Sprintf("fleet-%03d-%s", sessions, anchors[home].Name))
		homes = append(homes, home)
		sessions++
		var first model.UserID
		for i := 0; i < size; i++ {
			reg := home
			if i > 0 && rng.Float64() < cfg.CrossRegionFrac {
				reg = rng.Intn(r)
			}
			site := jitter(anchors[reg], fmt.Sprintf("user-%03d-%s", users+i, anchors[reg].Name))
			userSites = append(userSites, site)
			if i == 0 {
				first = b.AddUser("src", sid, r1080, nil)
				continue
			}
			up := r720
			if i%2 == 0 {
				up = r1080
			}
			u := b.AddUser("dst", sid, up, nil)
			b.DemandFrom(u, first, r360)
		}
		users += size
	}

	// Geographic latency synthesis: great-circle propagation with routing
	// inflation and last-mile access — the same calibration the EC2-site
	// workloads use, so intra-region paths land ~5–20 ms and long-haul
	// ones in the hundreds.
	net, err := netsim.Generate(netsim.DefaultConfig(cfg.Seed), agentSites, userSites)
	if err != nil {
		return nil, nil, err
	}
	b.SetInterAgentDelays(net.DMS)
	b.SetAgentUserDelayFunc(func(l model.AgentID, u model.UserID) float64 { return net.H(int(l), int(u)) })
	if cfg.DelayCapMS > 0 {
		b.SetDelayCap(cfg.DelayCapMS)
	}
	sc, err := b.Build()
	return sc, homes, err
}
