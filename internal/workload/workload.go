// Package workload generates random problem scenarios matching the paper's
// evaluation setups: the prototype-scale mix of §V-A (6 agents, 10 sessions
// of 3–5 participants) and the Internet-scale mix of §V-B (7 EC2 agents, 200
// users drawn from 256 PlanetLab-like nodes, sessions of at most 5 users,
// four representations with 80% of users demanding 720p).
package workload

import (
	"fmt"
	"math/rand"

	"vconf/internal/model"
	"vconf/internal/netsim"
	"vconf/internal/transcode"
)

// Unlimited marks a capacity dimension as effectively infinite (Fig. 9
// sweeps one dimension while the other is unlimited).
const (
	UnlimitedMbps  = 1e12
	UnlimitedSlots = 1 << 30
)

// Config parameterizes scenario generation.
type Config struct {
	// Seed drives every random choice; identical configs generate identical
	// scenarios.
	Seed int64

	// NumAgents selects the first NumAgents sites of netsim.EC2Sites().
	NumAgents int
	// NumUserNodes is the size of the PlanetLab-like node pool (paper: 256).
	NumUserNodes int
	// NumUsers is how many users join sessions (paper: 200), drawn from the
	// node pool; nodes are reused only when NumUsers exceeds the pool.
	NumUsers int
	// MinSessionSize and MaxSessionSize bound session cardinality (paper:
	// "each session has at most 5 users"; prototype sessions have 3–5).
	MinSessionSize int
	MaxSessionSize int

	// MeanBandwidthMbps is the mean upload/download capacity per agent;
	// individual agents draw uniformly from ±30% around it. Use
	// UnlimitedMbps for the unconstrained experiments.
	MeanBandwidthMbps float64
	// MeanTranscodeSlots is the mean transcoding capacity per agent (±30%).
	// Use UnlimitedSlots for the unconstrained experiments.
	MeanTranscodeSlots int

	// UpstreamWeights and DemandWeights give the representation mix by name.
	// Demand defaults to the paper's "80% demand 720p, 20% the others".
	UpstreamWeights map[string]float64
	DemandWeights   map[string]float64

	// Sigma is the transcoding latency model; capability tiers cycle across
	// agents so σ lands in the paper's 30–60 ms band heterogeneously.
	Sigma transcode.Model

	// Net parameterizes latency synthesis.
	Net netsim.Config
}

// LargeScale returns the §V-B configuration: 7 agents, 256 nodes, 200 users,
// sessions of 2–5 users, capacities unlimited (Table II / Fig. 8 set
// capacities large; Fig. 9 overrides the swept dimension).
func LargeScale(seed int64) Config {
	return Config{
		Seed:               seed,
		NumAgents:          7,
		NumUserNodes:       256,
		NumUsers:           200,
		MinSessionSize:     2,
		MaxSessionSize:     5,
		MeanBandwidthMbps:  UnlimitedMbps,
		MeanTranscodeSlots: UnlimitedSlots,
		UpstreamWeights: map[string]float64{
			"360p": 0.05, "480p": 0.10, "720p": 0.70, "1080p": 0.15,
		},
		DemandWeights: map[string]float64{
			"360p": 0.2 / 3, "480p": 0.2 / 3, "720p": 0.8, "1080p": 0.2 / 3,
		},
		Sigma: transcode.DefaultModel(),
		Net:   netsim.DefaultConfig(seed),
	}
}

// Prototype returns the §V-A configuration: 6 agents, 10 sessions of 3–5
// participants over 10 user locations, agent capacities "large enough".
func Prototype(seed int64) Config {
	cfg := LargeScale(seed)
	cfg.NumAgents = 6
	cfg.NumUserNodes = 10
	cfg.NumUsers = 38 // ≈10 sessions × 3–5 participants; locations reused
	cfg.MinSessionSize = 3
	cfg.MaxSessionSize = 5
	return cfg
}

func (c Config) validate() error {
	if c.NumAgents < 1 || c.NumAgents > len(netsim.EC2Sites()) {
		return fmt.Errorf("workload: NumAgents %d outside [1, %d]", c.NumAgents, len(netsim.EC2Sites()))
	}
	if c.NumUserNodes < 1 {
		return fmt.Errorf("workload: NumUserNodes must be positive")
	}
	if c.NumUsers < 2 {
		return fmt.Errorf("workload: need at least 2 users")
	}
	if c.MinSessionSize < 2 || c.MaxSessionSize < c.MinSessionSize {
		return fmt.Errorf("workload: invalid session size range [%d, %d]", c.MinSessionSize, c.MaxSessionSize)
	}
	if c.MeanBandwidthMbps <= 0 || c.MeanTranscodeSlots < 0 {
		return fmt.Errorf("workload: invalid capacities")
	}
	if len(c.UpstreamWeights) == 0 || len(c.DemandWeights) == 0 {
		return fmt.Errorf("workload: missing representation mixes")
	}
	return nil
}

// Generate builds a complete scenario from the configuration.
func Generate(cfg Config) (*model.Scenario, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	reps := model.DefaultRepresentations()

	upstreamPicker, err := newRepPicker(reps, cfg.UpstreamWeights)
	if err != nil {
		return nil, err
	}
	demandPicker, err := newRepPicker(reps, cfg.DemandWeights)
	if err != nil {
		return nil, err
	}

	// Latency substrate: node pool, user placement, matrices.
	pool := netsim.GenerateUserNodes(cfg.Seed, cfg.NumUserNodes)
	perm := rng.Perm(cfg.NumUserNodes)
	userSites := make([]netsim.Site, cfg.NumUsers)
	for i := range userSites {
		userSites[i] = pool[perm[i%cfg.NumUserNodes]]
	}
	agentSites := netsim.EC2Sites()[:cfg.NumAgents]
	net, err := netsim.Generate(cfg.Net, agentSites, userSites)
	if err != nil {
		return nil, err
	}

	// Partition user IDs 0..NumUsers-1 into sessions. The partition runs
	// over a shuffled view so geographic neighbors do not cluster into the
	// same session.
	order := rng.Perm(cfg.NumUsers)
	sessionOf := make([]int, cfg.NumUsers)
	numSessions := 0
	for idx := 0; idx < cfg.NumUsers; {
		size := cfg.MinSessionSize + rng.Intn(cfg.MaxSessionSize-cfg.MinSessionSize+1)
		if rem := cfg.NumUsers - idx; size > rem {
			size = rem
		}
		sid := numSessions
		if size == 1 {
			// A leftover lone user joins the previous session instead of
			// forming a degenerate one.
			sid = numSessions - 1
		} else {
			numSessions++
		}
		for i := 0; i < size; i++ {
			sessionOf[order[idx+i]] = sid
		}
		idx += size
	}

	b := model.NewBuilder(reps)

	// Agents: heterogeneous capacities (±30% of the mean) and capability
	// tiers cycling through the transcode tiers.
	tiers := transcode.Tiers()
	for i, site := range agentSites {
		up, down := cfg.MeanBandwidthMbps, cfg.MeanBandwidthMbps
		if cfg.MeanBandwidthMbps < UnlimitedMbps {
			up = cfg.MeanBandwidthMbps * (0.7 + 0.6*rng.Float64())
			down = cfg.MeanBandwidthMbps * (0.7 + 0.6*rng.Float64())
		}
		slots := cfg.MeanTranscodeSlots
		if cfg.MeanTranscodeSlots < UnlimitedSlots {
			slots = int(float64(cfg.MeanTranscodeSlots) * (0.7 + 0.6*rng.Float64()))
			if slots < 1 {
				slots = 1
			}
		}
		tier := tiers[i%len(tiers)]
		table, err := cfg.Sigma.Table(reps, tier.Factor)
		if err != nil {
			return nil, err
		}
		b.AddAgent(model.Agent{
			Name:             site.Name,
			Site:             site.Region,
			Upload:           up,
			Download:         down,
			TranscodeSlots:   slots,
			SigmaMS:          table,
			CapabilityFactor: tier.Factor,
		})
	}

	// Sessions then users in ID order, so user IDs align with H columns.
	for s := 0; s < numSessions; s++ {
		b.AddSession(fmt.Sprintf("session-%02d", s))
	}
	for u := 0; u < cfg.NumUsers; u++ {
		b.AddUser(userSites[u].Name, model.SessionID(sessionOf[u]), upstreamPicker.pick(rng), nil)
	}

	// Demands: each user draws one demanded representation applied to every
	// incoming stream ("80% of users demand for 720p"); transcoding arises
	// exactly where the demand differs from a source's upstream.
	members := make([][]model.UserID, numSessions)
	for u := 0; u < cfg.NumUsers; u++ {
		members[sessionOf[u]] = append(members[sessionOf[u]], model.UserID(u))
	}
	demandOf := make([]model.Representation, cfg.NumUsers)
	for u := range demandOf {
		demandOf[u] = demandPicker.pick(rng)
	}
	for _, ms := range members {
		for _, dst := range ms {
			for _, src := range ms {
				if src == dst {
					continue
				}
				b.DemandFrom(dst, src, demandOf[dst])
			}
		}
	}

	b.SetInterAgentDelays(net.DMS)
	b.SetAgentUserDelayFunc(func(l model.AgentID, u model.UserID) float64 { return net.H(int(l), int(u)) })
	return b.Build()
}

// repPicker draws representations from a weighted mix.
type repPicker struct {
	reps    []model.Representation
	cumProb []float64
}

func newRepPicker(reps *model.RepresentationSet, weights map[string]float64) (*repPicker, error) {
	p := &repPicker{}
	total := 0.0
	for name, w := range weights {
		if w < 0 {
			return nil, fmt.Errorf("workload: negative weight for %q", name)
		}
		total += w
	}
	if total <= 0 {
		return nil, fmt.Errorf("workload: representation weights sum to zero")
	}
	// Deterministic iteration: walk the representation set in order.
	acc := 0.0
	for _, r := range reps.All() {
		w, ok := weights[reps.Name(r)]
		if !ok {
			continue
		}
		acc += w / total
		p.reps = append(p.reps, r)
		p.cumProb = append(p.cumProb, acc)
	}
	if len(p.reps) == 0 {
		return nil, fmt.Errorf("workload: no weight names match the representation set")
	}
	return p, nil
}

func (p *repPicker) pick(rng *rand.Rand) model.Representation {
	x := rng.Float64()
	for i, c := range p.cumProb {
		if x < c {
			return p.reps[i]
		}
	}
	return p.reps[len(p.reps)-1]
}
