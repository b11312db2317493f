package netsim

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
)

// Config parameterizes latency synthesis. The zero Config is not valid; use
// DefaultConfig and override fields as needed.
type Config struct {
	// Seed drives all random choices. The same seed, site lists and config
	// always produce identical matrices.
	Seed int64

	// RouteInflationMin/Max bound the per-pair multiplicative detour factor
	// applied to the speed-of-light-in-fiber propagation time. Measured
	// Internet paths are typically 1.3–2.5× the geodesic.
	RouteInflationMin float64
	RouteInflationMax float64

	// UserAccessMinMS/MaxMS bound the per-user last-mile access delay added
	// to every path touching that user.
	UserAccessMinMS float64
	UserAccessMaxMS float64

	// AgentAccessMS is the fixed data-center access delay added per agent
	// endpoint (data centers sit close to backbones).
	AgentAccessMS float64

	// MinFloorMS is a lower bound applied to every synthesized delay so that
	// co-located nodes still pay a realistic serialization/processing cost.
	MinFloorMS float64
}

// DefaultConfig returns the calibration used across the experiments:
// intra-continental agent pairs land around 10–50 ms one-way,
// trans-Pacific pairs around 80–180 ms, matching the magnitudes printed in
// the paper's Fig. 2.
func DefaultConfig(seed int64) Config {
	return Config{
		Seed:              seed,
		RouteInflationMin: 1.3,
		RouteInflationMax: 2.1,
		UserAccessMinMS:   2,
		UserAccessMaxMS:   14,
		AgentAccessMS:     0.8,
		MinFloorMS:        1,
	}
}

func (c Config) validate() error {
	if c.RouteInflationMin < 1 || c.RouteInflationMax < c.RouteInflationMin {
		return fmt.Errorf("netsim: invalid route inflation [%v, %v]", c.RouteInflationMin, c.RouteInflationMax)
	}
	if c.UserAccessMinMS < 0 || c.UserAccessMaxMS < c.UserAccessMinMS {
		return fmt.Errorf("netsim: invalid user access range [%v, %v]", c.UserAccessMinMS, c.UserAccessMaxMS)
	}
	if c.AgentAccessMS < 0 || c.MinFloorMS < 0 {
		return fmt.Errorf("netsim: negative access or floor delay")
	}
	return nil
}

// Network holds the synthesized substrate: the placed sites, the dense
// inter-agent matrix D, and what the agent-to-user delay H is a pure
// function of — the sites' points, the per-user access delays and the
// Config. H is computed on demand (H), never stored as an L×U matrix.
type Network struct {
	AgentSites []Site
	UserSites  []Site
	// DMS is the L×L one-way inter-agent delay matrix in ms (symmetric,
	// zero diagonal).
	DMS [][]float64

	cfg           Config
	agents, users []point
	userAccess    []float64
}

// Generate synthesizes a Network for the given agent and user sites.
func Generate(cfg Config, agentSites, userSites []Site) (*Network, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if len(agentSites) == 0 {
		return nil, fmt.Errorf("netsim: no agent sites")
	}

	n := &Network{
		AgentSites: append([]Site(nil), agentSites...),
		UserSites:  append([]Site(nil), userSites...),
		cfg:        cfg,
		agents:     points(agentSites),
		users:      points(userSites),
		userAccess: make([]float64, len(userSites)),
	}

	// Per-user last-mile access delay, drawn once per user.
	accessRng := rand.New(rand.NewSource(cfg.Seed ^ 0x5ee0a11ce))
	for i := range n.userAccess {
		n.userAccess[i] = cfg.UserAccessMinMS +
			accessRng.Float64()*(cfg.UserAccessMaxMS-cfg.UserAccessMinMS)
	}

	L := len(agentSites)
	n.DMS = matrix(L, L)
	// Every cell is a pure function of its pair, so rows fill in parallel:
	// row l writes (l, k) and (k, l) for k > l only.
	parallelRows(L, func(l int) {
		for k := l + 1; k < L; k++ {
			d := cfg.pathDelayMS(n.agents[l], n.agents[k], pairKey(cfg.Seed, l, k)) +
				2*cfg.AgentAccessMS
			if d < cfg.MinFloorMS {
				d = cfg.MinFloorMS
			}
			n.DMS[l][k] = d
			n.DMS[k][l] = d
		}
	})
	return n, nil
}

// H returns the one-way delay in ms between agent l and user u: the path
// delay plus both access delays, floored at MinFloorMS. It is a pure
// function of the pair, safe for concurrent use, and returns the same bits
// on every call.
func (n *Network) H(l, u int) float64 {
	c := &n.cfg
	d := c.pathDelayMS(n.agents[l], n.users[u], pairKey(c.Seed, 1000+l, 2000+u)) +
		c.AgentAccessMS + n.userAccess[u]
	if d < c.MinFloorMS {
		d = c.MinFloorMS
	}
	return d
}

// matrix allocates a rows×cols table.
func matrix(rows, cols int) [][]float64 {
	m := make([][]float64, rows)
	for i := range m {
		m[i] = make([]float64, cols)
	}
	return m
}

// parallelRows calls row(i) once for every i in [0, n) on up to GOMAXPROCS
// goroutines, each taking the next unclaimed row.
func parallelRows(n int, row func(i int)) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := min(runtime.GOMAXPROCS(0), n); w > 0; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < n; i = int(next.Add(1) - 1) {
				row(i)
			}
		}()
	}
	wg.Wait()
}

// point is a site's coordinates with cos(lat) computed once per site.
type point struct{ lat, lon, cosLat float64 }

func pointOf(s Site) point { return point{s.Lat, s.Lon, math.Cos(rad(s.Lat))} }

func points(sites []Site) []point {
	ps := make([]point, len(sites))
	for i, s := range sites {
		ps[i] = pointOf(s)
	}
	return ps
}

// pathDelayMS is the one-way propagation delay between two sites: geodesic
// distance over the speed of light in fiber (≈200 km/ms), times a
// deterministic per-pair routing inflation.
func (c Config) pathDelayMS(a, b point, key uint64) float64 {
	const fiberKMPerMS = 200.0
	dist := haversineKM(a, b)
	infl := c.RouteInflationMin +
		hashUnit(key)*(c.RouteInflationMax-c.RouteInflationMin)
	return dist / fiberKMPerMS * infl
}

// GenerateUserNodes samples n PlanetLab-like user sites: each node picks a
// region per the PlanetLab mix, an anchor city in that region, and a small
// coordinate jitter (metro-area spread).
func GenerateUserNodes(seed int64, n int) []Site {
	rng := rand.New(rand.NewSource(seed ^ 0x7f4a7c15))
	byRegion := make(map[string][]Site)
	for _, c := range anchorCities {
		byRegion[c.Region] = append(byRegion[c.Region], c)
	}
	sites := make([]Site, 0, n)
	for i := 0; i < n; i++ {
		region := pickRegion(rng.Float64())
		pool := byRegion[region]
		anchor := pool[rng.Intn(len(pool))]
		sites = append(sites, Site{
			Name:   fmt.Sprintf("node-%03d-%s", i, anchor.Name),
			Region: region,
			// ±0.75° of jitter ≈ up to ~80 km of metro-area spread.
			Lat: clampLat(anchor.Lat + (rng.Float64()-0.5)*1.5),
			Lon: anchor.Lon + (rng.Float64()-0.5)*1.5,
		})
	}
	return sites
}

func pickRegion(u float64) string {
	acc := 0.0
	for _, rw := range regionWeights {
		acc += rw.weight
		if u < acc {
			return rw.region
		}
	}
	return regionWeights[len(regionWeights)-1].region
}

func clampLat(lat float64) float64 {
	if lat > 89 {
		return 89
	}
	if lat < -89 {
		return -89
	}
	return lat
}

func rad(deg float64) float64 { return deg * math.Pi / 180 }

// haversineKM returns the great-circle distance between two points: one
// sine per half-angle, the cosines the points carry.
func haversineKM(a, b point) float64 {
	const earthRadiusKM = 6371.0
	s1 := math.Sin(rad(b.lat-a.lat) / 2)
	s2 := math.Sin(rad(b.lon-a.lon) / 2)
	h := s1*s1 + a.cosLat*b.cosLat*s2*s2
	return 2 * earthRadiusKM * math.Asin(math.Min(1, math.Sqrt(h)))
}

// pairKey builds a symmetric deterministic key for an unordered index pair.
func pairKey(seed int64, i, j int) uint64 {
	if i > j {
		i, j = j, i
	}
	return uint64(seed)*0x9e3779b97f4a7c15 ^ uint64(i)<<32 ^ uint64(j)
}

// hashUnit maps a key to [0,1) via splitmix64 finalization.
func hashUnit(key uint64) float64 {
	z := key + 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return float64(z>>11) / float64(1<<53)
}
