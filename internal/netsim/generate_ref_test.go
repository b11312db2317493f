package netsim

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"
)

// refNetwork is the dense form of a network: both delay matrices.
type refNetwork struct {
	DMS, HMS [][]float64
}

// generateRef is the serial generator Generate replaced, kept as the
// reference: two cosines and four sines per pair, H and D filled in one pass
// each as dense matrices.
func generateRef(cfg Config, agentSites, userSites []Site) *refNetwork {
	n := &refNetwork{}

	// Per-user last-mile access delay, drawn once per user.
	userAccess := make([]float64, len(userSites))
	accessRng := rand.New(rand.NewSource(cfg.Seed ^ 0x5ee0a11ce))
	for i := range userAccess {
		userAccess[i] = cfg.UserAccessMinMS +
			accessRng.Float64()*(cfg.UserAccessMaxMS-cfg.UserAccessMinMS)
	}

	L := len(agentSites)
	n.DMS = make([][]float64, L)
	for l := range n.DMS {
		n.DMS[l] = make([]float64, L)
	}
	for l := 0; l < L; l++ {
		for k := l + 1; k < L; k++ {
			d := cfg.pathDelayMSRef(agentSites[l], agentSites[k], pairKey(cfg.Seed, l, k)) +
				2*cfg.AgentAccessMS
			if d < cfg.MinFloorMS {
				d = cfg.MinFloorMS
			}
			n.DMS[l][k] = d
			n.DMS[k][l] = d
		}
	}

	n.HMS = make([][]float64, L)
	for l := range n.HMS {
		n.HMS[l] = make([]float64, len(userSites))
		for u := range userSites {
			d := cfg.pathDelayMSRef(agentSites[l], userSites[u], pairKey(cfg.Seed, 1000+l, 2000+u)) +
				cfg.AgentAccessMS + userAccess[u]
			if d < cfg.MinFloorMS {
				d = cfg.MinFloorMS
			}
			n.HMS[l][u] = d
		}
	}
	return n
}

func (c Config) pathDelayMSRef(a, b Site, key uint64) float64 {
	const fiberKMPerMS = 200.0
	dist := haversineKMRef(a.Lat, a.Lon, b.Lat, b.Lon)
	infl := c.RouteInflationMin +
		hashUnit(key)*(c.RouteInflationMax-c.RouteInflationMin)
	return dist / fiberKMPerMS * infl
}

func haversineKMRef(lat1, lon1, lat2, lon2 float64) float64 {
	const earthRadiusKM = 6371.0
	rad := func(deg float64) float64 { return deg * math.Pi / 180 }
	dLat := rad(lat2 - lat1)
	dLon := rad(lon2 - lon1)
	a := math.Sin(dLat/2)*math.Sin(dLat/2) +
		math.Cos(rad(lat1))*math.Cos(rad(lat2))*math.Sin(dLon/2)*math.Sin(dLon/2)
	return 2 * earthRadiusKM * math.Asin(math.Min(1, math.Sqrt(a)))
}

// hMatrix materializes a network's H as the dense L×U matrix.
func hMatrix(n *Network) [][]float64 {
	h := make([][]float64, len(n.AgentSites))
	for l := range h {
		h[l] = make([]float64, len(n.UserSites))
		for u := range h[l] {
			h[l][u] = n.H(l, u)
		}
	}
	return h
}

// sameBits reports the first cell where two matrices differ in shape or in
// any bit.
func sameBits(name string, got, want [][]float64) error {
	if len(got) != len(want) {
		return fmt.Errorf("%s: %d rows, want %d", name, len(got), len(want))
	}
	for i := range want {
		if len(got[i]) != len(want[i]) {
			return fmt.Errorf("%s row %d: %d cols, want %d", name, i, len(got[i]), len(want[i]))
		}
		for j := range want[i] {
			if math.Float64bits(got[i][j]) != math.Float64bits(want[i][j]) {
				return fmt.Errorf("%s[%d][%d] = %v, want %v", name, i, j, got[i][j], want[i][j])
			}
		}
	}
	return nil
}

func randomSites(rng *rand.Rand, n int) []Site {
	sites := make([]Site, n)
	for i := range sites {
		sites[i] = Site{Lat: rng.Float64()*180 - 90, Lon: rng.Float64()*360 - 180}
	}
	return sites
}

// TestGenerateMatchesReference: H and D are bit-identical to the serial
// reference on random sites and on the corners of the sphere, at every
// worker count.
func TestGenerateMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	edges := []Site{
		{Lat: 90, Lon: 0}, {Lat: -90, Lon: 0}, {Lat: 89, Lon: 180}, {Lat: -89, Lon: -180},
		{Lat: 0, Lon: 180}, {Lat: 0, Lon: -180}, {Lat: 12.5, Lon: 179.99}, {Lat: 12.5, Lon: -179.99},
		{Lat: 35.68, Lon: 139.69}, {Lat: 35.68, Lon: 139.69}, // coincident
	}
	floored := DefaultConfig(3)
	floored.AgentAccessMS, floored.UserAccessMinMS, floored.UserAccessMaxMS = 0, 0, 0
	floored.MinFloorMS = 5 // coincident and nearby pairs take the floor
	cases := []struct {
		name          string
		cfg           Config
		agents, users []Site
	}{
		{"random", DefaultConfig(1), randomSites(rng, 96), randomSites(rng, 500)},
		{"random-seed2", DefaultConfig(2), randomSites(rng, 40), randomSites(rng, 300)},
		{"edges", DefaultConfig(7), edges, append(randomSites(rng, 20), edges...)},
		{"floor", floored, edges, edges},
		{"no-users", DefaultConfig(4), randomSites(rng, 9), nil},
		{"one-agent", DefaultConfig(6), edges[:1], edges},
		{"fewer-agents-than-workers", DefaultConfig(8), edges[:3], randomSites(rng, 5)},
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2, 8} {
		runtime.GOMAXPROCS(procs)
		for _, tc := range cases {
			t.Run(fmt.Sprintf("%s/procs=%d", tc.name, procs), func(t *testing.T) {
				got, err := Generate(tc.cfg, tc.agents, tc.users)
				if err != nil {
					t.Fatal(err)
				}
				want := generateRef(tc.cfg, tc.agents, tc.users)
				if err := sameBits("D", got.DMS, want.DMS); err != nil {
					t.Fatal(err)
				}
				if err := sameBits("H", hMatrix(got), want.HMS); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}

// TestGenerateFloorTaken guards the floor case above against drifting out of
// the branch it exists to cover.
func TestGenerateFloorTaken(t *testing.T) {
	cfg := DefaultConfig(3)
	cfg.AgentAccessMS, cfg.UserAccessMinMS, cfg.UserAccessMaxMS = 0, 0, 0
	cfg.MinFloorMS = 5
	s := Site{Lat: 35.68, Lon: 139.69}
	n, err := Generate(cfg, []Site{s, s}, []Site{s})
	if err != nil {
		t.Fatal(err)
	}
	if n.DMS[0][1] != 5 || n.H(1, 0) != 5 {
		t.Fatalf("coincident sites: D = %v, H = %v, want the 5 ms floor", n.DMS[0][1], n.H(1, 0))
	}
}
