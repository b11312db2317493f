package netsim

import (
	"math"
	"testing"
	"testing/quick"
)

func TestGenerateDeterministic(t *testing.T) {
	users := GenerateUserNodes(7, 20)
	n1, err := Generate(DefaultConfig(7), EC2Sites(), users)
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	n2, err := Generate(DefaultConfig(7), EC2Sites(), users)
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	for l := range n1.DMS {
		for k := range n1.DMS[l] {
			if n1.DMS[l][k] != n2.DMS[l][k] {
				t.Fatalf("D[%d][%d] differs across identical seeds", l, k)
			}
		}
	}
	h1, h2 := hMatrix(n1), hMatrix(n2)
	for l := range h1 {
		for u := range h1[l] {
			if h1[l][u] != h2[l][u] {
				t.Fatalf("H[%d][%d] differs across identical seeds", l, u)
			}
		}
	}
}

func TestGenerateSeedsDiffer(t *testing.T) {
	users := GenerateUserNodes(7, 10)
	n1, _ := Generate(DefaultConfig(1), EC2Sites(), users)
	n2, _ := Generate(DefaultConfig(2), EC2Sites(), users)
	same := true
	h1, h2 := hMatrix(n1), hMatrix(n2)
	for l := range h1 {
		for u := range h1[l] {
			if h1[l][u] != h2[l][u] {
				same = false
			}
		}
	}
	if same {
		t.Fatal("different seeds produced identical H matrices")
	}
}

func TestGenerateMatrixShape(t *testing.T) {
	agents := EC2Sites()
	users := GenerateUserNodes(3, 50)
	n, err := Generate(DefaultConfig(3), agents, users)
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	if len(n.DMS) != len(agents) {
		t.Fatalf("D rows = %d, want %d", len(n.DMS), len(agents))
	}
	if len(n.agents) != len(agents) || len(n.users) != len(users) || len(n.userAccess) != len(users) {
		t.Fatalf("H domain = %dx%d, want %dx%d", len(n.agents), len(n.users), len(agents), len(users))
	}
	for l := range n.DMS {
		if n.DMS[l][l] != 0 {
			t.Fatalf("D[%d][%d] = %v, want 0", l, l, n.DMS[l][l])
		}
		for k := range n.DMS[l] {
			if n.DMS[l][k] != n.DMS[k][l] {
				t.Fatalf("D not symmetric at (%d,%d)", l, k)
			}
			if l != k && n.DMS[l][k] <= 0 {
				t.Fatalf("D[%d][%d] = %v, want positive", l, k, n.DMS[l][k])
			}
		}
	}
}

func TestGenerateRealisticMagnitudes(t *testing.T) {
	agents := EC2Sites()
	n, err := Generate(DefaultConfig(42), agents, nil)
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	idx := func(name string) int {
		for i, s := range agents {
			if s.Name == name {
				return i
			}
		}
		t.Fatalf("site %s not found", name)
		return -1
	}
	// Trans-Pacific (Oregon–Tokyo) must be far slower than intra-Asia
	// (Tokyo–Singapore is ~5300 km, still much shorter than the Pacific).
	orTO := n.DMS[idx("OR")][idx("TO")]
	toSG := n.DMS[idx("TO")][idx("SG")]
	if orTO < 40 || orTO > 200 {
		t.Fatalf("OR–TO = %.1f ms, outside realistic [40,200]", orTO)
	}
	if toSG >= orTO {
		t.Fatalf("TO–SG (%.1f) should be below OR–TO (%.1f)", toSG, orTO)
	}
}

func TestGenerateUserNodesMix(t *testing.T) {
	sites := GenerateUserNodes(11, 256)
	if len(sites) != 256 {
		t.Fatalf("len = %d, want 256", len(sites))
	}
	counts := make(map[string]int)
	for _, s := range sites {
		counts[s.Region]++
	}
	if counts["north-america"] < 64 {
		t.Fatalf("north-america count = %d, want ≥ 64 (PlanetLab-like mix)", counts["north-america"])
	}
	if counts["asia"] < 26 {
		t.Fatalf("asia count = %d, want ≥ 26", counts["asia"])
	}
	if len(counts) < 4 {
		t.Fatalf("only %d regions populated, want ≥ 4", len(counts))
	}
}

func TestConfigValidation(t *testing.T) {
	users := GenerateUserNodes(1, 2)
	tests := []struct {
		name   string
		mutate func(*Config)
	}{
		{"inflation below 1", func(c *Config) { c.RouteInflationMin = 0.5 }},
		{"inflation inverted", func(c *Config) { c.RouteInflationMax = c.RouteInflationMin - 0.1 }},
		{"negative access", func(c *Config) { c.UserAccessMinMS = -1 }},
		{"access inverted", func(c *Config) { c.UserAccessMaxMS = c.UserAccessMinMS - 1 }},
		{"negative floor", func(c *Config) { c.MinFloorMS = -1 }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			cfg := DefaultConfig(1)
			tt.mutate(&cfg)
			if _, err := Generate(cfg, EC2Sites(), users); err == nil {
				t.Fatal("Generate succeeded with invalid config")
			}
		})
	}
	if _, err := Generate(DefaultConfig(1), nil, users); err == nil {
		t.Fatal("Generate succeeded with no agents")
	}
}

func TestHaversineKnownDistances(t *testing.T) {
	// Tokyo–Singapore ≈ 5320 km.
	d := haversineKM(pointOf(Site{Lat: 35.68, Lon: 139.69}), pointOf(Site{Lat: 1.35, Lon: 103.82}))
	if math.Abs(d-5320) > 200 {
		t.Fatalf("Tokyo–Singapore = %.0f km, want ≈5320", d)
	}
	// Same point.
	if p := pointOf(Site{Lat: 10, Lon: 20}); haversineKM(p, p) != 0 {
		t.Fatalf("same-point distance = %v, want 0", haversineKM(p, p))
	}
}

func TestFig2Fixture(t *testing.T) {
	n := Fig2()
	if len(n.AgentSites) != 4 || len(n.UserSites) != 4 {
		t.Fatalf("fixture shape: %d agents, %d users", len(n.AgentSites), len(n.UserSites))
	}
	// Paper-printed values.
	or, to, sg := 0, 1, 2
	hk := 3
	if n.DMS[to][or] != 67 {
		t.Fatalf("D(TO,OR) = %v, want 67", n.DMS[to][or])
	}
	if n.DMS[sg][or] != 117 {
		t.Fatalf("D(SG,OR) = %v, want 117", n.DMS[sg][or])
	}
	if n.HMS[to][hk] != 27 {
		t.Fatalf("H(TO,HK) = %v, want 27", n.HMS[to][hk])
	}
	if n.HMS[sg][hk] != 20 {
		t.Fatalf("H(SG,HK) = %v, want 20", n.HMS[sg][hk])
	}
	// The figure's argument: HK→TO→OR beats HK→SG→OR.
	viaTO := n.HMS[to][hk] + n.DMS[to][or]
	viaSG := n.HMS[sg][hk] + n.DMS[sg][or]
	if viaTO >= viaSG {
		t.Fatalf("via TO (%v) should beat via SG (%v)", viaTO, viaSG)
	}
	// Nearest agents are the geographically obvious ones.
	nearest := []int{or, 3 /*SP*/, to, sg}
	for u := 0; u < 4; u++ {
		best, bestD := -1, math.Inf(1)
		for l := 0; l < 4; l++ {
			if n.HMS[l][u] < bestD {
				best, bestD = l, n.HMS[l][u]
			}
		}
		if best != nearest[u] {
			t.Fatalf("user %d nearest agent = %d, want %d", u, best, nearest[u])
		}
	}
	// SG is the powerful transcoder.
	if n.Capability["SG"] >= n.Capability["TO"] {
		t.Fatal("SG must be more capable (lower factor) than TO")
	}
	// Symmetry and zero diagonal of the fixture matrix.
	for l := 0; l < 4; l++ {
		if n.DMS[l][l] != 0 {
			t.Fatalf("D diag %d nonzero", l)
		}
		for k := 0; k < 4; k++ {
			if n.DMS[l][k] != n.DMS[k][l] {
				t.Fatalf("fixture D asymmetric at (%d,%d)", l, k)
			}
		}
	}
}

// Property: synthesized delays respect a loose physicality bound — never
// below the floor and never above what 2.5× route inflation over half the
// planet plus access delays could produce.
func TestLatencyPhysicalityProperty(t *testing.T) {
	prop := func(seed int64, nu uint8) bool {
		n := int(nu%32) + 1
		users := GenerateUserNodes(seed, n)
		net, err := Generate(DefaultConfig(seed), EC2Sites(), users)
		if err != nil {
			return false
		}
		const maxMS = 20015.0/200.0*2.5 + 40 // half circumference, worst inflation + access
		for l := range net.agents {
			for u := range net.users {
				v := net.H(l, u)
				if v < 1 || v > maxMS || math.IsNaN(v) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
