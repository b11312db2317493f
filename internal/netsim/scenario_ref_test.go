package netsim

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"vconf/internal/model"
)

// scenarioOf builds a scenario over the network's sites, one session of up
// to four users at a time, with H taken from Network.H.
func scenarioOf(t *testing.T, n *Network) *model.Scenario {
	t.Helper()
	b := model.NewBuilder(nil)
	for range n.AgentSites {
		b.AddAgent(model.Agent{Upload: 1, Download: 1})
	}
	var s model.SessionID
	for u := range n.UserSites {
		if u%4 == 0 {
			s = b.AddSession("s")
		}
		b.AddUser("u", s, 0, nil)
	}
	b.SetInterAgentDelays(n.DMS)
	b.SetAgentUserDelayFunc(func(l model.AgentID, u model.UserID) float64 { return n.H(int(l), int(u)) })
	sc, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return sc
}

// checkScenarioAgainstRef compares every H read and every nearest-agent
// prefix of the scenario with the dense serial reference: H bit for bit,
// AppendNearestAgents(u, k) for k = L..1 against the reference column sorted
// by delay with ties by agent ID.
func checkScenarioAgainstRef(sc *model.Scenario, ref *refNetwork) error {
	L, U := sc.NumAgents(), sc.NumUsers()
	order := make([]model.AgentID, L)
	var got []model.AgentID
	for u := 0; u < U; u++ {
		uid := model.UserID(u)
		for l := 0; l < L; l++ {
			if h, want := sc.H(model.AgentID(l), uid), ref.HMS[l][u]; math.Float64bits(h) != math.Float64bits(want) {
				return fmt.Errorf("H(%d, %d) = %v, reference %v", l, u, h, want)
			}
			order[l] = model.AgentID(l)
		}
		slices.SortStableFunc(order, func(a, b model.AgentID) int {
			return cmp.Compare(ref.HMS[a][u], ref.HMS[b][u])
		})
		for k := L; k >= 1; k-- {
			got = sc.AppendNearestAgents(got[:0], uid, k)
			if !slices.Equal(got, order[:k]) {
				return fmt.Errorf("user %d, k=%d: AppendNearestAgents = %v, reference %v", u, k, got, order[:k])
			}
		}
	}
	return nil
}

// TestScenarioDelaysMatchReference: over 200 random fleets (L in 1..64, U in
// 1..512, random seeds) and one of co-located sites where the floor binds
// and delays tie, the scenario's H — nearest row or recomputed — equals the
// dense serial reference cell bit for bit, and its nearest-agent order is
// the reference's with ties broken by agent ID.
func TestScenarioDelaysMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(36))
	for fleet := 0; fleet < 200; fleet++ {
		cfg := DefaultConfig(rng.Int63())
		agents, users := randomSites(rng, 1+rng.Intn(64)), randomSites(rng, 1+rng.Intn(512))
		n, err := Generate(cfg, agents, users)
		if err != nil {
			t.Fatal(err)
		}
		if err := checkScenarioAgainstRef(scenarioOf(t, n), generateRef(cfg, agents, users)); err != nil {
			t.Fatalf("fleet %d (L=%d, U=%d): %v", fleet, len(agents), len(users), err)
		}
	}

	// Co-located: every site is one of three points and access is free, so
	// a same-point pair takes the 5 ms floor and most columns tie.
	cfg := DefaultConfig(9)
	cfg.AgentAccessMS, cfg.UserAccessMinMS, cfg.UserAccessMaxMS = 0, 0, 0
	cfg.MinFloorMS = 5
	points := []Site{{Lat: 35.68, Lon: 139.69}, {Lat: 35.68, Lon: 139.7}, {Lat: 1.35, Lon: 103.82}}
	pick := func(n int) []Site {
		s := make([]Site, n)
		for i := range s {
			s[i] = points[rng.Intn(len(points))]
		}
		return s
	}
	agents, users := pick(24), pick(200)
	n, err := Generate(cfg, agents, users)
	if err != nil {
		t.Fatal(err)
	}
	ref := generateRef(cfg, agents, users)
	floored := 0
	for _, row := range ref.HMS {
		for _, v := range row {
			if v == cfg.MinFloorMS {
				floored++
			}
		}
	}
	if floored < len(users) {
		t.Fatalf("co-located fleet: %d floored pairs, want ≥ %d", floored, len(users))
	}
	if err := checkScenarioAgainstRef(scenarioOf(t, n), ref); err != nil {
		t.Fatalf("co-located fleet: %v", err)
	}
}
