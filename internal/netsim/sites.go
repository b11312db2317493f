// Package netsim synthesizes the Internet latency substrate the paper
// measured on PlanetLab and Amazon EC2: the inter-agent delay matrix D and
// the agent-to-user delay H, a pure function of the pair.
//
// The paper used 5 weeks of RTT pings between 256 PlanetLab nodes and 7 EC2
// instances ([3],[22] in the paper). We do not have those traces, so this
// package places nodes at real-city coordinates and derives one-way delays
// from great-circle distance at the speed of light in fiber, inflated by a
// deterministic per-pair routing factor plus last-mile access delay — the
// standard latency-synthesis recipe. The optimizer consumes only D and H, so
// any metric-like matrix with realistic magnitudes exercises identical code
// paths (see DESIGN.md §2). The motivating Fig. 2 instance, whose latencies
// are printed in the paper, is reproduced exactly in fixture_fig2.go.
package netsim

// Site is a geographic location hosting either a cloud agent or a user node.
type Site struct {
	// Name is a short label, e.g. "TO" or "planetlab-3-tokyo".
	Name string
	// Region is a coarse geographic region used for population mixes,
	// e.g. "north-america", "asia", "europe", "south-america", "oceania".
	Region string
	// Lat and Lon are in degrees.
	Lat float64
	Lon float64
}

// EC2Sites returns the seven EC2-like cloud sites used by the paper's
// large-scale experiments (§V-B uses 7 EC2 instances as agents).
func EC2Sites() []Site {
	return []Site{
		{Name: "OR", Region: "north-america", Lat: 45.52, Lon: -122.68}, // us-west-2 Oregon
		{Name: "VA", Region: "north-america", Lat: 38.95, Lon: -77.45},  // us-east-1 N. Virginia
		{Name: "SP", Region: "south-america", Lat: -23.55, Lon: -46.63}, // sa-east-1 São Paulo
		{Name: "IR", Region: "europe", Lat: 53.35, Lon: -6.26},          // eu-west-1 Ireland
		{Name: "SG", Region: "asia", Lat: 1.35, Lon: 103.82},            // ap-southeast-1 Singapore
		{Name: "TO", Region: "asia", Lat: 35.68, Lon: 139.69},           // ap-northeast-1 Tokyo
		{Name: "SY", Region: "oceania", Lat: -33.87, Lon: 151.21},       // ap-southeast-2 Sydney
	}
}

// AnchorSites returns the full anchor-city pool (copy) — the metropolitan
// areas user nodes cluster around. Workload generators that need regional
// structure beyond the 7 EC2 sites (workload.GenerateSyntheticFleet's
// regional mode) draw their region anchors from this list.
func AnchorSites() []Site {
	return append([]Site(nil), anchorCities...)
}

// anchorCities is the pool of metropolitan areas user nodes cluster around.
// The mix mirrors the historical PlanetLab footprint: mostly North America
// and Europe, a solid Asian contingent, a few nodes elsewhere.
var anchorCities = []Site{
	// North America
	{Name: "berkeley", Region: "north-america", Lat: 37.87, Lon: -122.27},
	{Name: "seattle", Region: "north-america", Lat: 47.61, Lon: -122.33},
	{Name: "boston", Region: "north-america", Lat: 42.36, Lon: -71.06},
	{Name: "princeton", Region: "north-america", Lat: 40.35, Lon: -74.66},
	{Name: "chicago", Region: "north-america", Lat: 41.88, Lon: -87.63},
	{Name: "austin", Region: "north-america", Lat: 30.27, Lon: -97.74},
	{Name: "toronto", Region: "north-america", Lat: 43.65, Lon: -79.38},
	{Name: "losangeles", Region: "north-america", Lat: 34.05, Lon: -118.24},
	// Europe
	{Name: "cambridge-uk", Region: "europe", Lat: 52.21, Lon: 0.12},
	{Name: "paris", Region: "europe", Lat: 48.86, Lon: 2.35},
	{Name: "berlin", Region: "europe", Lat: 52.52, Lon: 13.40},
	{Name: "zurich", Region: "europe", Lat: 47.38, Lon: 8.54},
	{Name: "madrid", Region: "europe", Lat: 40.42, Lon: -3.70},
	{Name: "stockholm", Region: "europe", Lat: 59.33, Lon: 18.07},
	{Name: "warsaw", Region: "europe", Lat: 52.23, Lon: 21.01},
	// Asia
	{Name: "tokyo", Region: "asia", Lat: 35.68, Lon: 139.69},
	{Name: "seoul", Region: "asia", Lat: 37.57, Lon: 126.98},
	{Name: "beijing", Region: "asia", Lat: 39.90, Lon: 116.40},
	{Name: "hongkong", Region: "asia", Lat: 22.32, Lon: 114.17},
	{Name: "singapore-city", Region: "asia", Lat: 1.35, Lon: 103.82},
	{Name: "taipei", Region: "asia", Lat: 25.03, Lon: 121.57},
	// South America
	{Name: "saopaulo-city", Region: "south-america", Lat: -23.55, Lon: -46.63},
	{Name: "santiago", Region: "south-america", Lat: -33.45, Lon: -70.67},
	// Oceania
	{Name: "sydney-city", Region: "oceania", Lat: -33.87, Lon: 151.21},
	{Name: "auckland", Region: "oceania", Lat: -36.85, Lon: 174.76},
}

// regionWeights is the approximate PlanetLab regional mix used when
// sampling user nodes.
var regionWeights = []struct {
	region string
	weight float64
}{
	{"north-america", 0.40},
	{"europe", 0.30},
	{"asia", 0.20},
	{"south-america", 0.05},
	{"oceania", 0.05},
}
