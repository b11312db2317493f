package faults

import (
	"math"
	"reflect"
	"testing"

	"vconf/internal/workload"
)

func testConfig() Config {
	region := make([]int, 12)
	for a := range region {
		region[a] = a % 3
	}
	return Config{
		Seed:           7,
		HorizonS:       500,
		NumAgents:      12,
		AgentRegion:    region,
		AgentMTBFS:     400,
		AgentMTTRS:     60,
		RegionMTBFS:    400,
		RegionMTTRS:    80,
		DegradeMTBFS:   500,
		DegradeMTTRS:   70,
		DegradeFloor:   0.3,
		FlashMTBFS:     400,
		FlashIntensity: 3,
		FlashHoldS:     40,
		FlashSessions:  [][]int{{20, 21}, {22, 23}, {24}},
	}
}

// TestScheduleDeterministic pins the determinism contract: the same Config
// yields a byte-identical schedule across calls.
func TestScheduleDeterministic(t *testing.T) {
	cfg := testConfig()
	a, err := Schedule(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Schedule(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) == 0 {
		t.Fatal("empty fault schedule")
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same config produced different schedules")
	}
	// A different seed must produce a different schedule (overwhelmingly).
	cfg.Seed++
	c, err := Schedule(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a, c) {
		t.Fatal("seed change did not perturb the schedule")
	}
}

// TestScheduleWellFormed checks structural invariants: time-ordered, fault
// targets in range, burst arrivals drawn from the reserved pools, every
// burst departure after its arrival, recoveries only after failures.
func TestScheduleWellFormed(t *testing.T) {
	cfg := testConfig()
	events, err := Schedule(cfg)
	if err != nil {
		t.Fatal(err)
	}
	reserved := map[int]bool{}
	for _, pool := range cfg.FlashSessions {
		for _, s := range pool {
			reserved[s] = true
		}
	}
	agentDown := make([]bool, cfg.NumAgents)
	regionDown := make([]bool, 3)
	live := map[int]bool{}
	prev := 0.0
	kinds := map[workload.EventKind]int{}
	for i, e := range events {
		if e.TimeS < prev {
			t.Fatalf("event %d out of order: %v after %v", i, e.TimeS, prev)
		}
		prev = e.TimeS
		if e.TimeS >= cfg.HorizonS {
			t.Fatalf("event %d beyond the horizon: %v", i, e.TimeS)
		}
		kinds[e.Kind]++
		switch e.Kind {
		case workload.EventAgentFail:
			if e.Agent < 0 || e.Agent >= cfg.NumAgents || agentDown[e.Agent] {
				t.Fatalf("event %d: bad or duplicate agent failure %+v", i, e)
			}
			agentDown[e.Agent] = true
		case workload.EventAgentRecover:
			if !agentDown[e.Agent] {
				t.Fatalf("event %d: recovery without failure %+v", i, e)
			}
			agentDown[e.Agent] = false
		case workload.EventRegionOutage:
			if e.Region < 0 || e.Region >= 3 || regionDown[e.Region] {
				t.Fatalf("event %d: bad or duplicate region outage %+v", i, e)
			}
			regionDown[e.Region] = true
		case workload.EventRegionRecover:
			if !regionDown[e.Region] {
				t.Fatalf("event %d: region recovery without outage %+v", i, e)
			}
			regionDown[e.Region] = false
		case workload.EventCapacityDegrade:
			if e.Scale < cfg.DegradeFloor && e.Scale != 1 || e.Scale > 1 {
				t.Fatalf("event %d: degrade scale %v outside [floor, 1]", i, e.Scale)
			}
		case workload.EventArrival:
			if !reserved[e.Session] || live[e.Session] {
				t.Fatalf("event %d: burst arrival outside the reserved pool or double-arrival %+v", i, e)
			}
			live[e.Session] = true
		case workload.EventDeparture:
			if !live[e.Session] {
				t.Fatalf("event %d: departure without arrival %+v", i, e)
			}
			live[e.Session] = false
		case workload.EventFlashCrowd:
			if e.Region < 0 || e.Region >= len(cfg.FlashSessions) {
				t.Fatalf("event %d: flash marker region %d out of range", i, e.Region)
			}
		}
	}
	for _, k := range []workload.EventKind{workload.EventAgentFail, workload.EventRegionOutage,
		workload.EventCapacityDegrade, workload.EventFlashCrowd, workload.EventArrival} {
		if kinds[k] == 0 {
			t.Fatalf("schedule exercised no %v events (kinds: %v)", k, kinds)
		}
	}
}

// TestProcessIndependence pins the per-process RNG derivation: disabling one
// process must not perturb another's events.
func TestProcessIndependence(t *testing.T) {
	full := testConfig()
	all, err := Schedule(full)
	if err != nil {
		t.Fatal(err)
	}
	only := full
	only.RegionMTBFS, only.DegradeMTBFS, only.FlashMTBFS = 0, 0, 0
	agentOnly, err := Schedule(only)
	if err != nil {
		t.Fatal(err)
	}
	var fromFull []workload.Event
	for _, e := range all {
		if e.Kind == workload.EventAgentFail || e.Kind == workload.EventAgentRecover {
			fromFull = append(fromFull, e)
		}
	}
	// Incident ids are a schedule-global sequence over the merged fault
	// stream, so they legitimately renumber when other processes are
	// disabled; compare the streams modulo that field.
	for i := range fromFull {
		fromFull[i].Incident = 0
	}
	for i := range agentOnly {
		agentOnly[i].Incident = 0
	}
	if !reflect.DeepEqual(fromFull, agentOnly) {
		t.Fatal("disabling other processes perturbed the agent-failure stream")
	}
}

// TestMerge pins the stable two-way merge: time-ordered, a wins ties, both
// inputs fully consumed.
func TestMerge(t *testing.T) {
	a := []workload.Event{
		{TimeS: 1, Kind: workload.EventArrival, Session: 0},
		{TimeS: 3, Kind: workload.EventDeparture, Session: 0},
	}
	b := []workload.Event{
		{TimeS: 1, Kind: workload.EventAgentFail, Agent: 2, Session: -1},
		{TimeS: 2, Kind: workload.EventAgentRecover, Agent: 2, Session: -1},
		{TimeS: 9, Kind: workload.EventFlashCrowd, Region: 1, Session: -1},
	}
	got := Merge(a, b)
	want := []workload.Event{a[0], b[0], b[1], a[1], b[2]}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("merge:\n got %+v\nwant %+v", got, want)
	}
}

func TestValidate(t *testing.T) {
	bad := []func(*Config){
		func(c *Config) { c.HorizonS = 0 },
		func(c *Config) { c.NumAgents = 0 },
		func(c *Config) { c.AgentRegion = c.AgentRegion[:3] },
		func(c *Config) { c.AgentMTTRS = 0 },
		func(c *Config) { c.RegionMTTRS = 0 },
		func(c *Config) { c.DegradeFloor = 1 },
		func(c *Config) { c.FlashIntensity = 0 },
		func(c *Config) { c.FlashSessions = [][]int{{1}, {2}, {3}, {4}} },
		func(c *Config) { c.AgentRegion = nil }, // regional processes need the map
	}
	for i, mut := range bad {
		cfg := testConfig()
		mut(&cfg)
		if _, err := Schedule(cfg); err == nil {
			t.Fatalf("mutation %d: expected a validation error", i)
		}
	}
	if err := (testConfig()).Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestValidateRejectsNonFinite: NaN or −Inf in any float field is
// rejected, and so is +Inf for the horizon (an endless stream) and the
// degrade floor. The +Inf rates and repair times that stay valid yield a
// finite, finite-timed schedule.
func TestValidateRejectsNonFinite(t *testing.T) {
	fields := []struct {
		name   string
		set    func(c *Config, v float64)
		posInf bool // +Inf is a valid value
	}{
		{"horizon", func(c *Config, v float64) { c.HorizonS = v }, false},
		{"agent mtbf", func(c *Config, v float64) { c.AgentMTBFS = v }, true},
		{"agent mttr", func(c *Config, v float64) { c.AgentMTTRS = v }, true},
		{"region mtbf", func(c *Config, v float64) { c.RegionMTBFS = v }, true},
		{"region mttr", func(c *Config, v float64) { c.RegionMTTRS = v }, true},
		{"degrade mtbf", func(c *Config, v float64) { c.DegradeMTBFS = v }, true},
		{"degrade mttr", func(c *Config, v float64) { c.DegradeMTTRS = v }, true},
		{"degrade floor", func(c *Config, v float64) { c.DegradeFloor = v }, false},
		{"flash mtbf", func(c *Config, v float64) { c.FlashMTBFS = v }, true},
		{"flash hold", func(c *Config, v float64) { c.FlashHoldS = v }, true},
	}
	for _, f := range fields {
		for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
			cfg := testConfig()
			f.set(&cfg, v)
			events, err := Schedule(cfg)
			if f.posInf && v > 0 {
				if err != nil {
					t.Fatalf("%s = %v rejected: %v", f.name, v, err)
				}
				for _, e := range events {
					if math.IsNaN(e.TimeS) || math.IsInf(e.TimeS, 0) || math.IsNaN(e.Scale) {
						t.Fatalf("%s = %v: event %+v", f.name, v, e)
					}
				}
				continue
			}
			if err == nil {
				t.Fatalf("%s = %v accepted", f.name, v)
			}
		}
	}
}
