package faults

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"vconf/internal/sim"
	"vconf/internal/workload"
)

// drain collects a lazy source, checking time order as it goes.
func drain(t *testing.T, src *Source) []workload.Event {
	t.Helper()
	var out []workload.Event
	prev := -1.0
	for {
		e, ok := src.Next()
		if !ok {
			break
		}
		if e.TimeS < prev {
			t.Fatalf("lazy source emitted out of order: %v after %v", e.TimeS, prev)
		}
		prev = e.TimeS
		out = append(out, e)
	}
	if err := src.Err(); err != nil {
		t.Fatalf("lazy source error: %v", err)
	}
	return out
}

// TestLazyFaultsDifferential pins the lazy source to the eager reference:
// the k-way-merged stream equals byte for byte the schedule the sort-based
// refSchedule materializes — incident numbering, flash-burst interleavings
// and all — across seeds and process subsets.
func TestLazyFaultsDifferential(t *testing.T) {
	full := testConfig()
	agentsOnly := testConfig()
	agentsOnly.RegionMTBFS, agentsOnly.DegradeMTBFS, agentsOnly.FlashMTBFS = 0, 0, 0
	flashOnly := testConfig()
	flashOnly.AgentMTBFS, flashOnly.RegionMTBFS, flashOnly.DegradeMTBFS = 0, 0, 0
	// A tight flash pool with high intensity exercises the pre-flush pool
	// check and the heap-recycled pops.
	flashTight := flashOnly
	flashTight.FlashIntensity = 6
	flashTight.FlashHoldS = 5
	flashTight.FlashSessions = [][]int{{20, 21}}
	cfgs := []Config{full, agentsOnly, flashOnly, flashTight}
	for i, cfg := range cfgs {
		for seed := int64(1); seed <= 4; seed++ {
			cfg.Seed = seed
			eager, err := refSchedule(cfg)
			if err != nil {
				t.Fatalf("cfg %d seed %d: %v", i, seed, err)
			}
			src, err := NewSource(cfg)
			if err != nil {
				t.Fatalf("cfg %d seed %d: %v", i, seed, err)
			}
			lazy := drain(t, src)
			if !reflect.DeepEqual(eager, lazy) {
				n := len(eager)
				if len(lazy) < n {
					n = len(lazy)
				}
				for k := 0; k < n; k++ {
					if eager[k] != lazy[k] {
						t.Fatalf("cfg %d seed %d: first divergence at %d: eager %+v lazy %+v",
							i, seed, k, eager[k], lazy[k])
					}
				}
				t.Fatalf("cfg %d seed %d: lazy stream length %d, eager %d",
					i, seed, len(lazy), len(eager))
			}
		}
	}
}

// TestLazyFaultsRejectsInvalidConfig mirrors the eager validation.
func TestLazyFaultsRejectsInvalidConfig(t *testing.T) {
	if _, err := NewSource(Config{}); err == nil {
		t.Fatal("invalid config accepted")
	}
}

// TestMergeRankTieBreak pins the explicit tie contract on Merge: a churn
// and a fault event at the same timestamp order churn-first in either
// operand position, and full-key ties keep first-operand-first stability.
func TestMergeRankTieBreak(t *testing.T) {
	churn := []workload.Event{{TimeS: 5, Kind: workload.EventArrival, Session: 1, Rank: workload.RankChurn}}
	fault := []workload.Event{{TimeS: 5, Kind: workload.EventAgentFail, Session: -1, Agent: 2, Incident: 1, Rank: workload.RankFaults}}
	ab := Merge(churn, fault)
	ba := Merge(fault, churn)
	if !reflect.DeepEqual(ab, ba) {
		t.Fatalf("rank tie-break is operand-dependent: %+v vs %+v", ab, ba)
	}
	if ab[0].Kind != workload.EventArrival || ab[1].Kind != workload.EventAgentFail {
		t.Fatalf("churn must precede faults on equal timestamps, got %+v", ab)
	}
	// Same rank, same time: first operand wins (stable merge).
	x := []workload.Event{{TimeS: 5, Kind: workload.EventArrival, Session: 1}}
	y := []workload.Event{{TimeS: 5, Kind: workload.EventArrival, Session: 2}}
	xy := Merge(x, y)
	if xy[0].Session != 1 || xy[1].Session != 2 {
		t.Fatalf("full-key tie must keep first operand first, got %+v", xy)
	}
}

// firstDivergence describes where two schedules first differ, or returns
// "" when they are equal.
func firstDivergence(want, got []workload.Event) string {
	n := len(want)
	if len(got) < n {
		n = len(got)
	}
	for k := 0; k < n; k++ {
		if want[k] != got[k] {
			return fmt.Sprintf("first divergence at %d: reference %+v lazy %+v", k, want[k], got[k])
		}
	}
	if len(want) != len(got) {
		return fmt.Sprintf("lazy stream length %d, reference %d", len(got), len(want))
	}
	return ""
}

// randomConfig draws a fault configuration with every process on: fleet
// and region counts, disjoint flash pools (some empty), intensity up to 8,
// and flash onset gaps from far apart down to inside one burst's stagger
// window.
func randomConfig(seed int64) Config {
	r := rand.New(rand.NewSource(seed))
	logUniform := func(lo, hi float64) float64 {
		return math.Exp(math.Log(lo) + r.Float64()*(math.Log(hi)-math.Log(lo)))
	}
	agents := 1 + r.Intn(24)
	regions := 1 + r.Intn(6)
	region := make([]int, agents)
	for a := range region {
		region[a] = r.Intn(regions)
	}
	cfg := Config{Seed: seed, HorizonS: logUniform(20, 2000), NumAgents: agents, AgentRegion: region}
	cfg.AgentMTBFS = logUniform(cfg.HorizonS/20, 2*cfg.HorizonS)
	cfg.AgentMTTRS = logUniform(1, 200)
	cfg.RegionMTBFS = logUniform(cfg.HorizonS/20, 2*cfg.HorizonS)
	cfg.RegionMTTRS = logUniform(1, 200)
	cfg.DegradeMTBFS = logUniform(cfg.HorizonS/20, 2*cfg.HorizonS)
	cfg.DegradeMTTRS = logUniform(1, 200)
	cfg.DegradeFloor = 0.9 * r.Float64()
	cfg.FlashMTBFS = logUniform(cfg.HorizonS/4000, cfg.HorizonS)
	cfg.FlashIntensity = 1 + r.Intn(8)
	cfg.FlashHoldS = logUniform(1e-3, 100)
	next := 1000
	cfg.FlashSessions = make([][]int, cfg.numRegions())
	for p := range cfg.FlashSessions {
		for k := r.Intn(7); k > 0; k-- {
			cfg.FlashSessions[p] = append(cfg.FlashSessions[p], next)
			next++
		}
	}
	return cfg
}

// TestFaultsDifferentialRandomized compares the lazy stream with the eager
// reference on random configurations and on one pinned configuration whose
// flash onsets fall inside each other's bursts throughout — the case where
// a stream that emitted each burst whole would run backwards in time.
func TestFaultsDifferentialRandomized(t *testing.T) {
	overlap := testConfig()
	overlap.HorizonS = 20
	overlap.FlashMTBFS = 0.005
	overlap.FlashIntensity = 6
	overlap.FlashHoldS = 0.02
	cfgs := []Config{overlap}
	for seed := int64(1); seed <= 400; seed++ {
		cfgs = append(cfgs, randomConfig(seed))
	}
	failed := 0
	for i, cfg := range cfgs {
		want, err := refSchedule(cfg)
		if err != nil {
			t.Fatalf("cfg %d: %v", i, err)
		}
		got, err := Schedule(cfg)
		if err != nil {
			t.Fatalf("cfg %d: %v", i, err)
		}
		if d := firstDivergence(want, got); d != "" {
			failed++
			t.Errorf("cfg %d (seed %d): %s", i, cfg.Seed, d)
		}
	}
	if failed > 0 {
		t.Errorf("%d of %d configurations diverge", failed, len(cfgs))
	}
}

// TestFlashStreamTimeOrdered runs a virtual day at the benchmark battery's
// fault parameters (96 agents in 6 regions) through the sim engine, which
// stops on a source that emits out of order, for seeds 1-200.
func TestFlashStreamTimeOrdered(t *testing.T) {
	const agents, regions = 96, 6
	pools := make([][]int, regions)
	for s := 0; s < 60; s++ {
		pools[s%regions] = append(pools[s%regions], 100+s)
	}
	failed := 0
	for seed := int64(1); seed <= 200; seed++ {
		src, err := NewSource(Config{
			Seed:           seed,
			HorizonS:       86400,
			NumAgents:      agents,
			AgentRegion:    workload.AgentRegions(agents, regions),
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
		})
		if err != nil {
			t.Fatal(err)
		}
		eng := sim.New(src)
		prev := 0.0
		for ev, ok := eng.Next(); ok; ev, ok = eng.Next() {
			if ev.TimeS < prev {
				t.Fatalf("seed %d: %v after %v", seed, ev.TimeS, prev)
			}
			prev = ev.TimeS
		}
		if err := eng.Err(); err != nil {
			failed++
			t.Errorf("seed %d: %v", seed, err)
		}
	}
	if failed > 0 {
		t.Errorf("%d of 200 seeds out of order", failed)
	}
}
