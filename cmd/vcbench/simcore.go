// Sim-core mode: `vcbench -run simcore -format json > BENCH_10.json`
// measures the virtual-clock discrete-event core against the eager
// pre-materialized path at two scales. At orchestrator scale, the same
// chaos fixture is run once from an eager merged []Event slice and once
// pulled lazily from the sim engine (events fully processed per wall
// second, so the engine's pull overhead is priced against the control
// plane). At generator scale, a ≥1M-event virtual-day chaos schedule is
// materialized eagerly (the whole day resident) and then streamed lazily
// through the engine while verifying the merge order event for event —
// heap-in-use per point shows the O(horizon) vs O(in-flight) memory
// contract, and the lazy point reports its virtual-vs-wall rate.
package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"vconf/internal/agrank"
	"vconf/internal/assign"
	"vconf/internal/core"
	"vconf/internal/cost"
	"vconf/internal/faults"
	"vconf/internal/model"
	"vconf/internal/orchestrator"
	"vconf/internal/sim"
	"vconf/internal/telemetry"
	"vconf/internal/workload"
)

// simCorePoint is one eager-vs-lazy measurement.
type simCorePoint struct {
	Name   string `json:"name"`
	Events int    `json:"events"`
	// VirtualS is the schedule horizon covered.
	VirtualS float64 `json:"virtual_s"`
	WallS    float64 `json:"wall_s"`
	// EventsPerSec counts schedule events fully processed (orchestrator
	// points) or generated+consumed (engine points) per wall second.
	EventsPerSec float64 `json:"events_per_sec"`
	// HeapInuseMB is the live heap right after the phase (eager: the whole
	// materialized schedule resident; lazy: generator state only).
	HeapInuseMB float64 `json:"heap_inuse_mb"`
	// VirtualWallRatio is how much faster than real time the virtual clock
	// advanced (engine points only).
	VirtualWallRatio float64 `json:"virtual_wall_ratio,omitempty"`
}

// simCoreReport is the BENCH_10.json payload.
type simCoreReport struct {
	GeneratedBy string `json:"generated_by"`
	// SchemaVersion is benchSchemaVersion at write time; vcreport refuses
	// mismatched versions.
	SchemaVersion int            `json:"schema_version"`
	Description   string         `json:"description"`
	Meta          runMeta        `json:"meta"`
	Points        []simCorePoint `json:"points"`
	// LazyEagerRatios maps point pair → lazy events-per-sec over eager: the
	// streaming cost (or win) of pulling lazily instead of materializing.
	LazyEagerRatios map[string]float64 `json:"lazy_eager_ratios"`
	// PeakRSSMB is the process VmHWM after all points — the virtual-day
	// peak-RSS note (the eager day dominates it; the lazy day alone stays
	// at O(in-flight)).
	PeakRSSMB float64 `json:"peak_rss_mb"`
}

// heapInuseMB forces a GC and reports the live heap.
func heapInuseMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapInuse) / (1 << 20)
}

// peakRSSMB reads the process high-water RSS (VmHWM) in MB; 0 when
// unavailable.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			return 0
		}
		kb, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			return 0
		}
		return kb / 1024
	}
	return 0
}

// simCoreOrchFixture builds the orchestrator-scale chaos spec: the
// chaosSweepStack fleet with the light fault mix, expressed as generator
// configs so both the eager and the lazy path derive from one spec.
func simCoreOrchFixture(fleetAgents int, horizonS float64, seed int64) (*cost.Evaluator, core.Bootstrapper, []int, workload.ChurnConfig, faults.Config, error) {
	const regions = 6
	fc := workload.DefaultFleetConfig(seed)
	fc.NumAgents = fleetAgents
	fc.NumUsers = 8 * fleetAgents
	fc.MinSessionSize = 4
	fc.MaxSessionSize = 6
	fc.Regions = regions
	fc.AgentBandwidthMbps = 3000
	fc.AgentTranscodeSlots = 12
	sc, homes, err := workload.GenerateSyntheticFleetRegions(fc)
	if err != nil {
		return nil, nil, nil, workload.ChurnConfig{}, faults.Config{}, err
	}
	p := cost.DefaultParams()
	ev, err := cost.NewEvaluator(sc, p)
	if err != nil {
		return nil, nil, nil, workload.ChurnConfig{}, faults.Config{}, err
	}
	opts := agrank.DefaultOptions(3)
	boot := func(a *assign.Assignment, s model.SessionID, ledger cost.LedgerAPI) error {
		_, err := agrank.BootstrapSession(a, s, p, ledger, opts)
		return err
	}
	nChurn := len(homes) * 3 / 5
	ccfg := workload.ChurnConfig{
		Seed:            seed,
		HorizonS:        horizonS,
		ArrivalRatePerS: 1.0,
		MeanHoldS:       80,
		NumSessions:     nChurn,
	}
	pools := make([][]int, regions)
	for s := nChurn; s < len(homes); s++ {
		pools[homes[s]] = append(pools[homes[s]], s)
	}
	agentRegion := workload.AgentRegions(fleetAgents, regions)
	fcfg := faults.Config{
		Seed:           seed + 1,
		HorizonS:       horizonS,
		NumAgents:      fleetAgents,
		AgentRegion:    agentRegion,
		AgentMTBFS:     8 * horizonS,
		AgentMTTRS:     horizonS / 5,
		RegionMTBFS:    16 * horizonS,
		RegionMTTRS:    horizonS / 6,
		DegradeMTBFS:   8 * horizonS,
		DegradeMTTRS:   horizonS / 5,
		DegradeFloor:   0.4,
		FlashMTBFS:     4 * horizonS,
		FlashIntensity: 4,
		FlashHoldS:     horizonS / 6,
		FlashSessions:  pools,
	}
	return ev, boot, agentRegion, ccfg, fcfg, nil
}

// simCoreDayConfigs builds the generator-scale virtual-day chaos spec:
// scenario-independent (the generators never touch a model.Scenario), sized
// so a full day yields well past a million merged events at default scale.
func simCoreDayConfigs(dayS float64, seed int64) (workload.ChurnConfig, faults.Config) {
	const (
		regions   = 8
		agents    = 500
		churnPool = 1200
	)
	ccfg := workload.ChurnConfig{
		Seed:            seed,
		HorizonS:        dayS,
		ArrivalRatePerS: 6.0,
		MeanHoldS:       60,
		NumSessions:     churnPool,
	}
	pools := make([][]int, regions)
	for s := churnPool; s < churnPool+16*regions; s++ {
		pools[s%regions] = append(pools[s%regions], s)
	}
	fcfg := faults.Config{
		Seed:           seed + 1,
		HorizonS:       dayS,
		NumAgents:      agents,
		AgentRegion:    workload.AgentRegions(agents, regions),
		AgentMTBFS:     3600,
		AgentMTTRS:     300,
		RegionMTBFS:    14400,
		RegionMTTRS:    600,
		DegradeMTBFS:   7200,
		DegradeMTTRS:   600,
		DegradeFloor:   0.4,
		FlashMTBFS:     1800,
		FlashIntensity: 4,
		FlashHoldS:     120,
		FlashSessions:  pools,
	}
	return ccfg, fcfg
}

// runSimCore measures eager-slice vs lazy-engine at orchestrator and
// generator scale and emits the BENCH_10.json payload.
func runSimCore(w io.Writer, format string, fleetAgents int, horizonS, dayS float64, seed int64, meta runMeta, sink *telemetry.Sink) error {
	rep := simCoreReport{
		GeneratedBy:   "vcbench -run simcore",
		SchemaVersion: benchSchemaVersion,
		Meta:          meta,
		Description: "Virtual-clock discrete-event core vs the eager pre-materialized path. Orchestrator scale: " +
			"one chaos fixture (regional fleet, Poisson churn, light fault mix) processed from an eager merged " +
			"[]Event slice and pulled lazily from the sim engine — identical decisions by construction, so the " +
			"events/sec gap is pure engine overhead. Generator scale: a virtual-day chaos schedule (≥1M events " +
			"at default scale) materialized eagerly and then streamed lazily while verifying merge order; " +
			"heap-in-use contrasts O(horizon) against O(in-flight) memory, and peak_rss_mb notes the process " +
			"high-water mark (dominated by the eager day).",
		LazyEagerRatios: map[string]float64{},
	}

	// ---- orchestrator scale ----
	ev, boot, agentRegion, occfg, ofcfg, err := simCoreOrchFixture(fleetAgents, horizonS, seed)
	if err != nil {
		return fmt.Errorf("simcore: %w", err)
	}
	newOrc := func() (*orchestrator.Orchestrator, error) {
		cfg := orchestrator.DefaultConfig(seed)
		cfg.Shards = 4
		cfg.LedgerShards = fleetAgents
		cfg.HopBudget = 12
		cfg.MaxReoptSessions = 4
		cfg.Core.NeighborWindow = 4
		cfg.MaxInFlight = 4
		cfg.Telemetry = sink
		cfg.AgentRegion = agentRegion
		return orchestrator.New(ev, boot, cfg)
	}
	ch, err := workload.PoissonSchedule(occfg)
	if err != nil {
		return fmt.Errorf("simcore: %w", err)
	}
	fl, err := faults.Schedule(ofcfg)
	if err != nil {
		return fmt.Errorf("simcore: %w", err)
	}
	events := faults.Merge(ch, fl)

	orc, err := newOrc()
	if err != nil {
		return fmt.Errorf("simcore: %w", err)
	}
	start := time.Now()
	if _, err := orc.Run(events, 0); err != nil {
		orc.Close()
		return fmt.Errorf("simcore: eager run: %w", err)
	}
	elapsed := time.Since(start)
	if err := orc.CheckInvariants(); err != nil {
		orc.Close()
		return fmt.Errorf("simcore: eager run invariants: %w", err)
	}
	eagerPhi := orc.Objective()
	orc.Close()
	rep.Points = append(rep.Points, simCorePoint{
		Name:         "SimCore/orchestrator-eager",
		Events:       len(events),
		VirtualS:     horizonS,
		WallS:        elapsed.Seconds(),
		EventsPerSec: float64(len(events)) / elapsed.Seconds(),
		HeapInuseMB:  heapInuseMB(),
	})

	orc, err = newOrc()
	if err != nil {
		return fmt.Errorf("simcore: %w", err)
	}
	cs, err := workload.NewChurnSource(occfg)
	if err != nil {
		return fmt.Errorf("simcore: %w", err)
	}
	fsrc, err := faults.NewSource(ofcfg)
	if err != nil {
		return fmt.Errorf("simcore: %w", err)
	}
	lazyEvents := 0
	start = time.Now()
	if err := orc.RunSource(sim.New(cs, fsrc), 0, func(orchestrator.EventReport) error {
		lazyEvents++
		return nil
	}); err != nil {
		orc.Close()
		return fmt.Errorf("simcore: lazy run: %w", err)
	}
	lazyElapsed := time.Since(start)
	if err := orc.CheckInvariants(); err != nil {
		orc.Close()
		return fmt.Errorf("simcore: lazy run invariants: %w", err)
	}
	if lazyEvents != len(events) {
		orc.Close()
		return fmt.Errorf("simcore: lazy engine emitted %d events, eager slice has %d", lazyEvents, len(events))
	}
	if phi := orc.Objective(); phi != eagerPhi {
		orc.Close()
		return fmt.Errorf("simcore: lazy objective %v diverged from eager %v", phi, eagerPhi)
	}
	orc.Close()
	rep.Points = append(rep.Points, simCorePoint{
		Name:         "SimCore/orchestrator-lazy",
		Events:       lazyEvents,
		VirtualS:     horizonS,
		WallS:        lazyElapsed.Seconds(),
		EventsPerSec: float64(lazyEvents) / lazyElapsed.Seconds(),
		HeapInuseMB:  heapInuseMB(),
	})
	rep.LazyEagerRatios["orchestrator-lazy-vs-eager"] =
		rep.Points[1].EventsPerSec / rep.Points[0].EventsPerSec

	// ---- generator scale: the virtual day ----
	// Lazy first, so the day-long eager slice cannot inflate the lazy
	// point's heap reading; the engine holds only generator state.
	dccfg, dfcfg := simCoreDayConfigs(dayS, seed)
	drainDay := func() (int, float64, error) {
		cs, err := workload.NewChurnSource(dccfg)
		if err != nil {
			return 0, 0, err
		}
		fsrc, err := faults.NewSource(dfcfg)
		if err != nil {
			return 0, 0, err
		}
		eng := sim.New(cs, fsrc)
		n := 0
		for {
			_, ok := eng.Next()
			if !ok {
				break
			}
			n++
		}
		return n, eng.Now(), eng.Err()
	}
	start = time.Now()
	dayEvents, dayVirtual, err := drainDay()
	if err != nil {
		return fmt.Errorf("simcore: virtual day: %w", err)
	}
	dayElapsed := time.Since(start)
	lazyHeap := heapInuseMB()
	rep.Points = append(rep.Points, simCorePoint{
		Name:             "SimCore/engine-lazy-day",
		Events:           dayEvents,
		VirtualS:         dayS,
		WallS:            dayElapsed.Seconds(),
		EventsPerSec:     float64(dayEvents) / dayElapsed.Seconds(),
		HeapInuseMB:      lazyHeap,
		VirtualWallRatio: dayVirtual / dayElapsed.Seconds(),
	})

	start = time.Now()
	dch, err := workload.PoissonSchedule(dccfg)
	if err != nil {
		return fmt.Errorf("simcore: virtual day: %w", err)
	}
	dfl, err := faults.Schedule(dfcfg)
	if err != nil {
		return fmt.Errorf("simcore: virtual day: %w", err)
	}
	dayMerged := faults.Merge(dch, dfl)
	eagerElapsed := time.Since(start)
	eagerHeap := heapInuseMB() // the whole day resident
	runtime.KeepAlive(dayMerged)
	if len(dayMerged) != dayEvents {
		return fmt.Errorf("simcore: virtual day: lazy engine produced %d events, eager slice %d", dayEvents, len(dayMerged))
	}
	rep.Points = append(rep.Points, simCorePoint{
		Name:             "SimCore/engine-eager-day",
		Events:           len(dayMerged),
		VirtualS:         dayS,
		WallS:            eagerElapsed.Seconds(),
		EventsPerSec:     float64(len(dayMerged)) / eagerElapsed.Seconds(),
		HeapInuseMB:      eagerHeap,
		VirtualWallRatio: dayS / eagerElapsed.Seconds(),
	})
	rep.LazyEagerRatios["engine-day-lazy-vs-eager"] =
		rep.Points[2].EventsPerSec / rep.Points[3].EventsPerSec
	rep.PeakRSSMB = peakRSSMB()

	if format == "json" {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(rep)
	}
	for _, p := range rep.Points {
		fmt.Fprintf(w, "simcore | %-28s | %8d events | %9.0f events/sec | heap %7.1f MB | virtual/wall %8.0fx\n",
			p.Name, p.Events, p.EventsPerSec, p.HeapInuseMB, p.VirtualWallRatio)
	}
	for k, v := range rep.LazyEagerRatios {
		fmt.Fprintf(w, "simcore | ratio %-28s | %.2fx\n", k, v)
	}
	fmt.Fprintf(w, "simcore | peak RSS %.1f MB\n", rep.PeakRSSMB)
	return nil
}
