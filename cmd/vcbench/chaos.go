// Chaos-recovery mode: `vcbench -run chaos -format json > BENCH_7.json`
// measures the orchestrator's self-healing under seeded fault injection —
// the same regional fleet and churn schedule replayed with no faults, a
// light fault mix, and a heavy one (agent failures, regional outages,
// partial degradations, flash crowds). Each point reports healing activity
// (incidents, orphans, evacuations, rejects during degradation),
// time-to-recovery percentiles, event throughput with the fault barriers in
// the stream, and the final objective's drift against a from-scratch
// re-solve on the surviving (degraded) fleet.
package main

import (
	"encoding/json"
	"fmt"
	"io"
	"time"

	"vconf/internal/agrank"
	"vconf/internal/assign"
	"vconf/internal/core"
	"vconf/internal/cost"
	"vconf/internal/faults"
	"vconf/internal/model"
	"vconf/internal/orchestrator"
	"vconf/internal/telemetry"
	"vconf/internal/workload"
)

// chaosPoint is one fault-intensity measurement.
type chaosPoint struct {
	Name string `json:"name"`
	// Intensity is "none", "light" or "heavy".
	Intensity   string `json:"intensity"`
	Agents      int    `json:"agents"`
	Events      int    `json:"events"`
	FaultEvents int    `json:"fault_events"`
	// EventsPerSec counts all schedule events (churn + faults) fully
	// processed per wall second — fault events drain the pipeline, so this
	// prices the healing barriers into the stream.
	EventsPerSec float64 `json:"events_per_sec"`
	Commits      int     `json:"commits"`
	Conflicts    int     `json:"conflicts"`
	Dropped      int     `json:"dropped"`
	// Healing activity.
	Incidents       int `json:"incidents"`
	Orphans         int `json:"orphans"`
	Evacuated       int `json:"evacuated"`
	EvacRejects     int `json:"evac_rejects"`
	DegradedRejects int `json:"degraded_rejects"`
	// Time-to-recovery per incident (apply fault → post-healing state
	// committed), in milliseconds.
	RecoveryP50Ms float64 `json:"recovery_p50_ms"`
	RecoveryP99Ms float64 `json:"recovery_p99_ms"`
	ReoptP50Ms    float64 `json:"reopt_p50_ms"`
	ReoptP99Ms    float64 `json:"reopt_p99_ms"`
	// OracleDriftPct compares the final online objective against a
	// from-scratch re-solve over the same live sessions on the surviving
	// fleet (negative: online beat the bounded-duration oracle).
	OracleDriftPct float64 `json:"oracle_drift_pct"`
	LiveSessions   int     `json:"live_sessions"`
}

// chaosReport is the BENCH_7.json payload.
type chaosReport struct {
	GeneratedBy string `json:"generated_by"`
	// SchemaVersion is benchSchemaVersion at write time; vcreport refuses
	// mismatched versions.
	SchemaVersion int          `json:"schema_version"`
	Description   string       `json:"description"`
	Meta          runMeta      `json:"meta"`
	Points        []chaosPoint `json:"points"`
	// ThroughputRatios maps intensity → events-per-sec ratio over the
	// fault-free point: the streaming cost of the healing barriers.
	ThroughputRatios map[string]float64 `json:"throughput_ratios"`
}

// chaosMix scales the fault processes: MTBFs divide by the multiplier, so
// higher mix = more incidents over the same horizon.
type chaosMix struct {
	name                   string
	agentMTBF, regionMTBF  float64
	degradeMTBF, flashMTBF float64
}

// chaosSweepStack builds the sweep fixture: a finite-capacity regional
// fleet, Poisson churn over the front of the session pool, and per-region
// flash reserves from the back.
func chaosSweepStack(fleetAgents int, horizonS float64, seed int64) (*cost.Evaluator, core.Bootstrapper, []int, []workload.Event, [][]int, error) {
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
		return nil, nil, nil, nil, nil, err
	}
	p := cost.DefaultParams()
	ev, err := cost.NewEvaluator(sc, p)
	if err != nil {
		return nil, nil, nil, nil, nil, err
	}
	opts := agrank.DefaultOptions(3)
	boot := func(a *assign.Assignment, s model.SessionID, ledger cost.LedgerAPI) error {
		_, err := agrank.BootstrapSession(a, s, p, ledger, opts)
		return err
	}
	nChurn := len(homes) * 3 / 5
	churn, err := workload.PoissonSchedule(workload.ChurnConfig{
		Seed:            seed,
		HorizonS:        horizonS,
		ArrivalRatePerS: 1.0,
		MeanHoldS:       80,
		NumSessions:     nChurn,
	})
	if err != nil {
		return nil, nil, nil, nil, nil, err
	}
	pools := make([][]int, regions)
	for s := nChurn; s < len(homes); s++ {
		pools[homes[s]] = append(pools[homes[s]], s)
	}
	agentRegion := workload.AgentRegions(fleetAgents, regions)
	return ev, boot, agentRegion, churn, pools, nil
}

// runChaosSweep measures self-healing at increasing fault intensity over
// identical churn fixtures.
func runChaosSweep(w io.Writer, format string, fleetAgents int, horizonS float64, seed int64, meta runMeta, sink *telemetry.Sink) error {
	ev, boot, agentRegion, churn, pools, err := chaosSweepStack(fleetAgents, horizonS, seed)
	if err != nil {
		return fmt.Errorf("chaos sweep: %w", err)
	}
	mixes := []chaosMix{
		{name: "none"},
		{name: "light", agentMTBF: 8 * horizonS, regionMTBF: 16 * horizonS, degradeMTBF: 8 * horizonS, flashMTBF: 4 * horizonS},
		{name: "heavy", agentMTBF: 2 * horizonS, regionMTBF: 4 * horizonS, degradeMTBF: 2 * horizonS, flashMTBF: 2 * horizonS},
	}

	run := func(mix chaosMix) (chaosPoint, error) {
		events := churn
		faultEvents := 0
		if mix.name != "none" {
			fl, err := faults.Schedule(faults.Config{
				Seed:           seed + 1,
				HorizonS:       horizonS,
				NumAgents:      fleetAgents,
				AgentRegion:    agentRegion,
				AgentMTBFS:     mix.agentMTBF,
				AgentMTTRS:     horizonS / 5,
				RegionMTBFS:    mix.regionMTBF,
				RegionMTTRS:    horizonS / 6,
				DegradeMTBFS:   mix.degradeMTBF,
				DegradeMTTRS:   horizonS / 5,
				DegradeFloor:   0.4,
				FlashMTBFS:     mix.flashMTBF,
				FlashIntensity: 4,
				FlashHoldS:     horizonS / 6,
				FlashSessions:  pools,
			})
			if err != nil {
				return chaosPoint{}, err
			}
			faultEvents = len(fl)
			events = faults.Merge(churn, fl)
		}

		cfg := orchestrator.DefaultConfig(seed)
		cfg.Shards = 4
		cfg.LedgerShards = fleetAgents
		cfg.HopBudget = 12
		cfg.MaxReoptSessions = 4
		cfg.Core.NeighborWindow = 4
		cfg.MaxInFlight = 4
		cfg.Telemetry = sink
		cfg.AgentRegion = agentRegion
		orc, err := orchestrator.New(ev, boot, cfg)
		if err != nil {
			return chaosPoint{}, err
		}
		defer orc.Close()
		start := time.Now()
		if _, err := orc.Run(events, 0); err != nil {
			return chaosPoint{}, err
		}
		elapsed := time.Since(start)
		if err := orc.CheckInvariants(); err != nil {
			return chaosPoint{}, fmt.Errorf("post-run invariants: %w", err)
		}
		st := orc.Stats()
		pt := chaosPoint{
			Name:            "ChaosRecovery/" + mix.name,
			Intensity:       mix.name,
			Agents:          fleetAgents,
			Events:          st.Events,
			FaultEvents:     faultEvents,
			EventsPerSec:    float64(st.Events) / elapsed.Seconds(),
			Commits:         st.Commits,
			Conflicts:       st.Conflicts,
			Dropped:         st.Dropped,
			Incidents:       st.Incidents,
			Orphans:         st.Orphans,
			Evacuated:       st.Evacuated,
			EvacRejects:     st.EvacRejects,
			DegradedRejects: st.DegradedRejects,
			RecoveryP50Ms:   float64(st.RecoverP50) / 1e6,
			RecoveryP99Ms:   float64(st.RecoverP99) / 1e6,
			ReoptP50Ms:      float64(st.ReoptP50) / 1e6,
			ReoptP99Ms:      float64(st.ReoptP99) / 1e6,
		}
		active := orc.ActiveSessions()
		pt.LiveSessions = len(active)
		if len(active) > 0 {
			if _, oraclePhi, err := orchestrator.OracleDegraded(ev, active, boot, cfg.Core, 100, orc.CapacityScales()); err == nil && oraclePhi > 0 {
				pt.OracleDriftPct = 100 * (orc.Objective() - oraclePhi) / oraclePhi
			}
		}
		return pt, nil
	}

	rep := chaosReport{
		GeneratedBy:   "vcbench -run chaos",
		SchemaVersion: benchSchemaVersion,
		Meta:          meta,
		Description: "Self-healing under seeded fault injection: the same regional fleet and Poisson churn " +
			"schedule replayed fault-free, with a light fault mix, and with a heavy one (agent failures, " +
			"regional outages, partial capacity degradations, per-region flash crowds). Fault events act " +
			"as drain barriers in the event scheduler; time-to-recovery spans applying a fault through " +
			"committing the healed state (evacuation + re-optimization). Drift compares the final online " +
			"objective to a from-scratch re-solve on the surviving fleet at its degraded capacities.",
		ThroughputRatios: map[string]float64{},
	}
	var baseline chaosPoint
	for i, mix := range mixes {
		pt, err := run(mix)
		if err != nil {
			return fmt.Errorf("chaos sweep: %s: %w", mix.name, err)
		}
		rep.Points = append(rep.Points, pt)
		if i == 0 {
			baseline = pt
		} else if baseline.EventsPerSec > 0 {
			rep.ThroughputRatios[mix.name+"-vs-none"] = pt.EventsPerSec / baseline.EventsPerSec
		}
		if mix.name != "none" && pt.Incidents == 0 {
			return fmt.Errorf("chaos sweep: %s mix injected no incidents", mix.name)
		}
	}

	if format == "json" {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(rep)
	}
	for _, p := range rep.Points {
		fmt.Fprintf(w, "chaos | %-22s | agents %3d | %7.1f events/sec | incidents %3d | orphans %3d (evac %3d, rej %3d) | ttr p50 %6.2fms p99 %6.2fms | drift %+.1f%%\n",
			p.Name, p.Agents, p.EventsPerSec, p.Incidents, p.Orphans, p.Evacuated, p.EvacRejects,
			p.RecoveryP50Ms, p.RecoveryP99Ms, p.OracleDriftPct)
	}
	for k, v := range rep.ThroughputRatios {
		fmt.Fprintf(w, "chaos | throughput %-22s | %.2fx\n", k, v)
	}
	return nil
}
