package main

// Virtual-clock mode (-virtual, -record-trace, -replay-trace): instead of
// draining the whole churn+fault schedule up front and interleaving
// data-plane ticks, the orchestrator pulls events lazily from the event
// source — memory stays O(in-flight) however long the horizon, and virtual
// time decouples completely from wall time (the run reports the
// virtual/wall rate instead of pacing against it).
// -record-trace tees the merged event stream plus each decision digest to
// a versioned JSONL trace; -replay-trace feeds a recorded trace back and
// verifies every decision digest, reporting the first divergence.

import (
	"fmt"
	"io"
	"os"
	"time"

	"vconf/internal/cost"
	"vconf/internal/faults"
	"vconf/internal/model"
	"vconf/internal/orchestrator"
	"vconf/internal/sim"
	"vconf/internal/workload"
)

// eventSource builds the run's one event stream: the replayer of a
// recorded trace, or the sim engine over the churn generator, merged with
// the fault generator in chaos mode. closeSrc releases the trace file.
func eventSource(opts churnOpts) (src sim.EventSource, closeSrc func(), err error) {
	if opts.replayTrace != "" {
		f, err := os.Open(opts.replayTrace)
		if err != nil {
			return nil, nil, fmt.Errorf("replay-trace: %w", err)
		}
		rp, err := sim.NewReplayer(f)
		if err != nil {
			f.Close()
			return nil, nil, fmt.Errorf("replay-trace: %w", err)
		}
		return rp, func() { f.Close() }, nil
	}
	cs, err := workload.NewChurnSource(opts.churnCfg)
	if err != nil {
		return nil, nil, err
	}
	if opts.faultCfg == nil {
		return sim.New(cs), func() {}, nil
	}
	fs, err := faults.NewSource(*opts.faultCfg)
	if err != nil {
		return nil, nil, err
	}
	return sim.New(cs, fs), func() {}, nil
}

// runVirtual drives the online orchestrator from the event source (the
// sim engine over the churn/fault generators, or a trace replayer) and
// prints the decoupled virtual-vs-wall rate report.
func runVirtual(w io.Writer, sc *model.Scenario, ev *cost.Evaluator, src sim.EventSource, opts churnOpts) error {
	rp, _ := src.(*sim.Replayer)

	var (
		rec     *sim.Recorder
		recFile *os.File
	)
	if opts.recordTrace != "" {
		f, err := os.Create(opts.recordTrace)
		if err != nil {
			return fmt.Errorf("record-trace: %w", err)
		}
		recFile = f
		rec, err = sim.NewRecorder(f)
		if err != nil {
			f.Close()
			return fmt.Errorf("record-trace: %w", err)
		}
	}

	ocfg := orchestrator.DefaultConfig(opts.seed)
	ocfg.Core = opts.core
	ocfg.Shards = opts.shards
	ocfg.HopBudget = opts.hopBudget
	ocfg.AgentRegion = opts.agentRegion
	orc, err := orchestrator.New(ev, opts.boot, ocfg)
	if err != nil {
		return err
	}
	defer orc.Close()

	mode := "lazy engine"
	if rp != nil {
		mode = "trace replay"
	}
	fmt.Fprintf(w, "vcsim virtual: %s source, %d sessions pool, %d agents, init=%s, horizon %.0f virtual s (control plane only)\n",
		mode, sc.NumSessions(), sc.NumAgents(), opts.initName, opts.duration)

	events := 0
	start := time.Now()
	err = orc.RunSource(src, opts.duration, func(rep orchestrator.EventReport) error {
		events++
		d := sim.Digest{Phi: rep.Objective, Active: rep.ActiveSessions, Commits: rep.Commits}
		if rp != nil {
			if div := rp.Check(d); div != nil {
				return div
			}
		}
		if rec != nil {
			return rec.Record(rep.Event, d)
		}
		return nil
	})
	wall := time.Since(start)
	if err != nil {
		return err
	}
	if rec != nil {
		if err := rec.Flush(); err != nil {
			return fmt.Errorf("record-trace: %w", err)
		}
		if err := recFile.Close(); err != nil {
			return fmt.Errorf("record-trace: %w", err)
		}
	}

	virtualS := orc.Now()
	wallS := wall.Seconds()
	if wallS <= 0 {
		wallS = 1e-9
	}
	fmt.Fprintf(w, "virtual: %d events over %.1f virtual s in %s wall — %.0fx real time, %.0f events/s\n",
		events, virtualS, wall.Round(time.Millisecond), virtualS/wallS, float64(events)/wallS)
	st := orc.Stats()
	fmt.Fprintf(w, "churn: %d arrivals (%d dropped), %d departures (%d skipped), %d commits, %d rejects\n",
		st.Arrivals, st.Dropped, st.Departures, st.Skipped, st.Commits, st.Rejects)
	if st.Incidents > 0 {
		fmt.Fprintf(w, "incidents: %d (orphans %d, evacuated %d, rejected %d)\n",
			st.Incidents, st.Orphans, st.Evacuated, st.EvacRejects)
	}
	if rec != nil {
		fmt.Fprintf(w, "trace: recorded %d events to %s\n", rec.Recorded(), opts.recordTrace)
	}
	if rp != nil {
		fmt.Fprintf(w, "replay: verified %d decisions, no divergence\n", rp.Checked())
	}
	fmt.Fprintf(w, "final: Φ=%.2f over %d live sessions\n", orc.Objective(), len(orc.ActiveSessions()))
	if err := orc.CheckInvariants(); err != nil {
		return fmt.Errorf("final state infeasible: %w", err)
	}
	fmt.Fprintln(w, "final state feasible: capacities and delay caps hold")
	return nil
}
