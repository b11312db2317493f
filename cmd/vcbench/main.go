// Command vcbench regenerates the paper's tables and figures.
//
// Usage:
//
//	vcbench -run fig2|fig3|fig4|fig5|fig6|fig7|table2|fig8|fig9|fig10|thm1|all
//	        [-seed N] [-scenarios N] [-duration S] [-quick]
//
// Each experiment prints rows shaped like the paper's artifact; see
// EXPERIMENTS.md for the side-by-side comparison.
package main

import (
	"encoding/csv"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"time"

	"vconf/internal/experiments"
	"vconf/internal/telemetry"
	"vconf/internal/workload"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "vcbench:", err)
		os.Exit(1)
	}
}

func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("vcbench", flag.ContinueOnError)
	var (
		which     = fs.String("run", "all", "experiment id (fig2..fig10, table2, thm1, solvers, micro, chaos, simcore, all)")
		seed      = fs.Int64("seed", 1, "base random seed")
		scenarios = fs.Int("scenarios", 100, "random scenarios per sweep point (paper: 100)")
		duration  = fs.Float64("duration", 200, "virtual seconds of Alg. 1 per run")
		quick     = fs.Bool("quick", false, "shrink workloads for a fast smoke run")
		format    = fs.String("format", "text", "output format: text, csv, or json (micro only)")
		listen    = fs.String("listen", "", "serve /metrics, /trace.jsonl and pprof on this address while benchmarks run (adds instrumentation to orchestrator sweeps)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *format != "text" && *format != "csv" && *format != "json" {
		return fmt.Errorf("unknown format %q (want text, csv or json)", *format)
	}
	if *quick {
		*scenarios = minInt(*scenarios, 5)
		*duration = minFloat(*duration, 60)
	}
	meta := buildMeta(fs, *seed)

	// A nil sink is the zero-overhead disabled state; -listen turns on live
	// exposition (and pprof) and feeds the orchestrator-based sweeps into it.
	var sink *telemetry.Sink
	if *listen != "" {
		sink = telemetry.New(telemetry.Config{Workers: runtime.GOMAXPROCS(0)})
		srv, err := telemetry.Serve(sink, *listen)
		if err != nil {
			return err
		}
		defer srv.Close()
		fmt.Fprintf(w, "telemetry: serving /metrics, /trace.jsonl, /debug/pprof on http://%s\n", srv.Addr())
	}

	// The micro-benchmark suite is not an experiment table; it runs the hop
	// pipeline's before/after hot-path measurements (see micro.go) and, with
	// -format json, emits the BENCH_<n>.json perf-trajectory payload.
	if *which == "micro" {
		if *format == "csv" {
			return fmt.Errorf("micro benchmarks support text or json output, not csv")
		}
		fleetAgents := 100
		if *quick {
			fleetAgents = 20
		}
		return runMicro(w, *format, fleetAgents, *seed, meta, sink)
	}
	// The chaos sweep measures self-healing under seeded fault injection at
	// increasing intensity; with -format json it emits the BENCH_7.json
	// payload.
	if *which == "chaos" {
		if *format == "csv" {
			return fmt.Errorf("chaos sweep supports text or json output, not csv")
		}
		fleetAgents, horizonS := 96, 300.0
		if *quick {
			fleetAgents, horizonS = 32, 120
		}
		return runChaosSweep(w, *format, fleetAgents, horizonS, *seed, meta, sink)
	}
	// The sim-core sweep measures the lazy virtual-clock engine against the
	// eager pre-materialized path; with -format json it emits the
	// BENCH_10.json payload.
	if *which == "simcore" {
		if *format == "csv" {
			return fmt.Errorf("simcore sweep supports text or json output, not csv")
		}
		fleetAgents, horizonS, dayS := 96, 300.0, 86400.0
		if *quick {
			fleetAgents, horizonS, dayS = 32, 120, 3600
		}
		return runSimCore(w, *format, fleetAgents, horizonS, dayS, *seed, meta, sink)
	}
	if *format == "json" {
		return fmt.Errorf("json output is only available for -run micro, -run chaos or -run simcore")
	}

	type experiment struct {
		id  string
		run func() ([]string, error)
	}
	sweepCfg := func() experiments.SweepConfig {
		cfg := experiments.DefaultSweepConfig(*seed)
		cfg.NumScenarios = *scenarios
		cfg.DurationS = *duration
		if *quick {
			cfg.Workload = quickWorkload
		}
		return cfg
	}
	var sweepCache *experiments.AlphaSweepResult
	runSweep := func() (*experiments.AlphaSweepResult, error) {
		if sweepCache != nil {
			return sweepCache, nil
		}
		res, err := experiments.RunAlphaSweep(sweepCfg())
		if err != nil {
			return nil, err
		}
		sweepCache = res
		return res, nil
	}

	all := []experiment{
		{"fig2", func() ([]string, error) {
			r, err := experiments.RunFig2()
			if err != nil {
				return nil, err
			}
			return r.Rows(), nil
		}},
		{"fig3", func() ([]string, error) {
			r, err := experiments.RunFig3(400, 0.01)
			if err != nil {
				return nil, err
			}
			return r.Rows(), nil
		}},
		{"fig4", func() ([]string, error) {
			r, err := experiments.RunFig4(*seed, *duration)
			if err != nil {
				return nil, err
			}
			return r.Rows(), nil
		}},
		{"fig5", func() ([]string, error) {
			r, err := experiments.RunFig5(*seed, minFloat(*duration, 120))
			if err != nil {
				return nil, err
			}
			return r.Rows("fig5"), nil
		}},
		{"fig6", func() ([]string, error) {
			r, err := experiments.RunFig6(*seed, minFloat(*duration, 100))
			if err != nil {
				return nil, err
			}
			return r.Rows("fig6"), nil
		}},
		{"fig7", func() ([]string, error) {
			r, err := experiments.RunFig7(*seed, *duration)
			if err != nil {
				return nil, err
			}
			return r.Rows(), nil
		}},
		{"table2", func() ([]string, error) {
			r, err := runSweep()
			if err != nil {
				return nil, err
			}
			return r.Table2Rows(), nil
		}},
		{"fig8", func() ([]string, error) {
			r, err := runSweep()
			if err != nil {
				return nil, err
			}
			return r.Fig8Rows(), nil
		}},
		{"fig9", func() ([]string, error) {
			cfg := experiments.DefaultFig9Config(*seed)
			cfg.NumScenarios = *scenarios
			if *quick {
				cfg.Workload = quickWorkload
				cfg.BandwidthPointsMbps = []float64{60, 120, 1000}
				cfg.TranscodePoints = []int{1, 8}
			}
			r, err := experiments.RunFig9(cfg)
			if err != nil {
				return nil, err
			}
			return r.Rows(), nil
		}},
		{"fig10", func() ([]string, error) {
			cfg := experiments.DefaultFig10Config(*seed)
			cfg.NumScenarios = *scenarios
			if *quick {
				cfg.Workload = quickWorkload
			}
			r, err := experiments.RunFig10(cfg)
			if err != nil {
				return nil, err
			}
			return r.Rows(), nil
		}},
		{"thm1", func() ([]string, error) {
			cfg := experiments.DefaultThm1Config(*seed)
			if *quick {
				cfg.HorizonS = 5000
			}
			r, err := experiments.RunThm1(cfg)
			if err != nil {
				return nil, err
			}
			return r.Rows(), nil
		}},
		{"beta", func() ([]string, error) {
			cfg := experiments.DefaultBetaSweepConfig(*seed)
			cfg.DurationS = *duration
			if *quick {
				cfg.Betas = []float64{100, 400}
				cfg.NumScenarios = 2
			} else if *scenarios < cfg.NumScenarios {
				cfg.NumScenarios = *scenarios
			}
			r, err := experiments.RunBetaSweep(cfg)
			if err != nil {
				return nil, err
			}
			return r.Rows(), nil
		}},
		{"solvers", func() ([]string, error) {
			cfg := experiments.DefaultSolverCompareConfig(*seed)
			cfg.DurationS = *duration
			if *quick {
				cfg.NumScenarios = 2
				cfg.AnnealIterations = 4000
				cfg.Workload = quickWorkload
			} else if *scenarios < cfg.NumScenarios {
				cfg.NumScenarios = *scenarios
			}
			r, err := experiments.RunSolverCompare(cfg)
			if err != nil {
				return nil, err
			}
			return r.Rows(), nil
		}},
	}

	selected := all[:0:0]
	for _, e := range all {
		if *which == "all" || *which == e.id {
			selected = append(selected, e)
		}
	}
	if len(selected) == 0 {
		return fmt.Errorf("unknown experiment %q", *which)
	}
	for _, e := range selected {
		start := time.Now()
		rows, err := e.run()
		if err != nil {
			return fmt.Errorf("%s: %w", e.id, err)
		}
		if *format == "csv" {
			if err := writeCSV(w, rows); err != nil {
				return err
			}
		} else {
			for _, row := range rows {
				fmt.Fprintln(w, row)
			}
			fmt.Fprintf(w, "%s | done in %s\n", e.id, time.Since(start).Round(time.Millisecond))
		}
	}
	return nil
}

// writeCSV re-emits experiment rows as CSV: the experiment id, then the
// row's pipe-separated fields as columns — a shape plotting scripts consume
// directly.
func writeCSV(w io.Writer, rows []string) error {
	cw := csv.NewWriter(w)
	defer cw.Flush()
	for _, row := range rows {
		parts := strings.Split(row, "|")
		record := make([]string, 0, len(parts))
		for _, p := range parts {
			record = append(record, strings.TrimSpace(p))
		}
		if err := cw.Write(record); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

func quickWorkload(seed int64) workload.Config {
	c := workload.LargeScale(seed)
	c.NumUsers = 30
	c.NumUserNodes = 64
	return c
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func minFloat(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}
