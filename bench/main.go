// Command bench is the control plane's one benchmark battery: four
// workloads, ten end-to-end metrics and a per-layer budget that closes. See
// README.md for what each number means and BENCHMARK.json (repo root) for
// the contract a driver runs it under.
//
//	bash bench/run.sh                            the whole battery, a child process per workload
//	bash bench/run.sh -workload big_sessions     one workload, full report
//	bash bench/run.sh -selfcheck                 the battery twice plus seed 2; exit 1 on disagreement
//	bash bench/run.sh --workload W --seed N --seconds S --trace 0|1
//	                                             the driver's form: one JSON object on the last line
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
)

func main() {
	workloadFlag := flag.String("workload", "", "run one workload in this process (default: all four, one child process each)")
	seed := flag.Int64("seed", 1, "the only input to the workload generators")
	seconds := flag.Float64("seconds", 20, "measuring time of the stream/sync repetitions, per workload")
	trace := flag.Int("trace", -1, "driver form: 0 prints the end-to-end metrics, 1 the per-layer metrics, as one JSON line")
	outDir := flag.String("out", "out", "directory for traces and reports")
	selfcheck := flag.Bool("selfcheck", false, "run the battery twice and seed 2 once; exit 1 if the two sets disagree beyond the bounds")
	flag.Parse()
	runtime.GOMAXPROCS(benchProcs)

	var err error
	switch {
	case *selfcheck:
		err = runSelfcheck(*seed, *seconds, *outDir)
	case *workloadFlag == "":
		_, err = runBattery(*seed, *seconds, *outDir)
	default:
		err = runOne(*workloadFlag, *seed, *seconds, *trace, *outDir)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// runOne measures one workload in this process.
func runOne(name string, seed int64, seconds float64, trace int, outDir string) error {
	spec, ok := findWorkload(name)
	if !ok {
		return fmt.Errorf("unknown workload %q", name)
	}
	o := runOpts{spec: spec, seed: seed, seconds: seconds, scale: 1, outDir: outDir}
	var want []metricSpec
	switch trace {
	case -1:
		o.parts = partBoth
	case 0:
		o.parts, want = partEndToEnd, endToEndSpecs
	case 1:
		o.parts, want = partPerLayer, perLayerSpecs
	default:
		return fmt.Errorf("-trace must be 0 or 1, got %d", trace)
	}
	rep, err := runWorkload(o)
	if err != nil {
		return err
	}
	printReport(os.Stdout, rep)
	if trace == -1 {
		return writeReport(outDir, rep)
	}
	return printDriverLine(os.Stdout, rep, want)
}

// driverLine is the object the benchmark driver reads from the last line.
type driverLine struct {
	Correct   bool                    `json:"correct"`
	Attempted int                     `json:"attempted"`
	Failed    int                     `json:"failed"`
	Metrics   map[string]driverMetric `json:"metrics"`
}

type driverMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// printDriverLine prints the declared (never-null) metrics of one half of
// the catalogue. A declared metric that is missing is a failed run.
func printDriverLine(w io.Writer, rep *report, specs []metricSpec) error {
	line := driverLine{Correct: true, Attempted: rep.Attempted, Failed: rep.Failed, Metrics: map[string]driverMetric{}}
	for _, s := range specs {
		if s.Nullable {
			continue
		}
		m := rep.Metrics[s.Name]
		if m.Value == nil {
			return fmt.Errorf("%s: declared metric %s is missing: %s", rep.Workload, s.Name, m.Reason)
		}
		line.Metrics[s.Name] = driverMetric{Value: *m.Value, Unit: m.Unit}
	}
	b, err := json.Marshal(line)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(b))
	return err
}

func reportPath(outDir, workload string) string {
	return filepath.Join(outDir, workload+".json")
}

func writeReport(outDir string, rep *report) error {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(reportPath(outDir, rep.Workload), append(b, '\n'), 0o644)
}

// runBattery runs every workload in a fresh child process of this binary,
// so each one's peak_rss_mb is its own, and returns their reports.
func runBattery(seed int64, seconds float64, outDir string) ([]*report, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	var reps []*report
	for _, w := range workloads {
		cmd := exec.Command(self,
			"-workload", w.Name, "-seed", fmt.Sprint(seed), "-seconds", fmt.Sprint(seconds), "-out", outDir)
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		if err := cmd.Run(); err != nil {
			return nil, fmt.Errorf("workload %s: %w", w.Name, err)
		}
		b, err := os.ReadFile(reportPath(outDir, w.Name))
		if err != nil {
			return nil, err
		}
		rep := new(report)
		if err := json.Unmarshal(b, rep); err != nil {
			return nil, fmt.Errorf("workload %s: report: %w", w.Name, err)
		}
		reps = append(reps, rep)
	}
	return reps, nil
}

// runSelfcheck runs the battery twice on the same tree and fails if any
// end-to-end metric of any workload differs between the two sets by more
// than its own bound; a third set on the next seed shows that nothing is
// tuned to one seed.
func runSelfcheck(seed int64, seconds float64, outDir string) error {
	first, err := runBattery(seed, seconds, outDir)
	if err != nil {
		return err
	}
	second, err := runBattery(seed, seconds, outDir)
	if err != nil {
		return err
	}
	other, err := runBattery(seed+1, seconds, outDir)
	if err != nil {
		return err
	}
	fmt.Printf("\nselfcheck: seed %d twice, seed %d once\n", seed, seed+1)
	fmt.Printf("%-16s %-18s %12s %12s %8s %6s   %12s\n", "workload", "metric", "first", "second", "worse", "bound", fmt.Sprintf("seed %d", seed+1))
	bad := 0
	for i := range first {
		for _, s := range endToEndSpecs {
			a, b, c := first[i].Metrics[s.Name], second[i].Metrics[s.Name], other[i].Metrics[s.Name]
			if a.Value == nil || b.Value == nil {
				if (a.Value == nil) != (b.Value == nil) {
					bad++
					fmt.Printf("%-16s %-18s present in one set only  FAIL\n", first[i].Workload, s.Name)
				}
				continue
			}
			worse := worseBy(s, *a.Value, *b.Value)
			verdict := ""
			if worse > s.Bound {
				verdict = "  FAIL"
				bad++
			}
			fmt.Printf("%-16s %-18s %12.5g %12.5g %7.1f%% %5.1f%%   %12s%s\n",
				first[i].Workload, s.Name, *a.Value, *b.Value, 100*worse, 100*s.Bound, fmtValue(c), verdict)
		}
	}
	if bad > 0 {
		return fmt.Errorf("selfcheck: %d end-to-end metrics disagree between two runs of the same code", bad)
	}
	fmt.Println("selfcheck: the two sets agree within every bound")
	return nil
}

// worseBy is the share of the smaller-is-better reading by which the two
// runs differ — either could be the "parent", so the worse direction counts.
func worseBy(s metricSpec, a, b float64) float64 {
	lo, hi := min(a, b), max(a, b)
	if s.Better == "higher" {
		return (hi - lo) / hi
	}
	return (hi - lo) / lo
}

func fmtValue(m measurement) string {
	if m.Value == nil {
		return "null"
	}
	return fmt.Sprintf("%.5g", *m.Value)
}

// printReport prints every metric of the halves that were measured, by
// name, once, with its unit; then the budget when the layers were measured.
func printReport(w io.Writer, rep *report) {
	h := rep.Host
	fmt.Fprintf(w, "\n== %s  seed %d  scale %g  %d reps x %d events\n", rep.Workload, rep.Seed, rep.Scale, rep.Reps, rep.EventsPerPass)
	fmt.Fprintf(w, "host: nproc=%d GOMAXPROCS=%d %s kernel=%s cpu=%q commit=%s\n",
		h.NProc, h.GOMAXPROCS, h.GoVersion, h.Kernel, h.CPUModel, h.GitCommit)
	fmt.Fprintf(w, "spin reference: before=%.0f ns after=%.0f ns noisy=%v  sync_bit_equal=%v\n",
		rep.SpinBefore, rep.SpinAfter, rep.Noisy, rep.SyncBitEqual)
	for _, part := range []struct {
		title string
		specs []metricSpec
	}{{"end-to-end", endToEndSpecs}, {"per-layer", perLayerSpecs}} {
		var rows []string
		for _, s := range part.specs {
			m, ok := rep.Metrics[s.Name]
			if !ok {
				continue
			}
			row := fmt.Sprintf("  %-36s %14s %-9s [%s]", s.Name, fmtValue(m), m.Unit, s.Source)
			if m.N > 0 {
				row += fmt.Sprintf(" n=%d", m.N)
			}
			if m.Spread != nil {
				row += fmt.Sprintf(" reps=%d spread=%.1f%%", len(m.Reps), 100**m.Spread)
			}
			if m.Value == nil {
				row += " (" + m.Reason + ")"
			}
			rows = append(rows, row)
		}
		if len(rows) > 0 {
			fmt.Fprintf(w, "%s: name, value, unit, [source pass]\n%s\n", part.title, strings.Join(rows, "\n"))
		}
	}
	printBudget(w, rep)
}

// printBudget prints the traced pass as the time one event costs, layer by
// layer; the top-level lines sum to the traced wall time by construction.
func printBudget(w io.Writer, rep *report) {
	if len(rep.Budget) == 0 {
		return
	}
	fmt.Fprintln(w, "budget per event, traced pass (indented lines are task time summed over the workers, inside the barrier)")
	for _, l := range rep.Budget {
		fmt.Fprintf(w, "  %-62s %12.0f ns %6.2f%%\n", l.Name, l.NsPerEvent, 100*l.Share)
	}
}
