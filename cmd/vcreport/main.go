// Command vcreport analyzes the observability artifacts vcsim emits:
// decision-record JSONL traces, causal span JSONL, health sampler windows,
// SLO alert timelines and final metric snapshots (vcsim -trace-out /
// -span-out / -timeseries-out / -alerts-out / -metrics-out, or the
// corresponding exposition endpoints), and recorded sim traces.
//
// Usage:
//
//	vcreport -trace trace.jsonl                    per-class delay p50/p99 + fairness
//	vcreport -spans spans.jsonl                    per-phase time attribution
//	vcreport -timeseries ts.json                   windowed health summary
//	vcreport -alerts alerts.json                   SLO alert timeline + alert minutes
//	vcreport -metrics metrics.json                 final snapshot highlights
//	vcreport -tsa A.json -tsb B.json [-tol 0.10]   A/B windowed-health verdict
//	         [-alerts-a A.json -alerts-b B.json]   ... with alert minutes
//	vcreport -trace-a A.jsonl -trace-b B.jsonl     sim-trace divergence (vcsim -record-trace)
//
// -trace and -spans read JSONL, one object per non-blank line (a bad line
// fails as path:N); per-class p50/p99 are nearest-rank and the fairness line
// is the Jain index of the sink's vconf_class_delay_fairness gauge.
//
// Modes combine freely. The windowed-health A/B (-tsa/-tsb, optionally
// -alerts-a/-alerts-b) compares run-level health aggregates: drop, reject
// and conflict ratios, unhealthy-window counts, per-class windowed p99 delay
// and alert minutes are lower-better, commit rate is higher-better; a move
// the wrong way by more than -tol relative fails the verdict (exit 1).
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"time"

	"vconf/internal/sim"
	"vconf/internal/telemetry"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "vcreport:", err)
		os.Exit(1)
	}
}

func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("vcreport", flag.ContinueOnError)
	var (
		tol      = fs.Float64("tol", 0.10, "health A/B: relative tolerance before a move counts as a regression/improvement")
		traceIn  = fs.String("trace", "", "decision-record JSONL file (vcsim -trace-out or /trace.jsonl)")
		spansIn  = fs.String("spans", "", "span JSONL file (vcsim -span-out or /spans.jsonl)")
		tsIn     = fs.String("timeseries", "", "health sampler windows (vcsim -timeseries-out or /timeseries.json)")
		alertsIn = fs.String("alerts", "", "SLO alert timeline (vcsim -alerts-out or /alerts.json)")
		metrIn   = fs.String("metrics", "", "final metric snapshot (vcsim -metrics-out or /metrics.json)")
		tsA      = fs.String("tsa", "", "health A/B: baseline sampler windows")
		tsB      = fs.String("tsb", "", "health A/B: candidate sampler windows")
		alertsA  = fs.String("alerts-a", "", "health A/B: baseline alert timeline (optional, needs -tsa/-tsb)")
		alertsB  = fs.String("alerts-b", "", "health A/B: candidate alert timeline")
		simA     = fs.String("trace-a", "", "sim-trace divergence: baseline trace (vcsim -record-trace)")
		simB     = fs.String("trace-b", "", "sim-trace divergence: candidate trace")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *traceIn == "" && *spansIn == "" &&
		*tsIn == "" && *alertsIn == "" && *metrIn == "" && *tsA == "" && *tsB == "" &&
		*simA == "" && *simB == "" {
		fs.Usage()
		return fmt.Errorf("nothing to do: pass -trace, -spans, -timeseries, -alerts, -metrics, -tsa/-tsb, or -trace-a/-trace-b")
	}
	if (*tsA == "") != (*tsB == "") {
		return fmt.Errorf("health A/B comparison needs both -tsa and -tsb")
	}
	if (*simA == "") != (*simB == "") {
		return fmt.Errorf("sim-trace divergence needs both -trace-a and -trace-b")
	}
	if (*alertsA == "") != (*alertsB == "") {
		return fmt.Errorf("health A/B comparison needs both -alerts-a and -alerts-b")
	}
	if *alertsA != "" && *tsA == "" {
		return fmt.Errorf("-alerts-a/-alerts-b ride on -tsa/-tsb")
	}
	if *tol < 0 {
		return fmt.Errorf("-tol %v negative", *tol)
	}

	if *spansIn != "" {
		if err := reportSpans(w, *spansIn); err != nil {
			return err
		}
	}
	if *traceIn != "" {
		if err := reportTrace(w, *traceIn); err != nil {
			return err
		}
	}
	if *metrIn != "" {
		if err := reportMetrics(w, *metrIn); err != nil {
			return err
		}
	}
	if *tsIn != "" {
		if err := reportTimeseries(w, *tsIn); err != nil {
			return err
		}
	}
	if *alertsIn != "" {
		if err := reportAlerts(w, *alertsIn); err != nil {
			return err
		}
	}
	if *simA != "" {
		diverged, err := reportSimTraceAB(w, *simA, *simB)
		if err != nil {
			return err
		}
		if diverged {
			return fmt.Errorf("sim traces diverge")
		}
	}
	if *tsA != "" {
		n, err := reportHealthAB(w, *tsA, *tsB, *alertsA, *alertsB, *tol)
		if err != nil {
			return err
		}
		if n > 0 {
			return fmt.Errorf("%d metric(s) regressed beyond ±%.0f%%", n, *tol*100)
		}
	}
	return nil
}

// ---- sim-trace divergence ------------------------------------------------

// reportSimTraceAB compares two vcsim -record-trace files in lockstep and
// prints either "identical" or the first divergence (seq, virtual time,
// event kind, differing field). Returns whether the traces diverge.
func reportSimTraceAB(w io.Writer, pathA, pathB string) (bool, error) {
	fa, err := os.Open(pathA)
	if err != nil {
		return false, err
	}
	defer fa.Close()
	fb, err := os.Open(pathB)
	if err != nil {
		return false, err
	}
	defer fb.Close()
	div, n, err := sim.CompareTraces(fa, fb)
	if err != nil {
		return false, err
	}
	if div == nil {
		fmt.Fprintf(w, "sim trace A/B: identical — %d records match (%s vs %s)\n", n, pathA, pathB)
		return false, nil
	}
	fmt.Fprintf(w, "sim trace A/B: DIVERGED at seq %d (t=%.6fs %s): %s A=%q B=%q\n",
		div.Seq, div.TimeS, div.Kind, div.Field, div.Want, div.Got)
	return true, nil
}

// ---- windowed health, alert timelines and metric snapshots ---------------

func loadJSONDoc(path string, into interface{}) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(raw, into); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// healthAggregates flattens one timeseries document into run-level
// comparables. Ratio means are event-weighted (totals over totals, not a
// mean of per-window ratios), so sparse windows don't dominate.
func healthAggregates(doc *telemetry.TimeseriesDoc) map[string]float64 {
	var commits, rejects, conflicts, arrivals, drops, orphans, evacRej int64
	var unhealthy int64
	classN := map[string]int64{}
	classP99Sum := map[string]float64{}
	var horizon float64
	for i := range doc.Windows {
		w := &doc.Windows[i]
		commits += w.Commits
		rejects += w.Rejects
		conflicts += w.Conflicts
		arrivals += w.Arrivals
		drops += w.Drops
		orphans += w.Orphans
		evacRej += w.EvacRejects
		if w.DropRatio > 0 {
			unhealthy++
		}
		horizon += doc.IntervalS
		for _, c := range w.Classes {
			if c.DelayN > 0 {
				classN[c.Class]++
				classP99Sum[c.Class] += float64(c.P99US)
			}
		}
	}
	agg := map[string]float64{
		"windows":           float64(len(doc.Windows)),
		"commits_per_s":     0,
		"reject_ratio":      0,
		"conflict_ratio":    0,
		"drop_ratio":        0,
		"unhealthy_windows": float64(unhealthy),
	}
	if horizon > 0 {
		agg["commits_per_s"] = float64(commits) / horizon
	}
	if t := commits + rejects; t > 0 {
		agg["reject_ratio"] = float64(rejects) / float64(t)
	}
	if t := commits + conflicts; t > 0 {
		agg["conflict_ratio"] = float64(conflicts) / float64(t)
	}
	if t := arrivals + orphans; t > 0 {
		agg["drop_ratio"] = float64(drops+evacRej) / float64(t)
	}
	for c, n := range classN {
		agg["delay_p99_us/"+c] = classP99Sum[c] / float64(n)
	}
	return agg
}

// healthDir gives each health comparable its direction (higher/lower
// better); per-class delay keys match by prefix.
func healthDir(key string) int {
	if key == "commits_per_s" {
		return +1
	}
	return -1
}

func reportTimeseries(w io.Writer, path string) error {
	var doc telemetry.TimeseriesDoc
	if err := loadJSONDoc(path, &doc); err != nil {
		return err
	}
	agg := healthAggregates(&doc)
	fmt.Fprintf(w, "timeseries: %d windows held (%d total, %.0fs each)\n",
		len(doc.Windows), doc.WindowsTotal, doc.IntervalS)
	fmt.Fprintf(w, "  commits %.2f/s, reject ratio %.4f, conflict ratio %.4f, drop ratio %.4f, %d window(s) with drops\n",
		agg["commits_per_s"], agg["reject_ratio"], agg["conflict_ratio"], agg["drop_ratio"],
		int(agg["unhealthy_windows"]))
	var classes []string
	for k := range agg {
		if strings.HasPrefix(k, "delay_p99_us/") {
			classes = append(classes, strings.TrimPrefix(k, "delay_p99_us/"))
		}
	}
	sort.Strings(classes)
	for _, c := range classes {
		fmt.Fprintf(w, "  class %-12s mean windowed p99 delay %.0fµs\n", c, agg["delay_p99_us/"+c])
	}
	// Incident-marked windows show where faults landed in the series.
	last := 0
	for i := range doc.Windows {
		w2 := &doc.Windows[i]
		if w2.Incident != 0 && w2.Incident != last && w2.Faults > 0 {
			fmt.Fprintf(w, "  incident %d (%s) in window %d [%.0fs, %.0fs): drop ratio %.3f\n",
				w2.Incident, w2.IncidentKind, w2.Index, w2.StartS, w2.EndS, w2.DropRatio)
			last = w2.Incident
		}
	}
	return nil
}

func reportAlerts(w io.Writer, path string) error {
	var doc telemetry.AlertsDoc
	if err := loadJSONDoc(path, &doc); err != nil {
		return err
	}
	fmt.Fprintf(w, "alerts: %d transitions\n", len(doc.Events))
	for _, ev := range doc.Events {
		inc := ""
		if ev.Incident != 0 {
			inc = fmt.Sprintf(" incident=%d(%s)", ev.Incident, ev.IncidentKind)
		}
		fmt.Fprintf(w, "  t=%7.1fs %-7s %-18s fast burn %.1f slow burn %.1f%s\n",
			ev.TimeS, ev.State, ev.Rule, ev.FastBurn, ev.SlowBurn, inc)
	}
	total := 0.0
	for _, st := range doc.Status {
		total += st.FiringS
		fmt.Fprintf(w, "  rule %-18s fires=%d resolves=%d alert minutes %.2f, max fast burn %.1f\n",
			st.Rule, st.Fires, st.Resolves, st.FiringS/60, st.MaxFastBurn)
	}
	fmt.Fprintf(w, "  total alert minutes: %.2f\n", total/60)
	return nil
}

// reportMetrics summarizes a final /metrics.json snapshot: totals per
// counter family plus the latency-histogram percentiles.
func reportMetrics(w io.Writer, path string) error {
	var doc telemetry.MetricsDoc
	if err := loadJSONDoc(path, &doc); err != nil {
		return err
	}
	if len(doc.Metrics) == 0 {
		return fmt.Errorf("%s: no metrics; not a /metrics.json snapshot?", path)
	}
	counters := map[string]float64{}
	var names []string
	fmt.Fprintf(w, "metrics: %d instruments in snapshot\n", len(doc.Metrics))
	for _, m := range doc.Metrics {
		switch m.Type {
		case "counter":
			if _, seen := counters[m.Name]; !seen {
				names = append(names, m.Name)
			}
			counters[m.Name] += m.Value
		case "histogram":
			if m.Count > 0 {
				fmt.Fprintf(w, "  %-38s n=%-7d p50=%-10d p99=%d\n", m.Name, m.Count, m.P50, m.P99)
			}
		}
	}
	sort.Strings(names)
	for _, n := range names {
		if counters[n] > 0 {
			fmt.Fprintf(w, "  %-38s total=%.0f\n", n, counters[n])
		}
	}
	return nil
}

// reportHealthAB compares two runs' windowed-health aggregates (plus alert
// minutes when timelines are given) and returns the regression count.
func reportHealthAB(w io.Writer, pathA, pathB, alertsA, alertsB string, tol float64) (int, error) {
	var a, b telemetry.TimeseriesDoc
	if err := loadJSONDoc(pathA, &a); err != nil {
		return 0, err
	}
	if err := loadJSONDoc(pathB, &b); err != nil {
		return 0, err
	}
	aggA, aggB := healthAggregates(&a), healthAggregates(&b)
	if alertsA != "" {
		var da, db telemetry.AlertsDoc
		if err := loadJSONDoc(alertsA, &da); err != nil {
			return 0, err
		}
		if err := loadJSONDoc(alertsB, &db); err != nil {
			return 0, err
		}
		sum := func(d *telemetry.AlertsDoc) (s float64) {
			for _, st := range d.Status {
				s += st.FiringS
			}
			return s / 60
		}
		aggA["alert_minutes"], aggB["alert_minutes"] = sum(&da), sum(&db)
	}
	keys := make([]string, 0, len(aggA))
	for k := range aggA {
		if k == "windows" {
			continue // context, not a health comparable
		}
		if _, ok := aggB[k]; ok {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	fmt.Fprintf(w, "health A/B: %s → %s (tolerance ±%.0f%%)\n", pathA, pathB, tol*100)
	regressions, improvements := 0, 0
	for _, k := range keys {
		va, vb := aggA[k], aggB[k]
		var rel float64
		switch {
		case va == vb:
			continue
		case va == 0:
			fmt.Fprintf(w, "  note     %-30s %12.4g → %-12.4g (zero baseline, not judged)\n", k, va, vb)
			continue
		default:
			rel = (vb - va) / va
		}
		worse := rel * float64(healthDir(k))
		switch {
		case worse < -tol:
			regressions++
			fmt.Fprintf(w, "  REGRESS  %-30s %12.4g → %-12.4g (%+.1f%%)\n", k, va, vb, rel*100)
		case worse > tol:
			improvements++
			fmt.Fprintf(w, "  improve  %-30s %12.4g → %-12.4g (%+.1f%%)\n", k, va, vb, rel*100)
		}
	}
	verdict := "PASS"
	if regressions > 0 {
		verdict = "FAIL"
	}
	fmt.Fprintf(w, "health verdict: %s — %d aggregates compared, %d regressions, %d improvements\n",
		verdict, len(keys), regressions, improvements)
	return regressions, nil
}

// ---- per-class delay + fairness from a decision trace --------------------

// readJSONL decodes path as one JSON object per non-blank line, calls each
// on every decoded value in file order, and returns how many it decoded. A
// line that does not decode fails as path:N, N counting non-blank lines.
func readJSONL[T any](path string, each func(*T)) (int, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	n := 0
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		var v T
		if err := json.Unmarshal(line, &v); err != nil {
			return n, fmt.Errorf("%s:%d: %w", path, n+1, err)
		}
		n++
		each(&v)
	}
	return n, sc.Err()
}

func reportTrace(w io.Writer, path string) error {
	byClass := map[string][]float64{}
	records, err := readJSONL(path, func(rec *telemetry.DecisionRecord) {
		if rec.DelayMS <= 0 {
			return
		}
		class := rec.Class
		if class == "" {
			class = "default"
		}
		byClass[class] = append(byClass[class], rec.DelayMS)
	})
	if err != nil {
		return err
	}
	if len(byClass) == 0 {
		fmt.Fprintf(w, "trace: %d records, none carrying a session delay\n", records)
		return nil
	}

	classes := make([]string, 0, len(byClass))
	for c := range byClass {
		classes = append(classes, c)
	}
	sort.Strings(classes)
	fmt.Fprintf(w, "trace: %d records, session delay by SLO class\n", records)
	var means []float64
	for _, c := range classes {
		d := byClass[c]
		sort.Float64s(d)
		mean := 0.0
		for _, v := range d {
			mean += v
		}
		mean /= float64(len(d))
		means = append(means, mean)
		fmt.Fprintf(w, "  %-12s n=%-5d mean=%8.2fms p50=%8.2fms p99=%8.2fms\n",
			c, len(d), mean, telemetry.NearestRank(d, 0.50), telemetry.NearestRank(d, 0.99))
	}
	fmt.Fprintf(w, "  fairness (Jain over class means): %.4f\n", telemetry.Jain(means))
	return nil
}

// ---- per-phase attribution from spans ------------------------------------

func reportSpans(w io.Writer, path string) error {
	type agg struct {
		count int
		total int64
	}
	byName := map[string]*agg{}
	var names []string
	spans, err := readJSONL(path, func(rec *telemetry.SpanRecord) {
		a := byName[rec.Name]
		if a == nil {
			a = &agg{}
			byName[rec.Name] = a
			names = append(names, rec.Name)
		}
		a.count++
		a.total += rec.DurNs
	})
	if err != nil {
		return err
	}
	if spans == 0 {
		return fmt.Errorf("%s: no spans", path)
	}
	// Heaviest first. Parents contain their children, so this is
	// attribution per span family, not a partition of wall time.
	sort.Slice(names, func(i, j int) bool { return byName[names[i]].total > byName[names[j]].total })
	fmt.Fprintf(w, "spans: %d records, time attribution by phase\n", spans)
	for _, n := range names {
		a := byName[n]
		fmt.Fprintf(w, "  %-16s n=%-6d total=%12s mean=%10s\n",
			n, a.count, time.Duration(a.total).Round(time.Microsecond),
			(time.Duration(a.total) / time.Duration(a.count)).Round(time.Microsecond))
	}
	return nil
}
