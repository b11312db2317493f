package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func write(t *testing.T, dir, name, content string) string {
	t.Helper()
	p := filepath.Join(dir, name)
	if err := os.WriteFile(p, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return p
}

func TestTraceAndSpanReports(t *testing.T) {
	dir := t.TempDir()
	trace := write(t, dir, "trace.jsonl", strings.Join([]string{
		`{"kind":"arrive","session":0,"admitted":true,"class":"interactive","delay_ms":40}`,
		`{"kind":"arrive","session":1,"admitted":true,"class":"interactive","delay_ms":60}`,
		`{"kind":"arrive","session":2,"admitted":true,"class":"broadcast","delay_ms":50}`,
		`{"kind":"depart","session":0,"admitted":true}`,
	}, "\n"))
	spans := write(t, dir, "spans.jsonl", strings.Join([]string{
		`{"seq":0,"id":1,"name":"event:arrive","cat":"event","track":0,"start_ns":100,"dur_ns":5000}`,
		`{"seq":1,"id":2,"parent":1,"name":"task","cat":"task","track":100,"start_ns":200,"dur_ns":4000}`,
		`{"seq":2,"id":3,"parent":2,"name":"walk","cat":"task","track":100,"start_ns":200,"dur_ns":3000}`,
	}, "\n"))

	var sb strings.Builder
	if err := run([]string{"-trace", trace, "-spans", spans}, &sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"interactive", "broadcast", "fairness (Jain over class means):",
		"p50=   40.00ms", // interactive p50 (nearest-rank of [40, 60])
		"event:arrive", "walk",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("report missing %q:\n%s", want, out)
		}
	}
	// Fairness of means {50, 50} is exactly 1.
	if !strings.Contains(out, "fairness (Jain over class means): 1.0000") {
		t.Fatalf("fairness != 1 for equal class means:\n%s", out)
	}
}

func TestUsageErrors(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{}, &sb); err == nil {
		t.Fatal("no-op invocation accepted")
	}
	if err := run([]string{"-a", "x.json", "-b", "y.json"}, &sb); err == nil {
		t.Fatal("the removed BENCH-payload flags accepted")
	}
	if err := run([]string{"-tsa", "x.json", "-tsb", "y.json", "-tol", "-1"}, &sb); err == nil {
		t.Fatal("negative tolerance accepted")
	}
}

// tsFixture builds a small sampler-window document: windows-per-second 1,
// with a drop-heavy incident window in the middle.
const tsFixture = `{
  "interval_s": 1,
  "windows_total": 4,
  "windows": [
    {"index": 0, "start_s": 0, "end_s": 1, "events": 10, "commits": 8, "rejects": 0, "conflicts": 0,
     "arrivals": 8, "drops": 0, "orphans": 0, "evac_rejects": 0, "faults": 0,
     "commits_per_s": 8, "reject_ratio": 0, "conflict_ratio": 0, "drop_ratio": 0,
     "classes": [{"class": "interactive", "delay_n": 8, "delay_p99_us": 50000}]},
    {"index": 1, "start_s": 1, "end_s": 2, "events": 12, "commits": 9, "rejects": 1, "conflicts": 1,
     "arrivals": 10, "drops": 1, "orphans": 2, "evac_rejects": 1, "faults": 1,
     "incident": 3, "incident_kind": "region-outage",
     "commits_per_s": 9, "reject_ratio": 0.1, "conflict_ratio": 0.1, "drop_ratio": 0.1667,
     "classes": [{"class": "interactive", "delay_n": 9, "delay_p99_us": 90000}]},
    {"index": 2, "start_s": 2, "end_s": 3, "events": 6, "commits": 6, "rejects": 0, "conflicts": 0,
     "arrivals": 6, "drops": 0, "orphans": 0, "evac_rejects": 0, "faults": 0,
     "incident": 3, "incident_kind": "region-outage",
     "commits_per_s": 6, "reject_ratio": 0, "conflict_ratio": 0, "drop_ratio": 0,
     "classes": [{"class": "interactive", "delay_n": 6, "delay_p99_us": 60000}]},
    {"index": 3, "start_s": 3, "end_s": 4, "events": 8, "commits": 8, "rejects": 0, "conflicts": 0,
     "arrivals": 8, "drops": 0, "orphans": 0, "evac_rejects": 0, "faults": 0,
     "commits_per_s": 8, "reject_ratio": 0, "conflict_ratio": 0, "drop_ratio": 0,
     "classes": [{"class": "interactive", "delay_n": 8, "delay_p99_us": 55000}]}
  ]
}`

const alertsFixture = `{
  "interval_s": 1,
  "status": [
    {"rule": "availability", "firing": false, "fires": 1, "resolves": 1,
     "firing_s": 120, "firing_windows": 2, "max_fast_burn": 33.3}
  ],
  "events": [
    {"seq": 1, "rule": "availability", "state": "fire", "window": 1, "time_s": 1,
     "fast_burn": 33.3, "slow_burn": 12.0, "incident": 3, "incident_kind": "region-outage"},
    {"seq": 2, "rule": "availability", "state": "resolve", "window": 3, "time_s": 3,
     "fast_burn": 0, "slow_burn": 8.0}
  ]
}`

func TestTimeseriesAndAlertsReports(t *testing.T) {
	dir := t.TempDir()
	ts := write(t, dir, "ts.json", tsFixture)
	alerts := write(t, dir, "alerts.json", alertsFixture)
	var sb strings.Builder
	if err := run([]string{"-timeseries", ts, "-alerts", alerts}, &sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"timeseries: 4 windows held (4 total, 1s each)",
		"incident 3 (region-outage) in window 1",
		"class interactive",
		"alerts: 2 transitions",
		"incident=3(region-outage)",
		"alert minutes 2.00",
		"total alert minutes: 2.00",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("report missing %q:\n%s", want, out)
		}
	}
}

func TestMetricsSnapshotReport(t *testing.T) {
	dir := t.TempDir()
	metrics := write(t, dir, "metrics.json", `{
  "metrics": [
    {"name": "vconf_commits_total", "type": "counter", "value": 120},
    {"name": "vconf_events_total", "type": "counter", "labels": {"kind": "arrive"}, "value": 70},
    {"name": "vconf_events_total", "type": "counter", "labels": {"kind": "depart"}, "value": 50},
    {"name": "vconf_reopt_latency_ns", "type": "histogram", "count": 120, "sum": 6e6, "p50": 40000, "p99": 90000}
  ]
}`)
	var sb strings.Builder
	if err := run([]string{"-metrics", metrics}, &sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"metrics: 4 instruments in snapshot",
		"vconf_reopt_latency_ns",
		"p50=40000",
		"total=120",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("report missing %q:\n%s", want, out)
		}
	}

	empty := write(t, dir, "empty.json", `{"metrics": []}`)
	if err := run([]string{"-metrics", empty}, &sb); err == nil {
		t.Fatal("empty metrics snapshot accepted")
	}
}

func TestHealthABVerdict(t *testing.T) {
	dir := t.TempDir()
	tsA := write(t, dir, "tsA.json", tsFixture)
	alertsA := write(t, dir, "alertsA.json", alertsFixture)

	// Self-comparison is clean.
	var sb strings.Builder
	if err := run([]string{"-tsa", tsA, "-tsb", tsA, "-alerts-a", alertsA, "-alerts-b", alertsA}, &sb); err != nil {
		t.Fatalf("health self-comparison failed: %v\n%s", err, sb.String())
	}
	if !strings.Contains(sb.String(), "health verdict: PASS") {
		t.Fatalf("unexpected verdict:\n%s", sb.String())
	}

	// Candidate with more drops and double the alert minutes regresses.
	tsB := write(t, dir, "tsB.json", strings.NewReplacer(
		`"drops": 1`, `"drops": 4`,
		`"commits": 9`, `"commits": 2`,
	).Replace(tsFixture))
	alertsB := write(t, dir, "alertsB.json", strings.Replace(alertsFixture, `"firing_s": 120`, `"firing_s": 240`, 1))
	sb.Reset()
	err := run([]string{"-tsa", tsA, "-tsb", tsB, "-alerts-a", alertsA, "-alerts-b", alertsB, "-tol", "0.10"}, &sb)
	if err == nil {
		t.Fatalf("health regressions not surfaced as an error:\n%s", sb.String())
	}
	out := sb.String()
	if !strings.Contains(out, "health verdict: FAIL") {
		t.Fatalf("unexpected verdict:\n%s", out)
	}
	for _, want := range []string{"REGRESS  drop_ratio", "REGRESS  alert_minutes", "REGRESS  commits_per_s"} {
		if !strings.Contains(out, want) {
			t.Fatalf("verdict missing %q:\n%s", want, out)
		}
	}
}

func TestHealthABUsageErrors(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-tsa", "a.json"}, &sb); err == nil {
		t.Fatal("-tsa without -tsb accepted")
	}
	if err := run([]string{"-alerts-a", "a.json", "-alerts-b", "b.json"}, &sb); err == nil {
		t.Fatal("-alerts-a without -tsa/-tsb accepted")
	}
}
