package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"vconf/internal/telemetry"
)

func TestRunEndToEnd(t *testing.T) {
	var buf bytes.Buffer
	err := run([]string{"-duration", "30", "-interval", "10", "-users", "20"}, &buf)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	out := buf.String()
	for _, want := range []string{
		"vcsim:", "t=", "final:", "constraints (1)-(8) hold",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
}

func TestRunNrstInit(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-duration", "20", "-init", "nrst", "-users", "16"}, &buf); err != nil {
		t.Fatalf("run nrst: %v", err)
	}
	if !strings.Contains(buf.String(), "init=nrst") {
		t.Fatal("init policy not reported")
	}
}

func TestRunChurnMode(t *testing.T) {
	var buf bytes.Buffer
	err := run([]string{"-churn", "-duration", "120", "-rate", "0.1", "-hold", "60",
		"-interval", "30", "-users", "24", "-shards", "2"}, &buf)
	if err != nil {
		t.Fatalf("run churn: %v", err)
	}
	out := buf.String()
	for _, want := range []string{
		"vcsim churn:", "reopt latency:", "oracle", "final state feasible",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("churn output missing %q:\n%s", want, out)
		}
	}
}

func TestRunChurnTraceOut(t *testing.T) {
	out := filepath.Join(t.TempDir(), "trace.jsonl")
	var buf bytes.Buffer
	err := run([]string{"-churn", "-duration", "120", "-rate", "0.1", "-hold", "60",
		"-interval", "30", "-users", "24", "-shards", "2", "-trace-out", out,
		"-span-out", filepath.Join(t.TempDir(), "spans.jsonl")}, &buf)
	if err != nil {
		t.Fatalf("run churn -trace-out: %v", err)
	}
	log := buf.String()
	if !strings.Contains(log, "counterfactual-k:") {
		t.Fatalf("output missing the counterfactual-k line:\n%s", log)
	}
	// Both ring files say how many records their ring overwrote; the
	// decision ring is sized to the schedule, so it drops none.
	for _, want := range []string{`trace: wrote \d+ decision records to \S+ \(0 dropped\)`, `spans: wrote \d+ span records to \S+ \(\d+ dropped\)`} {
		if !regexp.MustCompile(want).MatchString(log) {
			t.Fatalf("output missing %q:\n%s", want, log)
		}
	}
	f, err := os.Open(out)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	lines := 0
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var rec map[string]any
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Fatalf("trace line %d is not JSON: %v", lines+1, err)
		}
		for _, key := range []string{"seq", "session", "kind", "latency_ns"} {
			if _, ok := rec[key]; !ok {
				t.Fatalf("trace line %d missing %q: %s", lines+1, key, sc.Text())
			}
		}
		lines++
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if lines == 0 {
		t.Fatal("trace file is empty")
	}
}

// syncBuffer lets the HTTP poller read the log while run() is still writing.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

func TestRunChurnListen(t *testing.T) {
	var buf syncBuffer
	done := make(chan error, 1)
	go func() {
		done <- run([]string{"-churn", "-duration", "60", "-rate", "0.1", "-hold", "60",
			"-interval", "30", "-users", "20", "-shards", "2",
			"-listen", "127.0.0.1:0", "-linger", "2"}, &buf)
	}()

	// The serving line prints before the run starts; with -linger the
	// endpoint stays up well past it, so polling for the address and then
	// fetching is race-free.
	var addr string
	deadline := time.Now().Add(10 * time.Second)
	for addr == "" {
		if time.Now().After(deadline) {
			t.Fatalf("no serving address in output:\n%s", buf.String())
		}
		out := buf.String()
		if i := strings.Index(out, "http://"); i >= 0 {
			rest := out[i+len("http://"):]
			if j := strings.IndexByte(rest, '\n'); j >= 0 {
				addr = rest[:j]
			}
		}
		time.Sleep(10 * time.Millisecond)
	}

	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: status %d", resp.StatusCode)
	}
	for _, want := range []string{"vconf_commits_total", "vconf_reopt_latency_ns", "vconf_events_total"} {
		if !strings.Contains(string(body), want) {
			t.Fatalf("/metrics missing %q:\n%s", want, body)
		}
	}

	if err := <-done; err != nil {
		t.Fatalf("run churn -listen: %v", err)
	}
	if !strings.Contains(buf.String(), "telemetry: serving") {
		t.Fatal("serving banner missing")
	}
}

func TestRunRejectsUnknownInit(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-init", "oracle"}, &buf); err == nil {
		t.Fatal("unknown init accepted")
	}
}

func TestRunRejectsBadFlag(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-nope"}, &buf); err == nil {
		t.Fatal("bad flag accepted")
	}
}

// sloFlags is the seeded chaos scenario the SLO acceptance tests run: a
// regional outage around t=12 pushes evacuation rejects over the 1%
// availability budget, firing the burn-rate alert, which resolves after
// the region heals.
func sloFlags(extra ...string) []string {
	return append([]string{"-churn", "-chaos", "-slo", "-duration", "120",
		"-rate", "0.2", "-hold", "60", "-interval", "30", "-users", "48",
		"-agents", "16", "-regions", "4", "-shards", "2", "-seed", "7"}, extra...)
}

func TestRunChaosSLOAlertTimeline(t *testing.T) {
	dir := t.TempDir()
	alertsA := filepath.Join(dir, "alertsA.json")
	alertsB := filepath.Join(dir, "alertsB.json")
	flight := filepath.Join(dir, "flight.json")

	var bufA bytes.Buffer
	if err := run(sloFlags("-alerts-out", alertsA, "-flightrec-out", flight), &bufA); err != nil {
		t.Fatalf("run chaos slo: %v", err)
	}
	out := bufA.String()
	for _, want := range []string{"slo: t=", "flightrec:"} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
	for _, want := range []string{`fire\s+availability`, `resolve\s+availability`} {
		if !regexp.MustCompile(want).MatchString(out) {
			t.Fatalf("output missing %s:\n%s", want, out)
		}
	}

	var bufB bytes.Buffer
	if err := run(sloFlags("-alerts-out", alertsB), &bufB); err != nil {
		t.Fatalf("run chaos slo (again): %v", err)
	}
	a, err := os.ReadFile(alertsA)
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(alertsB)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatal("alert timeline is not byte-identical across same-seed runs")
	}

	// The timeline must contain a fire during an injected incident and a
	// later resolve of the same rule.
	var alerts struct {
		Events []struct {
			Rule         string  `json:"rule"`
			State        string  `json:"state"`
			TimeS        float64 `json:"time_s"`
			Incident     int     `json:"incident"`
			IncidentKind string  `json:"incident_kind"`
		} `json:"events"`
	}
	if err := json.Unmarshal(a, &alerts); err != nil {
		t.Fatalf("alerts file is not JSON: %v", err)
	}
	fireIncident, fireAt := 0, -1.0
	resolved := false
	for _, ev := range alerts.Events {
		if ev.State == "fire" && ev.Incident > 0 && fireAt < 0 {
			fireIncident, fireAt = ev.Incident, ev.TimeS
			if ev.IncidentKind == "" {
				t.Fatalf("fire event missing incident kind: %+v", ev)
			}
		}
		if ev.State == "resolve" && fireAt >= 0 && ev.TimeS > fireAt {
			resolved = true
		}
	}
	if fireIncident == 0 {
		t.Fatalf("no alert fired during an injected incident:\n%s", a)
	}
	if !resolved {
		t.Fatalf("alert never resolved after firing:\n%s", a)
	}

	// The flight recorder must hold a dump correlated to that incident id.
	fr, err := os.ReadFile(flight)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Dumps []struct {
			Trigger  string `json:"trigger"`
			Incident int    `json:"incident"`
		} `json:"dumps"`
	}
	if err := json.Unmarshal(fr, &doc); err != nil {
		t.Fatalf("flightrec file is not JSON: %v", err)
	}
	correlated := false
	for _, d := range doc.Dumps {
		if d.Incident == fireIncident {
			correlated = true
		}
	}
	if !correlated {
		t.Fatalf("no flight dump correlated to incident %d:\n%s", fireIncident, fr)
	}
}

func TestRunChurnHealthFileOutputs(t *testing.T) {
	dir := t.TempDir()
	metrics := filepath.Join(dir, "metrics.json")
	ts := filepath.Join(dir, "ts.json")
	var buf bytes.Buffer
	err := run([]string{"-churn", "-duration", "60", "-rate", "0.1", "-hold", "60",
		"-interval", "30", "-users", "24", "-shards", "2",
		"-metrics-out", metrics, "-timeseries-out", ts}, &buf)
	if err != nil {
		t.Fatalf("run churn with health outputs: %v", err)
	}
	var snap struct {
		Metrics []struct {
			Name string `json:"name"`
		} `json:"metrics"`
	}
	mb, err := os.ReadFile(metrics)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(mb, &snap); err != nil {
		t.Fatalf("metrics snapshot is not JSON: %v", err)
	}
	names := map[string]bool{}
	for _, m := range snap.Metrics {
		names[m.Name] = true
	}
	for _, want := range []string{"vconf_commits_total", "vconf_events_total"} {
		if !names[want] {
			t.Fatalf("metrics snapshot missing %s", want)
		}
	}
	var tsDoc struct {
		IntervalS float64          `json:"interval_s"`
		Windows   []map[string]any `json:"windows"`
	}
	tb, err := os.ReadFile(ts)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(tb, &tsDoc); err != nil {
		t.Fatalf("timeseries file is not JSON: %v", err)
	}
	if tsDoc.IntervalS != 1 || len(tsDoc.Windows) == 0 {
		t.Fatalf("timeseries doc wrong: interval=%v windows=%d", tsDoc.IntervalS, len(tsDoc.Windows))
	}
}

// TestRunRejectsBadInterval pins the -interval check: a print interval
// that is not finite and positive never advances the interval loop, so it
// must be refused before any mode runs rather than spin.
func TestRunRejectsBadInterval(t *testing.T) {
	for _, iv := range []string{"0", "-5", "NaN", "+Inf"} {
		done := make(chan error, 1)
		go func() {
			var buf bytes.Buffer
			done <- run([]string{"-churn", "-interval", iv, "-duration", "20", "-users", "16"}, &buf)
		}()
		select {
		case err := <-done:
			if err == nil {
				t.Fatalf("-interval %s accepted", iv)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("-interval %s: run did not return", iv)
		}
	}
}

// TestHealBreakdownCountsDroppedIncidents fills span rings too small for
// the heal spans emitted into them: each phase's mean must cover only its
// spans still in the ring, and the line must say how many incidents' heal
// spans were dropped.
func TestHealBreakdownCountsDroppedIncidents(t *testing.T) {
	// Incident k's phases last k, 10k and 100k µs; one re-balance span of
	// 7 µs follows them.
	breakdown := func(capacity int) string {
		sink := telemetry.New(telemetry.Config{SpanCapacity: capacity})
		for k := 1; k <= 4; k++ {
			heal := sink.StartRoot("heal", "event", 1)
			for i, name := range []string{"degrade", "evict", "re-home"} {
				dur := time.Duration(k) * []time.Duration{time.Microsecond, 10 * time.Microsecond, 100 * time.Microsecond}[i]
				sink.EmitSpan(name, "event", heal, 1, time.Now(), dur.Nanoseconds(), 0)
			}
			heal.End()
		}
		sink.EmitSpan("re-balance", "event", telemetry.Span{}, 1, time.Now(), (7 * time.Microsecond).Nanoseconds(), 0)
		var buf bytes.Buffer
		printHealBreakdown(&buf, sink, 4)
		return buf.String()
	}
	for _, c := range []struct {
		capacity int
		want     []string
		absent   string
	}{
		// Nothing dropped: the means average incidents 1..4.
		{64, []string{"degrade 3µs + evict 25µs + re-home 250µs; re-balance 7µs across recoveries\n"}, "dropped"},
		// The ring keeps incident 3's re-home and heal spans and all of
		// incident 4.
		{7, []string{"heal phases: 2 of 4 incidents dropped from the span ring\n", "degrade 4µs + evict 40µs + re-home 350µs"}, ""},
		{3, []string{"heal phases: 3 of 4 incidents dropped from the span ring\n", "degrade n/a + evict n/a + re-home 400µs"}, ""},
		{1, []string{"heal phases: 4 of 4 incidents dropped from the span ring\n"}, "mean/incident"},
	} {
		out := breakdown(c.capacity)
		for _, want := range c.want {
			if !strings.Contains(out, want) {
				t.Fatalf("span capacity %d: output missing %q:\n%s", c.capacity, want, out)
			}
		}
		if c.absent != "" && strings.Contains(out, c.absent) {
			t.Fatalf("span capacity %d: output has %q:\n%s", c.capacity, c.absent, out)
		}
	}
}

// TestRunVirtualHealthDocsMatchIntervalRun pins that -virtual streams the
// same decisions into the same sink as the interval run: its alert
// timeline and health windows are byte-identical.
func TestRunVirtualHealthDocsMatchIntervalRun(t *testing.T) {
	dir := t.TempDir()
	docs := func(name string, extra ...string) (alerts, ts []byte) {
		al, tsPath := filepath.Join(dir, name+"-alerts.json"), filepath.Join(dir, name+"-ts.json")
		var buf bytes.Buffer
		if err := run(sloFlags(append(extra, "-alerts-out", al, "-timeseries-out", tsPath)...), &buf); err != nil {
			t.Fatalf("run %s: %v", name, err)
		}
		a, err := os.ReadFile(al)
		if err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(tsPath)
		if err != nil {
			t.Fatal(err)
		}
		return a, b
	}
	alI, tsI := docs("interval")
	alV, tsV := docs("virtual", "-virtual")
	if !bytes.Equal(alI, alV) {
		t.Fatal("-virtual alert timeline differs from the interval run's")
	}
	if !bytes.Equal(tsI, tsV) {
		t.Fatal("-virtual health windows differ from the interval run's")
	}
}

// TestRunVirtualRingOutputs pins that -virtual writes the decision and
// span rings, and that the decision ring, sized from the source, drops
// nothing.
func TestRunVirtualRingOutputs(t *testing.T) {
	dir := t.TempDir()
	trace, spans := filepath.Join(dir, "trace.jsonl"), filepath.Join(dir, "spans.jsonl")
	var buf bytes.Buffer
	if err := run([]string{"-churn", "-virtual", "-duration", "120", "-rate", "0.1", "-hold", "60",
		"-users", "24", "-shards", "2", "-trace-out", trace, "-span-out", spans}, &buf); err != nil {
		t.Fatalf("run -virtual: %v", err)
	}
	log := buf.String()
	for _, want := range []string{`trace: wrote \d+ decision records to \S+ \(0 dropped\)`, `spans: wrote \d+ span records to \S+`, `virtual: \d+ events`} {
		if !regexp.MustCompile(want).MatchString(log) {
			t.Fatalf("output missing %q:\n%s", want, log)
		}
	}
	for _, path := range []string{trace, spans} {
		if fi, err := os.Stat(path); err != nil || fi.Size() == 0 {
			t.Fatalf("%s missing or empty (%v)", path, err)
		}
	}
}
