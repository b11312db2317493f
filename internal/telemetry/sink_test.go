package telemetry

import (
	"io"
	"net/http"
	"strings"
	"testing"
	"time"
)

// TestNilSinkSafe calls every Sink method on a nil receiver: each must be a
// no-op, never a panic — that is the disabled-telemetry contract.
func TestNilSinkSafe(t *testing.T) {
	var s *Sink
	if s.Registry() != nil || s.Recorder() != nil || s.Spans() != nil {
		t.Fatal("nil sink leaked non-nil components")
	}
	s.Task(3, TaskResult{Outcome: OutcomeCommit, Conflicts: 1, Hops: 12, Reused: 5, ReusedAcross: 3})
	s.Evacuation(3, true, 100)
	s.DegradedReject(3)
	s.Record(DecisionRecord{Kind: "arrive"})
	if n, mean, p99 := s.CounterfactualSummary(); n != 0 || mean != 0 || p99 != 0 {
		t.Fatal("nil sink returned a counterfactual summary")
	}
}

// TestNilSinkZeroAlloc pins the disabled hot path at zero allocations:
// every instrumentation call on a nil sink must reduce to a pointer test.
func TestNilSinkZeroAlloc(t *testing.T) {
	var s *Sink
	r := TaskResult{Outcome: OutcomeCommit, Conflicts: 1, Hops: 12, Reused: 5, ReusedAcross: 3,
		SnapshotNs: 1, WalkNs: 2, CommitNs: 3, CacheHits: 1, CachePatches: 2, CacheRebuilds: 3}
	allocs := testing.AllocsPerRun(1000, func() {
		s.Task(5, r)
		s.DegradedReject(5)
	})
	if allocs != 0 {
		t.Fatalf("nil-sink hot path allocates %.1f/op, want 0", allocs)
	}
}

// TestEnabledHotPathZeroAlloc pins the enabled task count too: Sink.Task
// is atomic adds on handles resolved at New, with no allocation.
func TestEnabledHotPathZeroAlloc(t *testing.T) {
	s := New(Config{SessionRegion: []int{0, 1, 2, 1}})
	r := TaskResult{Outcome: OutcomeCommit, Conflicts: 1, Hops: 12, Reused: 5, ReusedAcross: 3,
		SnapshotNs: 10, WalkNs: 20, CommitNs: 30, CacheHits: 1, CacheRebuilds: 1}
	allocs := testing.AllocsPerRun(1000, func() {
		s.Task(2, r)
	})
	if allocs != 0 {
		t.Fatalf("enabled Sink.Task allocates %.1f/op, want 0", allocs)
	}
}

// TestSinkRegionMapping pins where the sink's region labels come from: a
// task counts under its own session's region — not the region of the
// event that scheduled it — records carry their trigger's region, and
// sessions outside the map land in region 0.
func TestSinkRegionMapping(t *testing.T) {
	s := New(Config{SessionRegion: []int{0, 1, 2, 1}})
	// An arrival of session 3 (region 1) whose re-optimization set holds
	// session 2 (region 2): the task counts in region 2, the event in 1.
	s.Task(2, TaskResult{Outcome: OutcomeCommit, Conflicts: 2})
	s.Task(99, TaskResult{Outcome: OutcomeReject})
	s.Task(-1, TaskResult{Outcome: OutcomeNoChange})
	s.Record(DecisionRecord{Kind: "arrive", Session: 3, Admitted: true, Commits: 1, Reopt: 1})
	s.Record(DecisionRecord{Kind: "arrive", Session: 99, Admitted: true})
	var sb strings.Builder
	if err := s.Registry().WriteProm(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		`vconf_commits_total{region="2"} 1`,
		`vconf_commits_total{region="1"} 0`,
		`vconf_conflicts_total{region="2"} 2`,
		`vconf_rejects_total{region="0"} 1`,
		`vconf_nochange_total{region="0"} 1`,
		`vconf_events_total{kind="arrive",region="1"} 1`,
		`vconf_events_total{kind="arrive",region="0"} 1`,
	} {
		if !strings.Contains(out, want+"\n") {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
	recs := s.Recorder().Items()
	if len(recs) != 2 || recs[0].Region != 1 || recs[1].Region != 0 {
		t.Fatalf("record regions: %+v", recs)
	}
}

func TestSinkRecordDerivedFields(t *testing.T) {
	s := New(Config{})
	s.Record(DecisionRecord{Kind: "arrive", Session: 0, Admitted: true, Objective: 10})
	s.Record(DecisionRecord{Kind: "depart", Session: 0, Admitted: true, Objective: 7})
	recs := s.Recorder().Items()
	if len(recs) != 2 {
		t.Fatalf("got %d records", len(recs))
	}
	if recs[0].ObjectiveDelta != 0 {
		t.Fatalf("first record delta = %v, want 0 (no prior objective)", recs[0].ObjectiveDelta)
	}
	if recs[1].ObjectiveDelta != -3 {
		t.Fatalf("second record delta = %v, want -3", recs[1].ObjectiveDelta)
	}
	if recs[0].WallNs == 0 {
		t.Fatal("WallNs not stamped")
	}
	// Record must not bump the task-scoped commit counters (Sink.Task
	// counts those), but must count the event.
	var sb strings.Builder
	if err := s.Registry().WriteProm(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, `vconf_events_total{kind="depart",region="0"} 1`) {
		t.Errorf("depart event not counted:\n%s", out)
	}
	if strings.Contains(out, `vconf_commits_total{region="0"} 1`) {
		t.Errorf("Record double-counted commits:\n%s", out)
	}
}

func TestCounterfactualSummary(t *testing.T) {
	s := New(Config{})
	gaps := []float64{0.1, 0.2, 0.3, 0.4}
	for _, g := range gaps {
		s.Record(DecisionRecord{Kind: "arrive", Admitted: true, Commits: 1, CfGap: g, CfValid: true})
	}
	// Invalid / uncommitted records must not contribute.
	s.Record(DecisionRecord{Kind: "arrive", Admitted: true, Commits: 1, CfGap: 99, CfValid: false})
	s.Record(DecisionRecord{Kind: "arrive", Admitted: true, Commits: 0, CfGap: 99, CfValid: true})
	n, mean, p99 := s.CounterfactualSummary()
	if n != 4 {
		t.Fatalf("n = %d, want 4", n)
	}
	if mean < 0.2499 || mean > 0.2501 {
		t.Fatalf("mean = %v, want 0.25", mean)
	}
	if p99 != 0.4 {
		t.Fatalf("p99 = %v, want 0.4", p99)
	}
}

func TestServeEndpoints(t *testing.T) {
	s := New(Config{})
	s.Task(0, TaskResult{Outcome: OutcomeCommit})
	s.Record(DecisionRecord{Kind: "arrive", Admitted: true, Commits: 1})
	srv, err := Serve(s, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	get := func(path string) (int, string) {
		cl := &http.Client{Timeout: 5 * time.Second}
		resp, err := cl.Get("http://" + srv.Addr() + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(b)
	}
	if code, body := get("/metrics"); code != 200 || !strings.Contains(body, "vconf_commits_total") {
		t.Fatalf("/metrics: code=%d body=%q", code, body)
	}
	if code, body := get("/metrics.json"); code != 200 || !strings.Contains(body, "vconf_commits_total") {
		t.Fatalf("/metrics.json: code=%d body=%q", code, body)
	}
	if code, body := get("/trace.jsonl"); code != 200 || !strings.Contains(body, `"kind":"arrive"`) {
		t.Fatalf("/trace.jsonl: code=%d body=%q", code, body)
	}
	if code, body := get("/trace.chrome.json"); code != 200 || !strings.Contains(body, "traceEvents") {
		t.Fatalf("/trace.chrome.json: code=%d body=%q", code, body)
	}
	if code, _ := get("/debug/pprof/cmdline"); code != 200 {
		t.Fatalf("/debug/pprof/cmdline: code=%d", code)
	}
}

func TestServeNilSink(t *testing.T) {
	srv, err := Serve(nil, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cl := &http.Client{Timeout: 5 * time.Second}
	resp, err := cl.Get("http://" + srv.Addr() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("nil sink /metrics code = %d, want 503", resp.StatusCode)
	}
}
