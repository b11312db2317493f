package orchestrator

import (
	"reflect"
	"strconv"
	"strings"
	"testing"

	"vconf/internal/telemetry"
	"vconf/internal/workload"
)

// sumRecords folds the sink's decision records into aggregate counters for
// reconciliation against Stats.
type recordSums struct {
	events, arrives, departs              int
	commits, rejects, noChange, conflicts int
	stalls, notAdmitted                   int
}

func foldRecords(recs []telemetry.DecisionRecord) recordSums {
	var rs recordSums
	for _, r := range recs {
		rs.events++
		switch r.Kind {
		case "arrive":
			rs.arrives++
		case "depart":
			rs.departs++
		}
		rs.commits += r.Commits
		rs.rejects += r.Rejects
		rs.noChange += r.NoChange
		rs.conflicts += r.Conflicts
		if r.Stalled {
			rs.stalls++
		}
		if !r.Admitted {
			rs.notAdmitted++
		}
	}
	return rs
}

// reconcile runs the shared assertions: the trace records, the Stats
// counters and the registry's merged counters must agree exactly.
func reconcile(t *testing.T, o *Orchestrator, sink *telemetry.Sink, nEvents int) {
	t.Helper()
	st := o.Stats()
	recs := sink.Recorder().Items()
	if int64(nEvents) != sink.Recorder().Total() {
		t.Fatalf("recorder holds %d records total, want %d", sink.Recorder().Total(), nEvents)
	}
	rs := foldRecords(recs)
	if rs.events != st.Events {
		t.Fatalf("records = %d, Stats.Events = %d", rs.events, st.Events)
	}
	if rs.arrives != st.Arrivals || rs.departs != st.Departures {
		t.Fatalf("record kinds %d/%d, Stats %d/%d", rs.arrives, rs.departs, st.Arrivals, st.Departures)
	}
	if rs.commits != st.Commits || rs.rejects != st.Rejects || rs.noChange != st.NoChange {
		t.Fatalf("record outcomes %d/%d/%d, Stats %d/%d/%d",
			rs.commits, rs.rejects, rs.noChange, st.Commits, st.Rejects, st.NoChange)
	}
	if rs.conflicts != st.Conflicts {
		t.Fatalf("record conflicts %d, Stats %d", rs.conflicts, st.Conflicts)
	}
	if rs.stalls != st.AdmissionStalls {
		t.Fatalf("record stalls %d, Stats.AdmissionStalls %d", rs.stalls, st.AdmissionStalls)
	}
	if rs.notAdmitted != st.Dropped+st.Skipped {
		t.Fatalf("record non-admissions %d, Stats drops+skips %d", rs.notAdmitted, st.Dropped+st.Skipped)
	}

	// Registry counters (worker-side, sharded) must merge to the same
	// totals as both views above.
	counters := map[string]int64{}
	walkHops := map[string]int64{}
	for _, m := range sink.Registry().Snapshot() {
		if m.Type == "counter" {
			counters[m.Name] += int64(m.Value)
			if m.Name == "vconf_walk_hops_total" {
				walkHops[m.Labels["result"]] += int64(m.Value)
			}
		}
	}
	// The walk tallies ride the task tallies: every hop is counted once on
	// every path, as evaluated or reused within or across walks, and no task
	// walks past its budget (once per commit attempt).
	if st.WalkHops == 0 || st.WalkReused == 0 || st.WalkReusedAcross == 0 || st.WalkReused+st.WalkReusedAcross > st.WalkHops {
		t.Fatalf("walk tallies: %d hops, %d reused, %d reused across walks", st.WalkHops, st.WalkReused, st.WalkReusedAcross)
	}
	if limit := (st.Tasks + st.Conflicts) * o.cfg.HopBudget; st.WalkHops > limit {
		t.Fatalf("%d hops walked by %d tasks and %d retries of budget %d", st.WalkHops, st.Tasks, st.Conflicts, o.cfg.HopBudget)
	}
	if counters["vconf_walk_hops_total"] != int64(st.WalkHops) || walkHops["reused"] != int64(st.WalkReused) ||
		walkHops["reused_across"] != int64(st.WalkReusedAcross) ||
		walkHops["evaluated"] != int64(st.WalkHops-st.WalkReused-st.WalkReusedAcross) {
		t.Fatalf("registry walk hops %v, Stats %d (%d reused, %d across walks)",
			walkHops, st.WalkHops, st.WalkReused, st.WalkReusedAcross)
	}
	if counters["vconf_commits_total"] != int64(st.Commits) {
		t.Fatalf("registry commits %d, Stats %d", counters["vconf_commits_total"], st.Commits)
	}
	if counters["vconf_rejects_total"] != int64(st.Rejects) {
		t.Fatalf("registry rejects %d, Stats %d", counters["vconf_rejects_total"], st.Rejects)
	}
	if counters["vconf_nochange_total"] != int64(st.NoChange) {
		t.Fatalf("registry no-change %d, Stats %d", counters["vconf_nochange_total"], st.NoChange)
	}
	if counters["vconf_conflicts_total"] != int64(st.Conflicts) {
		t.Fatalf("registry conflicts %d, Stats %d", counters["vconf_conflicts_total"], st.Conflicts)
	}
	if counters["vconf_events_total"] != int64(st.Events) {
		t.Fatalf("registry events %d, Stats %d", counters["vconf_events_total"], st.Events)
	}
	if counters["vconf_admission_stalls_total"] != int64(st.AdmissionStalls) {
		t.Fatalf("registry stalls %d, Stats %d", counters["vconf_admission_stalls_total"], st.AdmissionStalls)
	}
	if counters["vconf_dropped_arrivals_total"] != int64(st.Dropped) {
		t.Fatalf("registry drops %d, Stats %d", counters["vconf_dropped_arrivals_total"], st.Dropped)
	}
	if counters["vconf_skipped_departures_total"] != int64(st.Skipped) {
		t.Fatalf("registry skips %d, Stats %d", counters["vconf_skipped_departures_total"], st.Skipped)
	}
}

func TestTelemetryReconciliationSerial(t *testing.T) {
	ev, boot := testStack(t, workload.Prototype(11))
	events := churn(t, ev, 11, 300, 0.08, 120)
	sink := telemetry.New(telemetry.Config{TraceCapacity: len(events) + 8})
	cfg := DefaultConfig(11)
	cfg.Shards = 4
	cfg.Telemetry = sink
	o, err := New(ev, boot, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer o.Close()
	if _, err := o.Run(events, 300); err != nil {
		t.Fatal(err)
	}
	reconcile(t, o, sink, len(events))
	if st := o.Stats(); st.Commits == 0 {
		t.Fatalf("run exercised no commits: %+v", st)
	}
	// At least one committed record must carry a counterfactual reading.
	n, mean, _ := sink.CounterfactualSummary()
	if n == 0 {
		t.Fatal("no counterfactual-k readings captured across a committing run")
	}
	if mean < 0 {
		t.Fatalf("mean counterfactual gap %v negative: the chosen hop should beat the runner-up", mean)
	}
}

func TestTelemetryReconciliationPipelined(t *testing.T) {
	ev, boot := testStack(t, workload.Prototype(13))
	events := churn(t, ev, 13, 300, 0.10, 120)
	sink := telemetry.New(telemetry.Config{TraceCapacity: len(events) + 8})
	cfg := DefaultConfig(13)
	cfg.Shards = 4
	cfg.MaxInFlight = 4
	cfg.Core.NeighborWindow = 6
	cfg.Telemetry = sink
	o, err := New(ev, boot, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer o.Close()
	if _, err := o.Run(events, 300); err != nil {
		t.Fatal(err)
	}
	reconcile(t, o, sink, len(events))
}

// TestTelemetryDifferentialNilVsEnabled pins zero observer effect: an
// identical schedule through a nil sink and an enabled sink must produce
// bit-identical reports and final state — instrumentation never perturbs
// RNG draws, evaluation order, or commit decisions.
func TestTelemetryDifferentialNilVsEnabled(t *testing.T) {
	run := func(sink *telemetry.Sink) ([]EventReport, float64) {
		ev, boot := testStack(t, workload.Prototype(14))
		events := churn(t, ev, 14, 300, 0.08, 120)
		cfg := DefaultConfig(14)
		cfg.Shards = 4
		cfg.Telemetry = sink
		o, err := New(ev, boot, cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer o.Close()
		reps, err := o.Run(events, 300)
		if err != nil {
			t.Fatal(err)
		}
		return reps, o.Objective()
	}
	plain, phiPlain := run(nil)
	instr, phiInstr := run(telemetry.New(telemetry.Config{}))
	if phiPlain != phiInstr {
		t.Fatalf("objective diverged: nil sink %v, enabled %v", phiPlain, phiInstr)
	}
	if len(plain) != len(instr) {
		t.Fatalf("report counts diverged: %d vs %d", len(plain), len(instr))
	}
	for i := range plain {
		a, b := plain[i], instr[i]
		// Latency is wall-clock and Conflicts is timing-dependent whenever
		// workers overlap; everything else must match bit-for-bit.
		a.Latency, b.Latency = 0, 0
		a.Conflicts, b.Conflicts = 0, 0
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("report %d diverged:\nnil:     %+v\nenabled: %+v", i, a, b)
		}
	}
}

// TestTelemetryPerRegionLabels pins the per-region label plumbing: with a
// session→region map, the exposition must carry region-labeled commit
// counters and latency histograms, and each task's outcome must count
// under its own session's region, not its event trigger's, through the
// fold of four workers' results.
func TestTelemetryPerRegionLabels(t *testing.T) {
	ev, boot := testStack(t, workload.Prototype(15))
	events := churn(t, ev, 15, 300, 0.08, 120)
	regions := make([]int, ev.Scenario().NumSessions())
	for s := range regions {
		regions[s] = s % 3
	}
	sink := telemetry.New(telemetry.Config{SessionRegion: regions, TraceCapacity: len(events) + 8})
	cfg := DefaultConfig(15)
	cfg.Shards = 4
	cfg.Telemetry = sink
	o, err := New(ev, boot, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer o.Close()
	// Each task's outcome must land in its own session's region: per
	// event, a region gains at most one outcome per re-optimized session
	// it holds, and the regions together gain the event's outcomes.
	outcomes := func() (n [3]int64) {
		for _, m := range sink.Registry().Snapshot() {
			switch m.Name {
			case "vconf_commits_total", "vconf_rejects_total", "vconf_nochange_total":
				r, err := strconv.Atoi(m.Labels["region"])
				if err != nil {
					t.Fatal(err)
				}
				n[r] += int64(m.Value)
			}
		}
		return n
	}
	var prev [3]int64
	for i, e := range events {
		rep, err := o.HandleEvent(e)
		if err != nil {
			t.Fatal(err)
		}
		var held [3]int64
		for _, s := range rep.Reopt {
			held[int(s)%3]++
		}
		cur, total := outcomes(), int64(0)
		for r := range cur {
			if d := cur[r] - prev[r]; d > held[r] {
				t.Fatalf("event %d: region %d counted %d task outcomes, but holds %d of the re-optimized sessions %v",
					i, r, d, held[r], rep.Reopt)
			}
			total += cur[r] - prev[r]
		}
		if want := int64(rep.Commits + rep.Rejects + rep.NoChange); total != want {
			t.Fatalf("event %d: %d task outcomes counted, report has %d", i, total, want)
		}
		prev = cur
	}
	reconcile(t, o, sink, len(events))

	var sb strings.Builder
	if err := sink.Registry().WriteProm(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		`vconf_events_total{kind="arrive",region="0"}`,
		`vconf_events_total{kind="arrive",region="1"}`,
		`vconf_events_total{kind="arrive",region="2"}`,
		`vconf_reopt_latency_ns_count{region="0"}`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
	// Every record's region must match the configured map.
	for _, rec := range sink.Recorder().Items() {
		if rec.Region != rec.Session%3 {
			t.Fatalf("record session %d labeled region %d, want %d", rec.Session, rec.Region, rec.Session%3)
		}
	}
}

// TestTelemetryHealSpansReconcile is the causal-trace contract for the
// fault path: every incident records exactly one "heal" span (parented to
// its fault event's span) with degrade/evict/re-home phase children, the
// per-orphan "evacuate" spans sum to Stats.Orphans, and recoveries record
// "re-balance" spans — so the Chrome flame graph attributes healing time
// phase by phase.
func TestTelemetryHealSpansReconcile(t *testing.T) {
	fc := chaosFleet(43)
	ev, boot, homes := chaosStack(t, fc)
	events := chaosSchedule(t, 43, fc, homes, 400, 0.15)
	sink := telemetry.New(telemetry.Config{
		TraceCapacity: len(events) + 8,
		SpanCapacity:  1 << 17,
	})
	cfg := chaosConfig(43, fc)
	cfg.Telemetry = sink
	o, err := New(ev, boot, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer o.Close()
	if _, err := o.Run(events, 1e18); err != nil {
		t.Fatal(err)
	}
	st := o.Stats()
	if st.Incidents == 0 || st.Orphans == 0 {
		t.Fatalf("schedule exercised no healing: %+v", st)
	}
	if sink.Spans().Dropped() != 0 {
		t.Fatalf("span ring wrapped (%d dropped); grow SpanCapacity", sink.Spans().Dropped())
	}

	byID := map[uint64]telemetry.SpanRecord{}
	children := map[uint64][]telemetry.SpanRecord{}
	var heals []telemetry.SpanRecord
	counts := map[string]int{}
	for _, sp := range sink.Spans().Items() {
		byID[sp.ID] = sp
		children[sp.Parent] = append(children[sp.Parent], sp)
		counts[sp.Name]++
		if sp.Name == "heal" {
			heals = append(heals, sp)
		}
	}
	if len(heals) != st.Incidents {
		t.Fatalf("heal spans = %d, Stats.Incidents = %d", len(heals), st.Incidents)
	}
	for _, h := range heals {
		parent, ok := byID[h.Parent]
		if !ok || parent.Cat != "event" {
			t.Fatalf("heal span %d not parented to an event span (parent %d: %+v)", h.ID, h.Parent, parent)
		}
		phases := map[string]int{}
		for _, ch := range children[h.ID] {
			phases[ch.Name]++
		}
		for _, want := range []string{"degrade", "evict", "re-home"} {
			if phases[want] != 1 {
				t.Fatalf("heal %d has %d %q children, want 1 (%v)", h.ID, phases[want], want, phases)
			}
		}
	}
	if counts["evacuate"] != st.Orphans {
		t.Fatalf("evacuate spans = %d, Stats.Orphans = %d", counts["evacuate"], st.Orphans)
	}
	if counts["re-balance"] == 0 {
		t.Fatal("no re-balance spans across a schedule with recoveries")
	}
	// Task spans carry snapshot/walk/commit attribution children that never
	// exceed the task wall interval.
	if counts["task"] == 0 {
		t.Fatal("no task spans recorded")
	}
	for id, sp := range byID {
		if sp.Name != "task" {
			continue
		}
		var sum int64
		for _, ch := range children[id] {
			sum += ch.DurNs
		}
		if sum > sp.DurNs {
			t.Fatalf("task %d phase attribution %dns exceeds wall %dns", id, sum, sp.DurNs)
		}
	}
}

// TestTelemetryClassLabels pins the SLO-class plumbing end to end: with a
// class map configured, the outcome families gain a class label, committed
// arrivals record their class and session delay, the per-class delay
// histograms fill, and the Jain fairness gauge lands in (0, 1].
func TestTelemetryClassLabels(t *testing.T) {
	ev, boot := testStack(t, workload.Prototype(16))
	events := churn(t, ev, 16, 300, 0.08, 120)
	sc := ev.Scenario()
	classes := workload.SessionClasses(sc, 0)
	sink := telemetry.New(telemetry.Config{
		TraceCapacity: len(events) + 8,
		Classes:       workload.SLOClassNames,
		SessionClass:  classes,
	})
	cfg := DefaultConfig(16)
	cfg.Shards = 4
	cfg.Telemetry = sink
	o, err := New(ev, boot, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer o.Close()
	if _, err := o.Run(events, 300); err != nil {
		t.Fatal(err)
	}
	if st := o.Stats(); st.Commits == 0 {
		t.Fatalf("run exercised no commits: %+v", st)
	}

	var sb strings.Builder
	if err := sink.Registry().WriteProm(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		`vconf_commits_total{class="interactive",region="0"}`,
		`vconf_commits_total{class="broadcast",region="0"}`,
		`vconf_session_delay_us_count{class="interactive"}`,
		`vconf_class_delay_fairness`,
		`vconf_dist_freeze_ns_count`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q", want)
		}
	}

	delays := 0
	for _, rec := range sink.Recorder().Items() {
		if rec.Kind == "arrive" && rec.Admitted {
			if want := workload.SLOClassNames[classes[rec.Session]]; rec.Class != want {
				t.Fatalf("session %d record classed %q, want %q", rec.Session, rec.Class, want)
			}
			if rec.DelayMS > 0 {
				delays++
			}
		}
	}
	if delays == 0 {
		t.Fatal("no committed arrival recorded a session delay")
	}

	var fairness float64
	for _, m := range sink.Registry().Snapshot() {
		if m.Name == "vconf_class_delay_fairness" {
			fairness = m.Value
		}
	}
	if fairness <= 0 || fairness > 1 {
		t.Fatalf("Jain fairness = %v, want (0, 1]", fairness)
	}
}
