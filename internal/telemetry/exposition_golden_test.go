package telemetry

import (
	"flag"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

var updateExposition = flag.Bool("update", false, "rewrite the exposition goldens under testdata/exposition")

// expositionSink builds a sink with every subsystem on (classes, regions,
// health windows, two SLO rules, rings small enough to wrap) and feeds it a
// fixed call sequence. Nothing reads the wall clock: records carry WallNs,
// spans are emitted with an explicit start and duration.
func expositionSink() *Sink {
	s := New(Config{
		TraceCapacity: 12,
		SpanCapacity:  10,
		SessionRegion: []int{0, 1, 2, 1, 0, 2, 1, 0},
		Regions:       3,
		Classes:       []string{"interactive", "broadcast"},
		SessionClass:  []int{0, 1, 0, 1, 1, 0, 0, 1},
		SampleEveryS:  2,
		SLO: []SLORule{
			{Name: "availability", Kind: RuleAvailability, Budget: 0.05, FastWindows: 2, SlowWindows: 3, FireBurn: 2},
			{Name: "interactive-delay", Kind: RuleDelay, Class: "interactive", TargetUS: 60_000, Budget: 0.2, FastWindows: 2, SlowWindows: 4, FireBurn: 2},
		},
	})
	const wall0 = int64(1_700_000_000_000_000_000)
	root := Span{}
	kinds := []string{"arrive", "arrive", "depart", "arrive", "agent-fail", "arrive", "depart", "agent-recover"}
	for i := 0; i < 30; i++ {
		session := (i * 5) % 9 // 8 lands outside the region and class maps
		kind := kinds[i%len(kinds)]
		// Arrivals between t=8s and t=14s are dropped, so the availability
		// rule fires on them.
		admitted := !(kind == "arrive" && i >= 12 && i < 20) && i%11 != 3
		outcome := TaskOutcome(i % 4)
		s.Task(session, TaskResult{
			Outcome: outcome, Conflicts: i % 3,
			Hops: 10 + i, Reused: i % 5, ReusedAcross: i % 2,
			SnapshotNs: int64(1000 + 37*i), WalkNs: int64(20000 + 611*i), CommitNs: int64(500 + 13*i),
			CacheHits: int64(i % 4), CachePatches: int64(i % 3), CacheRebuilds: int64(i % 2),
		})
		rec := DecisionRecord{
			TimeS:          0.7 * float64(i),
			WallNs:         wall0 + int64(i)*3_500_000,
			Session:        session,
			Kind:           kind,
			Admitted:       admitted,
			Stalled:        i%7 == 2,
			Reopt:          1 + i%3,
			Conflicts:      i % 3,
			LatencyNs:      int64(40_000 + 9_173*i),
			SnapshotNs:     int64(1000 + 37*i),
			WalkNs:         int64(20000 + 611*i),
			CommitNs:       int64(500 + 13*i),
			CacheWarm:      i % 3,
			CacheCold:      i % 2,
			ChosenAgent:    -1,
			Objective:      500 + 3.25*float64(i%9) - 1.5*float64(i%4),
			ActiveSessions: 3 + i%5,
		}
		switch outcome {
		case OutcomeCommit:
			rec.Commits = 1
			rec.ChosenAgent = i % 6
			rec.CfGap, rec.CfValid = 0.5+0.37*float64(i%7), i%5 != 0
		case OutcomeReject:
			rec.Rejects = 1
		case OutcomeNoChange:
			rec.NoChange = 1
		}
		if kind == "arrive" && admitted {
			rec.DelayMS = 35 + 6.5*float64(i%8)
		}
		if kind == "agent-fail" {
			rec.Incident, rec.Orphans, rec.Evacuated, rec.EvacRejects = i, 2, 1, 1
			s.SetCapacityScale(i%6, 0)
			s.Evacuation(session, true, int64(70_000+1_000*i))
			s.Evacuation(session+1, false, int64(90_000+1_000*i))
			s.DegradedReject(session)
			s.Incident(int64(2_000_000 + 50_000*i))
		}
		if kind == "agent-recover" {
			rec.Incident = i - 3
			s.SetCapacityScale((i-3)%6, 1)
			s.SetCapacityScale(5, 0.5)
		}
		s.Record(rec)

		start := time.Unix(0, rec.WallNs)
		ev := s.EmitSpan("event:"+kind, "event", root, int32(1+i%4), start, 30_000+int64(i)*777, int64(session))
		s.EmitSpan("task", "task", ev, int32(100+i%2), start.Add(2*time.Microsecond), 20_000+int64(i)*101, int64(i))
		if i%6 == 5 {
			s.DistFreeze(int64(15_000 + 900*i))
			s.DistRetry()
		}
		if i%10 == 9 {
			s.DistAbandon()
		}
		if kind == "agent-fail" {
			s.TriggerFlight("fault", "agent failed at step "+strings.Repeat("i", 1+i%3))
		}
	}
	// The dump budget is spent by now: the second of these counts as dropped.
	s.TriggerFlight("invariant", "capacity check failed")
	s.TriggerFlight("invariant", "delay cap violated")
	s.Flush()
	return s
}

// TestExpositionGolden pins every route-table document of a fixed sink
// byte for byte. Run with -update to re-record the goldens.
func TestExpositionGolden(t *testing.T) {
	h := expositionSink().Handler()
	for _, path := range Documents() {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
		if rec.Code != 200 {
			t.Fatalf("%s: status %d: %s", path, rec.Code, rec.Body)
		}
		golden := filepath.Join("testdata", "exposition", strings.TrimPrefix(path, "/")+".golden")
		if *updateExposition {
			if err := os.MkdirAll(filepath.Dir(golden), 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(golden, rec.Body.Bytes(), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(golden)
		if err != nil {
			t.Fatalf("%s: %v (record with -update)", path, err)
		}
		if got := rec.Body.String(); got != string(want) {
			t.Errorf("%s differs from %s:\n%s", path, golden, firstDiff(got, string(want)))
		}
	}
}

// firstDiff reports the first line where got and want part.
func firstDiff(got, want string) string {
	g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := 0; i < len(g) && i < len(w); i++ {
		if g[i] != w[i] {
			return fmt.Sprintf("line %d:\n got  %s\n want %s", i+1, g[i], w[i])
		}
	}
	return fmt.Sprintf("lengths differ: got %d lines, want %d", len(g), len(w))
}
