package core

import (
	"math/rand"
	"sync"
	"testing"

	"vconf/internal/assign"
	"vconf/internal/baseline"
	"vconf/internal/cost"
	"vconf/internal/model"
	"vconf/internal/workload"
)

// hopWindow is the candidate window of the tests and the benchmark in this
// file: the production setting of the benchmark battery.
const hopWindow = 4

// fleetFixture bootstraps a 24-agent regional fleet of eight sessions of
// exactly sessionSize users, nearest-agent placed, ready for hops.
func fleetFixture(tb testing.TB, sessionSize int) (*cost.Evaluator, *assign.Assignment, *cost.Ledger) {
	tb.Helper()
	return tunedFleetFixture(tb, sessionSize, func(*workload.FleetConfig) {})
}

// tunedFleetFixture is fleetFixture with the fleet's configuration adjusted
// by tune before it is generated (capacities, the delay cap).
func tunedFleetFixture(tb testing.TB, sessionSize int, tune func(*workload.FleetConfig)) (*cost.Evaluator, *assign.Assignment, *cost.Ledger) {
	tb.Helper()
	fc := workload.DefaultFleetConfig(1)
	fc.NumAgents = 24
	fc.Regions = 4
	fc.NumUsers = 8 * sessionSize
	fc.MinSessionSize = sessionSize
	fc.MaxSessionSize = sessionSize
	fc.AgentBandwidthMbps = 3000
	fc.AgentTranscodeSlots = 12
	tune(&fc)
	sc, err := workload.GenerateSyntheticFleet(fc)
	if err != nil {
		tb.Fatal(err)
	}
	p := cost.DefaultParams()
	ev, err := cost.NewEvaluator(sc, p)
	if err != nil {
		tb.Fatal(err)
	}
	a := assign.New(sc)
	ledger := cost.NewLedger(sc)
	if err := baseline.Assign(a, p, ledger); err != nil {
		tb.Fatal(err)
	}
	return ev, a, ledger
}

// TestHopSessionWindowedSharedIndexZeroAllocs pins the production hop — a
// candidate window backed by an index the host built once and handed to the
// scratch — at zero allocations once warm: the session plan is compiled with
// the scenario, so nothing on this path builds or caches one.
func TestHopSessionWindowedSharedIndexZeroAllocs(t *testing.T) {
	ev, a, ledger := fleetFixture(t, 6)
	sessions := ev.Scenario().NumSessions()
	cfg := DefaultConfig(1)
	cfg.NeighborWindow = hopWindow
	rng := rand.New(rand.NewSource(1))
	scr := NewHopScratch(ev)
	scr.SetProximityIndex(assign.NewProximityIndex(ev.Scenario(), hopWindow))
	hop := func(s int) {
		if _, err := HopSessionWith(a, model.SessionID(s%sessions), ev, ledger, cfg, rng, scr); err != nil {
			t.Fatal(err)
		}
	}
	for s := 0; s < 2*sessions; s++ {
		hop(s) // size the buffers
	}
	s := 0
	if allocs := testing.AllocsPerRun(200, func() { hop(s); s++ }); allocs != 0 {
		t.Errorf("warm windowed HopSessionWith allocates %v times per hop, want 0", allocs)
	}
}

// TestSharedPlanConcurrentWorkers: two workers walk the same sessions at
// once, each on a private assignment, ledger and scratch, sharing only the
// scenario — and with it the compiled plan — the evaluator and one
// proximity index. Under -race this proves the shared structures are
// read-only on the hop path; the walks must also agree hop for hop.
func TestSharedPlanConcurrentWorkers(t *testing.T) {
	ev, a0, ledger0 := fleetFixture(t, 6)
	sessions := ev.Scenario().NumSessions()
	ix := assign.NewProximityIndex(ev.Scenario(), hopWindow)
	cfg := DefaultConfig(3)
	cfg.NeighborWindow = hopWindow

	const workers, hops = 2, 200
	trails := make([][]HopResult, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		a, ledger := a0.Clone(), ledger0.Clone()
		scr := NewHopScratch(ev)
		scr.SetProximityIndex(ix)
		rng := rand.New(rand.NewSource(9))
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < hops; i++ {
				res, err := HopSessionWith(a, model.SessionID(i%sessions), ev, ledger, cfg, rng, scr)
				if err != nil {
					t.Error(err)
					return
				}
				trails[w] = append(trails[w], res)
			}
		}(w)
	}
	wg.Wait()
	if len(trails[0]) != hops || len(trails[1]) != hops {
		t.Fatalf("walks ended early: %d and %d of %d hops", len(trails[0]), len(trails[1]), hops)
	}
	for i := range trails[0] {
		if trails[0][i] != trails[1][i] {
			t.Fatalf("hop %d: workers sharing one plan diverged: %+v vs %+v", i, trails[0][i], trails[1][i])
		}
	}
}

// BenchmarkWalkSession times the orchestrator's unit of work: a 12-hop walk
// of one session (candidate window 4, shared index, warm scratch, one memo
// table) on sessions of 5 and of 12 users, and reports the share of hops
// that reused a candidate set from the walk's own memo (reused/hop) and from
// an earlier walk's (across/hop). CI runs it with -benchtime=1x.
func BenchmarkWalkSession(b *testing.B) {
	for _, tc := range []struct {
		name string
		n    int
	}{{"n=5", 5}, {"n=12", 12}} {
		b.Run(tc.name, func(b *testing.B) {
			ev, a, ledger := fleetFixture(b, tc.n)
			sessions := ev.Scenario().NumSessions()
			cfg := DefaultConfig(1)
			cfg.NeighborWindow = hopWindow
			rng := rand.New(rand.NewSource(1))
			scr := NewHopScratch(ev)
			scr.SetProximityIndex(assign.NewProximityIndex(ev.Scenario(), hopWindow))
			memo := NewMemoTable(1<<20, sessions)
			var total WalkStats
			walk := func(i int) {
				st, err := WalkSession(a, model.SessionID(i%sessions), ev, ledger, cfg, rng, scr, memo, 12, func(HopResult) {})
				if err != nil {
					b.Fatal(err)
				}
				total.Hops += st.Hops
				total.Reused += st.Reused
				total.ReusedAcross += st.ReusedAcross
			}
			for i := 0; i < sessions; i++ {
				walk(i)
			}
			total = WalkStats{}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				walk(i)
			}
			b.ReportMetric(float64(total.Reused)/float64(total.Hops), "reused/hop")
			b.ReportMetric(float64(total.ReusedAcross)/float64(total.Hops), "across/hop")
		})
	}
}

// BenchmarkHopSessionWith times the warm production hop (candidate window
// 4, shared index) on sessions of 5 and of 12 users. CI runs it with
// -benchtime=1x so the hot path is compiled and exercised on every push.
func BenchmarkHopSessionWith(b *testing.B) {
	for _, tc := range []struct {
		name string
		n    int
	}{{"n=5", 5}, {"n=12", 12}} {
		b.Run(tc.name, func(b *testing.B) {
			ev, a, ledger := fleetFixture(b, tc.n)
			sessions := ev.Scenario().NumSessions()
			cfg := DefaultConfig(1)
			cfg.NeighborWindow = hopWindow
			rng := rand.New(rand.NewSource(1))
			scr := NewHopScratch(ev)
			scr.SetProximityIndex(assign.NewProximityIndex(ev.Scenario(), hopWindow))
			hop := func(i int) {
				if _, err := HopSessionWith(a, model.SessionID(i%sessions), ev, ledger, cfg, rng, scr); err != nil {
					b.Fatal(err)
				}
			}
			for i := 0; i < sessions; i++ {
				hop(i)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				hop(i)
			}
		})
	}
}
