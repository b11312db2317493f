package core

import (
	"testing"

	"vconf/internal/assign"
	"vconf/internal/baseline"
	"vconf/internal/cost"
	"vconf/internal/model"
	"vconf/internal/workload"
)

// Allocation-regression tests: the steady-state hop pipeline must not
// allocate. They run the real benchmark loop via testing.Benchmark and
// assert AllocsPerOp — a future change that reintroduces dense-path
// allocations (per-candidate slices, maps, closures) fails here instead of
// silently regressing BenchmarkHopSession.

// allocFixture bootstraps a prototype-scale workload ready for hops.
func allocFixture(t *testing.T, seed int64) (*cost.Evaluator, *assign.Assignment, *cost.Ledger) {
	t.Helper()
	sc, err := workload.Generate(workload.Prototype(seed))
	if err != nil {
		t.Fatal(err)
	}
	p := cost.DefaultParams()
	ev, err := cost.NewEvaluator(sc, p)
	if err != nil {
		t.Fatal(err)
	}
	a := assign.New(sc)
	ledger := cost.NewLedger(sc)
	if err := baseline.Assign(a, p, ledger); err != nil {
		t.Fatal(err)
	}
	return ev, a, ledger
}

func TestHopSessionZeroAllocs(t *testing.T) {
	// Both sparse paths — the warm delay cache (production default) and the
	// per-hop rebuild reference — must run allocation-free at steady state.
	for _, tc := range []struct {
		name    string
		rebuild bool
	}{{"warm-delay-cache", false}, {"rebuild-delay-base", true}} {
		t.Run(tc.name, func(t *testing.T) {
			ev, a, ledger := allocFixture(t, 1)
			sessions := ev.Scenario().NumSessions()
			cfg := DefaultConfig(1)
			rng := newTestRNG(1)
			scr := NewHopScratch(ev)
			scr.Eval().SetDelayCacheEnabled(!tc.rebuild)

			// Warm-up: one pass over every session sizes all buffers (and,
			// on the cached path, allocates every session's delay entry).
			for s := 0; s < sessions; s++ {
				if _, err := HopSessionWith(a, model.SessionID(s), ev, ledger, cfg, rng, scr); err != nil {
					t.Fatal(err)
				}
			}

			var hopErr error
			i := 0
			res := testing.Benchmark(func(b *testing.B) {
				for n := 0; n < b.N; n++ {
					if _, err := HopSessionWith(a, model.SessionID(i%sessions), ev, ledger, cfg, rng, scr); err != nil {
						hopErr = err
						return
					}
					i++
				}
			})
			if hopErr != nil {
				t.Fatal(hopErr)
			}
			if allocs := res.AllocsPerOp(); allocs != 0 {
				t.Errorf("HopSessionWith candidate loop allocates %d allocs/op, want 0", allocs)
			}
		})
	}
}

func TestSessionTotalRateZeroAllocs(t *testing.T) {
	ev, a, ledger := allocFixture(t, 2)
	sessions := ev.Scenario().NumSessions()
	cfg := DefaultConfig(2)
	cfg.Mode = ExactCTMC
	scr := NewHopScratch(ev)
	for s := 0; s < sessions; s++ {
		if _, err := SessionTotalRateWith(a, model.SessionID(s), ev, ledger, cfg, scr); err != nil {
			t.Fatal(err)
		}
	}
	var rateErr error
	i := 0
	res := testing.Benchmark(func(b *testing.B) {
		for n := 0; n < b.N; n++ {
			if _, err := SessionTotalRateWith(a, model.SessionID(i%sessions), ev, ledger, cfg, scr); err != nil {
				rateErr = err
				return
			}
			i++
		}
	})
	if rateErr != nil {
		t.Fatal(rateErr)
	}
	if allocs := res.AllocsPerOp(); allocs != 0 {
		t.Errorf("SessionTotalRateWith allocates %d allocs/op, want 0", allocs)
	}
}

func TestFitsRepairDeltaZeroAllocs(t *testing.T) {
	ev, a, ledger := allocFixture(t, 3)
	scr := ev.NewScratch()
	ev.BeginSession(a, 0, scr)
	own := scr.CurLoad()
	var cand *cost.SparseLoad
	for _, d := range a.AppendSessionNeighborDecisions(nil, 0) {
		load, err := ev.NeighbourLoad(a, 0, d, scr)
		if err != nil {
			t.Fatal(err)
		}
		if ledger.FitsRepairDelta(load, own) {
			cand = load
			break
		}
	}
	if cand == nil {
		t.Fatal("no neighbour of session 0 fits")
	}

	res := testing.Benchmark(func(b *testing.B) {
		for n := 0; n < b.N; n++ {
			if !ledger.FitsRepairDelta(cand, own) {
				b.Fatal("unexpected infeasible")
			}
		}
	})
	if allocs := res.AllocsPerOp(); allocs != 0 {
		t.Errorf("FitsRepairDelta allocates %d allocs/op, want 0", allocs)
	}
}

// The candidate-evaluation primitives (NeighbourLoad + delta delay Φ)
// must also stay allocation-free, independent of the hop wrapper.
func TestCandidateEvalZeroAllocs(t *testing.T) {
	ev, a, _ := allocFixture(t, 4)
	scr := ev.NewScratch()
	s := model.SessionID(0)
	ev.BeginSession(a, s, scr)
	var decisions []assign.Decision
	decisions = a.AppendSessionNeighborDecisions(decisions, s)
	if len(decisions) == 0 {
		t.Fatal("no neighbor decisions")
	}
	var evalErr error
	res := testing.Benchmark(func(b *testing.B) {
		for n := 0; n < b.N; n++ {
			d := decisions[n%len(decisions)]
			if _, err := ev.NeighbourLoad(a, s, d, scr); err != nil {
				evalErr = err
				return
			}
			ev.CandidatePhi(a, s, d, scr)
		}
	})
	if evalErr != nil {
		t.Fatal(evalErr)
	}
	if allocs := res.AllocsPerOp(); allocs != 0 {
		t.Errorf("candidate evaluation allocates %d allocs/op, want 0", allocs)
	}
}
