package shard

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

// TestShardCapacityScaleStorm degrades and restores agents mid-flight while
// ≥8 workers loop snapshot → mutate → commit: SetCapacityScale under one
// stripe lock must never race snapshot readers under other stripes' locks
// (the lazy scale-array allocation used to publish a slice header
// unsynchronized — run under -race in CI), and the final ledger must
// reconcile exactly against the sum of last-committed loads — no lost, torn
// or duplicated commit regardless of how scales flipped around it.
func TestShardCapacityScaleStorm(t *testing.T) {
	fc := workload.DefaultFleetConfig(5)
	fc.NumAgents = 16
	fc.NumUsers = 64
	fc.Regions = 4
	fc.AgentBandwidthMbps = 220
	fc.AgentTranscodeSlots = 24
	sc, err := workload.GenerateSyntheticFleet(fc)
	if err != nil {
		t.Fatal(err)
	}
	p := cost.DefaultParams()
	ev, err := cost.NewEvaluator(sc, p)
	if err != nil {
		t.Fatal(err)
	}
	a := assign.New(sc)
	admissionLedger := cost.NewLedger(sc)
	var admitted []model.SessionID
	for s := 0; s < sc.NumSessions(); s++ {
		if err := baseline.AssignSessionNearest(a, model.SessionID(s), p, admissionLedger); err == nil {
			admitted = append(admitted, model.SessionID(s))
		}
	}

	for _, shards := range []int{1, 4, 16} {
		sl := New(sc, shards)
		scr := ev.NewScratch()
		workers := len(admitted)
		if workers < 8 {
			t.Fatalf("fleet admitted %d sessions, need ≥8 conflicting workers", workers)
		}
		initial := make([]*cost.SparseLoad, workers)
		for i, s := range admitted {
			initial[i] = cost.NewSparseLoad(sc.NumAgents())
			initial[i].CopyFrom(ev.SessionLoadSparse(a, s, scr))
			sl.Add(initial[i])
		}

		// The chaos goroutine flips a band of agents between failed (0),
		// degraded (0.5) and healthy (1) until the committers finish.
		done := make(chan struct{})
		var chaosWG sync.WaitGroup
		chaosWG.Add(1)
		go func() {
			defer chaosWG.Done()
			rng := rand.New(rand.NewSource(999))
			scales := []float64{0, 0.5, 1}
			for {
				select {
				case <-done:
					return
				default:
				}
				agent := model.AgentID(rng.Intn(6))
				if err := sl.SetCapacityScale(agent, scales[rng.Intn(len(scales))]); err != nil {
					t.Error(err)
					return
				}
			}
		}()

		final := make([]*cost.SparseLoad, workers)
		var commits [64]int
		var wg sync.WaitGroup
		for wkr := 0; wkr < workers; wkr++ {
			wg.Add(1)
			go func(wkr int) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(int64(2000 + wkr)))
				snap := cost.NewLedger(sc)
				var epochs Epochs
				var route Route
				cur := initial[wkr]
				for iter := 0; iter < 200; iter++ {
					epochs = sl.SnapshotInto(snap, epochs[:0])
					cand := mutateLoad(sc, cur, rng)
					if sl.CommitDelta(cand, cur, epochs, &route) == Committed {
						cur = cand
						commits[wkr]++
					}
				}
				final[wkr] = cur
			}(wkr)
		}
		wg.Wait()
		close(done)
		chaosWG.Wait()

		// Exact reconciliation: usage must equal the sum of every worker's
		// last-committed load, independent of the scale flips interleaved
		// with the commits. Tasks are integers (exact); bandwidth was
		// accumulated in commit order, so allow float slack.
		want := cost.NewLedger(sc)
		for _, load := range final {
			want.Add(load)
		}
		gotDown, gotUp, gotTasks := sl.Usage()
		wantDown, wantUp, wantTasks := want.Usage()
		const eps = 1e-6
		for l := 0; l < sc.NumAgents(); l++ {
			if gotTasks[l] != wantTasks[l] {
				t.Fatalf("shards=%d: agent %d tasks %d, want %d (lost/duplicated commit)",
					shards, l, gotTasks[l], wantTasks[l])
			}
			if d := gotDown[l] - wantDown[l]; d > eps || d < -eps {
				t.Fatalf("shards=%d: agent %d download %v, want %v", shards, l, gotDown[l], wantDown[l])
			}
			if d := gotUp[l] - wantUp[l]; d > eps || d < -eps {
				t.Fatalf("shards=%d: agent %d upload %v, want %v", shards, l, gotUp[l], wantUp[l])
			}
		}
		totalCommits := 0
		for w := 0; w < workers; w++ {
			totalCommits += commits[w]
		}
		if totalCommits == 0 {
			t.Fatalf("shards=%d: storm committed nothing", shards)
		}

		// Post-storm determinism: a zero scale must gate the commit path.
		for l := 0; l < sc.NumAgents(); l++ {
			if err := sl.SetCapacityScale(model.AgentID(l), 1); err != nil {
				t.Fatal(err)
			}
		}
		if err := sl.SetCapacityScale(0, 0); err != nil {
			t.Fatal(err)
		}
		var epochs Epochs
		var route Route
		snap := cost.NewLedger(sc)
		epochs = sl.SnapshotInto(snap, epochs[:0])
		probe := cost.NewSparseLoad(sc.NumAgents())
		probe.CopyFrom(final[0])
		probe.AddAt(0, 5, 5, 0, 1)
		if res := sl.CommitDelta(probe, final[0], epochs, &route); res != Infeasible {
			t.Fatalf("shards=%d: commit onto a zero-scaled agent returned %v, want Infeasible", shards, res)
		}
		t.Logf("shards=%d: %d workers, %d commits under scale churn", shards, workers, totalCommits)
	}
}
