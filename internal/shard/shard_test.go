package shard

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"vconf/internal/assign"
	"vconf/internal/baseline"
	"vconf/internal/cost"
	"vconf/internal/model"
	"vconf/internal/workload"
)

// fixture builds a bootstrapped fleet scenario with per-session sparse
// loads ready for commit traffic.
func fixture(t testing.TB, agents, users int, seed int64) (*model.Scenario, *cost.Evaluator, []*cost.SparseLoad) {
	t.Helper()
	fc := workload.DefaultFleetConfig(seed)
	fc.NumAgents = agents
	fc.NumUsers = users
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
	if err := baseline.Assign(a, p, cost.NewLedger(sc)); err != nil {
		t.Fatal(err)
	}
	scr := ev.NewScratch()
	loads := make([]*cost.SparseLoad, sc.NumSessions())
	for s := range loads {
		loads[s] = cost.NewSparseLoad(sc.NumAgents())
		loads[s].CopyFrom(ev.SessionLoadSparse(a, model.SessionID(s), scr))
	}
	return sc, ev, loads
}

// mutateLoad derives a perturbed copy of a load: same touched agents plus a
// few random ones, with jittered magnitudes — commit traffic that overlaps
// the original's shards and usually some others.
func mutateLoad(sc *model.Scenario, src *cost.SparseLoad, rng *rand.Rand) *cost.SparseLoad {
	l := model.AgentID(rng.Intn(sc.NumAgents()))
	out := cost.NewSparseLoad(sc.NumAgents())
	out.CopyFrom(src)
	out.AddAt(l, 2+10*rng.Float64(), 2+10*rng.Float64(), 0, 1)
	return out
}

// TestShardedMatchesDenseSequential replays one random operation sequence
// through the dense ledger and through sharded ledgers at several stripe
// counts: every usage vector and every feasibility answer must be
// bit-identical — the exactness contract all shard counts share.
func TestShardedMatchesDenseSequential(t *testing.T) {
	sc, _, loads := fixture(t, 50, 40, 1)
	dense := cost.NewLedger(sc)
	shardCounts := []int{1, 3, 8, 50, 200}
	sharded := make([]*Ledger, len(shardCounts))
	for i, p := range shardCounts {
		sharded[i] = New(sc, p)
	}
	all := func(f func(g cost.LedgerAPI)) {
		f(dense)
		for _, sl := range sharded {
			f(sl)
		}
	}

	rng := rand.New(rand.NewSource(7))
	cur := make([]*cost.SparseLoad, len(loads))
	for s, load := range loads {
		all(func(g cost.LedgerAPI) { g.Add(load) })
		cur[s] = load
	}
	for step := 0; step < 300; step++ {
		s := rng.Intn(len(loads))
		cand := mutateLoad(sc, cur[s], rng)
		// Degrade a random agent occasionally so repair semantics get hit.
		if step%37 == 0 {
			l := model.AgentID(rng.Intn(sc.NumAgents()))
			all(func(g cost.LedgerAPI) {
				if err := g.SetCapacityScale(l, 0.5); err != nil {
					t.Fatal(err)
				}
			})
		}
		// The per-stripe range checks CommitDelta runs, over each
		// stripe's partition, against the whole-fleet check.
		wantFits := dense.FitsRepairDelta(cand, cur[s])
		for i, sl := range sharded {
			got := true
			for si := range sl.shards {
				got = got && sl.inner.RepairRefusalRange(cand, cur[s], int(sl.bounds[si]), int(sl.bounds[si+1])) < 0
			}
			if got != wantFits {
				t.Fatalf("step %d: %d-shard range checks = %v, dense FitsRepairDelta = %v", step, shardCounts[i], got, wantFits)
			}
		}
		// Dense path applies the same swap sequence the pipeline would.
		dense.Remove(cur[s])
		if wantFits {
			dense.Add(cand)
		} else {
			dense.Add(cur[s])
		}
		for i, sl := range sharded {
			var r Route
			snap := sl.SnapshotInto(cost.NewLedger(sc), nil)
			res := sl.CommitDelta(cand, cur[s], snap, &r)
			if wantFits != (res == Committed) {
				t.Fatalf("step %d: %d-shard commit = %v, dense fits = %v", step, shardCounts[i], res, wantFits)
			}
			if !wantFits && res != Infeasible {
				t.Fatalf("step %d: sequential rejection classified %v, want infeasible", step, res)
			}
		}
		if wantFits {
			cur[s] = cand
		}

		wantDown, wantUp, wantTasks := dense.Usage()
		for i, sl := range sharded {
			gotDown, gotUp, gotTasks := sl.Usage()
			for l := range wantDown {
				if gotDown[l] != wantDown[l] || gotUp[l] != wantUp[l] || gotTasks[l] != wantTasks[l] {
					t.Fatalf("step %d: %d-shard usage diverged at agent %d: (%v %v %d) != (%v %v %d)",
						step, shardCounts[i], l,
						gotDown[l], gotUp[l], gotTasks[l], wantDown[l], wantUp[l], wantTasks[l])
				}
				if d, u, k := sl.UsageAt(model.AgentID(l)); d != wantDown[l] || u != wantUp[l] || k != wantTasks[l] {
					t.Fatalf("step %d: %d-shard UsageAt(%d) = (%v %v %d), Usage has (%v %v %d)",
						step, shardCounts[i], l, d, u, k, wantDown[l], wantUp[l], wantTasks[l])
				}
			}
		}
	}
	// Violations agree too (degradations above made some agents overfull).
	want := dense.Violations()
	for i, sl := range sharded {
		got := sl.Violations()
		if len(got) != len(want) {
			t.Fatalf("%d-shard violations %v, dense %v", shardCounts[i], got, want)
		}
		for j := range want {
			if got[j] != want[j] {
				t.Fatalf("%d-shard violations %v, dense %v", shardCounts[i], got, want)
			}
		}
	}
}

// TestShardRouting pins the deterministic ID-range partition and routing.
func TestShardRouting(t *testing.T) {
	sc, _, loads := fixture(t, 10, 12, 2)
	sl := New(sc, 4)
	if sl.NumShards() != 4 {
		t.Fatalf("NumShards = %d", sl.NumShards())
	}
	// Ranges are contiguous, cover [0, L), and balanced within one agent.
	covered := 0
	for i := 0; i < sl.NumShards(); i++ {
		lo, hi := sl.Bounds(i)
		if lo != covered {
			t.Fatalf("shard %d starts at %d, want %d", i, lo, covered)
		}
		if n := hi - lo; n < 2 || n > 3 {
			t.Fatalf("shard %d holds %d agents, want 2 or 3", i, n)
		}
		for a := lo; a < hi; a++ {
			if sl.ShardOf(model.AgentID(a)) != i {
				t.Fatalf("agent %d routed to shard %d, want %d", a, sl.ShardOf(model.AgentID(a)), i)
			}
		}
		covered = hi
	}
	if covered != sc.NumAgents() {
		t.Fatalf("shards cover %d agents, want %d", covered, sc.NumAgents())
	}
	// Clamping: more shards than agents degrades to one agent per shard.
	if got := New(sc, 99).NumShards(); got != sc.NumAgents() {
		t.Fatalf("overprovisioned shard count %d, want %d", got, sc.NumAgents())
	}
	if got := New(sc, 0).NumShards(); got != 1 {
		t.Fatalf("zero shard count %d, want 1", got)
	}
	_ = loads
}

// TestShardConcurrentCommitStorm drives ≥8 workers through same-shard and
// cross-shard conflict storms under -race: every worker loops
// snapshot → mutate → commit on its own session against finite capacities,
// and the invariant checker requires that final usage equals exactly the
// sum of each session's last-committed load (no lost, duplicated, or torn
// commit) and that no capacity is overshot.
func TestShardConcurrentCommitStorm(t *testing.T) {
	fc := workload.DefaultFleetConfig(3)
	fc.NumAgents = 16 // few agents × many workers ⇒ dense shard overlap
	fc.NumUsers = 64
	fc.Regions = 4 // regional mode: finite skewed capacities ⇒ real rejects
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
	// Best-effort admission: Nrst is resource-oblivious and the regional
	// capacities are tight, so some sessions may not fit — storm over the
	// admitted ones.
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
		// Account every admitted session, then let each worker churn its
		// own load.
		initial := make([]*cost.SparseLoad, workers)
		for i, s := range admitted {
			initial[i] = cost.NewSparseLoad(sc.NumAgents())
			initial[i].CopyFrom(ev.SessionLoadSparse(a, s, scr))
			sl.Add(initial[i])
		}

		final := make([]*cost.SparseLoad, workers)
		var commits, conflicts, infeasible [64]int
		var wg sync.WaitGroup
		for wkr := 0; wkr < workers; wkr++ {
			wg.Add(1)
			go func(wkr int) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(int64(1000 + wkr)))
				snap := cost.NewLedger(sc)
				var epochs Epochs
				var route Route
				cur := initial[wkr]
				for iter := 0; iter < 200; iter++ {
					epochs = sl.SnapshotInto(snap, epochs[:0])
					cand := mutateLoad(sc, cur, rng)
					switch sl.CommitDelta(cand, cur, epochs, &route) {
					case Committed:
						cur = cand
						commits[wkr]++
					case Conflict:
						conflicts[wkr]++
					case Infeasible:
						infeasible[wkr]++
					}
				}
				final[wkr] = cur
			}(wkr)
		}
		wg.Wait()

		// Invariant 1: no session lost or duplicated — usage is exactly the
		// sum of the last-committed loads. Tasks are integers (exact); the
		// bandwidth components were accumulated in commit order, so allow
		// float-accumulation slack.
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
		totalCommits, totalConflicts := 0, 0
		for w := 0; w < workers; w++ {
			totalCommits += commits[w]
			totalConflicts += conflicts[w]
		}
		if totalCommits == 0 {
			t.Fatalf("shards=%d: storm committed nothing", shards)
		}
		t.Logf("shards=%d: %d workers, %d commits, %d conflicts", shards, workers, totalCommits, totalConflicts)
	}
}

// TestShardCommitHotPathAllocs pins the commit hot path
// (snapshot → route → commit) to zero allocations at steady state.
func TestShardCommitHotPathAllocs(t *testing.T) {
	sc, ev, loads := fixture(t, 64, 40, 4)
	sl := New(sc, 8)
	for _, load := range loads {
		sl.Add(load)
	}
	snap := cost.NewLedger(sc)
	var epochs Epochs
	var route Route
	cur := loads[0]
	_ = ev
	res := testing.Benchmark(func(b *testing.B) {
		for n := 0; n < b.N; n++ {
			epochs = sl.SnapshotInto(snap, epochs[:0])
			if r := sl.CommitDelta(cur, cur, epochs, &route); r != Committed {
				b.Fatalf("commit = %v", r)
			}
		}
	})
	if allocs := res.AllocsPerOp(); allocs != 0 {
		t.Errorf("shard commit hot path allocates %d allocs/op, want 0", allocs)
	}
}

// BenchmarkShardCommit measures the commit pipeline alone: route + stripe
// locks + per-shard validation + apply, on a 100-agent fleet.
// "serial" is one committer; "contended" hammers the pipeline from
// GOMAXPROCS goroutines committing different sessions — the case stripe
// locking exists for.
func BenchmarkShardCommit(b *testing.B) {
	for _, shards := range []int{1, 8} {
		sc, ev, loads := fixture(b, 100, 60, 5)
		_ = ev
		sl := New(sc, shards)
		for _, load := range loads {
			sl.Add(load)
		}
		name := map[int]string{1: "serial/shards=1", 8: "serial/shards=8"}[shards]
		b.Run(name, func(b *testing.B) {
			snap := cost.NewLedger(sc)
			var epochs Epochs
			var route Route
			cur := loads[0]
			b.ReportAllocs()
			b.ResetTimer()
			for n := 0; n < b.N; n++ {
				epochs = sl.SnapshotInto(snap, epochs[:0])
				if r := sl.CommitDelta(cur, cur, epochs, &route); r != Committed {
					b.Fatalf("commit = %v", r)
				}
			}
		})
	}
	for _, shards := range []int{1, 8} {
		sc, ev, loads := fixture(b, 100, 60, 6)
		_ = ev
		sl := New(sc, shards)
		for _, load := range loads {
			sl.Add(load)
		}
		b.Run(map[int]string{1: "contended/shards=1", 8: "contended/shards=8"}[shards], func(b *testing.B) {
			var next atomic.Int64
			b.RunParallel(func(pb *testing.PB) {
				// Each goroutine commits a different session's load in
				// place: mostly-disjoint routes under high stripe pressure.
				cur := loads[int(next.Add(1))%len(loads)]
				snap := cost.NewLedger(sc)
				var epochs Epochs
				var route Route
				for pb.Next() {
					epochs = sl.SnapshotInto(snap, epochs[:0])
					if r := sl.CommitDelta(cur, cur, epochs, &route); r != Committed {
						b.Fatalf("commit = %v", r)
					}
				}
			})
		})
	}
}

// tryAddFixture builds a finite-capacity scenario plus a fabricated load on
// every agent, sized so each agent absorbs only a few copies — the admission
// shape TryAdd exists for.
func tryAddFixture(t testing.TB) (*model.Scenario, *cost.SparseLoad) {
	t.Helper()
	wl := workload.Prototype(17)
	wl.MeanBandwidthMbps = 100 // per-agent caps land in [70, 130]
	wl.MeanTranscodeSlots = 40
	sc, err := workload.Generate(wl)
	if err != nil {
		t.Fatal(err)
	}
	load := cost.NewSparseLoad(sc.NumAgents())
	for l := 0; l < sc.NumAgents(); l++ {
		load.AddAt(model.AgentID(l), 30, 30, 0, 1)
	}
	return sc, load
}

// TestShardTryAddMatchesDense pins TryAdd semantics against the dense
// reference: copy-for-copy identical admission decisions, identical usage,
// and a refused TryAdd leaves the ledger untouched.
func TestShardTryAddMatchesDense(t *testing.T) {
	sc, load := tryAddFixture(t)
	for _, shards := range []int{1, 4} {
		dense := cost.NewLedger(sc)
		sl := New(sc, shards)
		admitted := 0
		for i := 0; i < 16; i++ {
			okD := dense.TryAdd(load)
			okS := sl.TryAdd(load)
			if okD != okS {
				t.Fatalf("shards=%d copy %d: dense %v, sharded %v", shards, i, okD, okS)
			}
			if okD {
				admitted++
			}
		}
		if admitted == 0 || admitted == 16 {
			t.Fatalf("shards=%d fixture never gated: admitted %d/16", shards, admitted)
		}
		dDown, dUp, dTasks := dense.Usage()
		sDown, sUp, sTasks := sl.Usage()
		for l := 0; l < sc.NumAgents(); l++ {
			if dDown[l] != sDown[l] || dUp[l] != sUp[l] || dTasks[l] != sTasks[l] {
				t.Fatalf("shards=%d agent %d usage diverged after refusals", shards, l)
			}
		}
		if !sl.Fits(nil) {
			t.Fatalf("shards=%d TryAdd overshot capacity: %v", shards, sl.Violations())
		}
	}
}

// TestShardTryAddAtomicStorm hammers TryAdd/Remove from many goroutines:
// because the check and the add share one critical section, the ledger must
// be capacity-feasible at every instant — concurrent committers and
// admissions can never interleave into an overshoot. Run under -race in CI.
func TestShardTryAddAtomicStorm(t *testing.T) {
	sc, load := tryAddFixture(t)
	sl := New(sc, 5)
	const workers = 12
	const iters = 300
	var wg sync.WaitGroup
	fail := atomic.Bool{}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				if sl.TryAdd(load) {
					// A successful admission can never leave the ledger
					// infeasible, and later TryAdds only admit what fits, so
					// feasibility must hold at every observation point.
					if !sl.Fits(nil) {
						fail.Store(true)
						return
					}
					sl.Remove(load)
				}
			}
		}()
	}
	wg.Wait()
	if fail.Load() {
		t.Fatalf("TryAdd admitted past capacity under contention: %v", sl.Violations())
	}
	if !sl.Fits(nil) {
		t.Fatal("storm left the ledger infeasible")
	}
	down, up, tasks := sl.Usage()
	for l := range down {
		if down[l] != 0 || up[l] != 0 || tasks[l] != 0 {
			t.Fatalf("storm leaked usage at agent %d: %v/%v/%d", l, down[l], up[l], tasks[l])
		}
	}
}

// ShardOf returns the shard index guarding agent l.
func (sl *Ledger) ShardOf(l model.AgentID) int { return int(sl.shardOf[l]) }

// Bounds returns the agent range [lo, hi) of shard i.
func (sl *Ledger) Bounds(i int) (lo, hi int) {
	return int(sl.bounds[i]), int(sl.bounds[i+1])
}
