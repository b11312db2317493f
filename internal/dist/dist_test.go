package dist

import (
	"context"
	"sync"
	"testing"
	"time"

	"vconf/internal/assign"
	"vconf/internal/baseline"
	"vconf/internal/core"
	"vconf/internal/cost"
	"vconf/internal/model"
	"vconf/internal/workload"
)

func distStack(t testing.TB, seed int64) (*cost.Evaluator, *assign.Assignment) {
	t.Helper()
	wl := workload.Prototype(seed)
	wl.NumUsers = 16
	sc, err := workload.Generate(wl)
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
	return ev, a
}

// TestCoordinatorRunnersEndToEnd runs one runner per session against a
// coordinator over the pipe network: the runs must commit moves, never
// worsen the objective and end feasible.
func TestCoordinatorRunnersEndToEnd(t *testing.T) {
	coord, pn := pipeCoordinator(t, 1, Config{})
	ev := coord.ev
	initial := ev.TotalObjective(coord.Assignment())

	cfg := core.DefaultConfig(1)
	cfg.MeanCountdownS = 1
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	sc := ev.Scenario()
	var wg sync.WaitGroup
	hops := make([]int, sc.NumSessions())
	for s := 0; s < sc.NumSessions(); s++ {
		r, err := NewRunner(ev, model.SessionID(s), cfg)
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(i int, r *Runner) {
			defer wg.Done()
			n, err := r.Run(ctx, pn.Dial, 10)
			if err != nil {
				t.Errorf("runner %d: %v", i, err)
			}
			hops[i] = n
		}(s, r)
	}
	wg.Wait()

	total := 0
	for _, h := range hops {
		total += h
	}
	st := coord.Stats()
	if total == 0 || st.Commits+st.Stays+st.Rejects != total || st.Grants != total {
		t.Fatalf("hops=%d but stats %+v", total, st)
	}
	if st.Commits == 0 {
		t.Fatalf("no hop migrated: %+v", st)
	}

	final := coord.Assignment()
	if phi := ev.TotalObjective(final); phi > initial {
		t.Fatalf("protocol worsened the objective: %v → %v", initial, phi)
	}
	if err := ev.CheckFeasible(final); err != nil {
		t.Fatalf("authoritative assignment infeasible: %v", err)
	}
}

func TestCoordinatorRejectsIncompleteAssignment(t *testing.T) {
	ev, _ := distStack(t, 2)
	pn := newPipeNet()
	if _, err := NewCoordinator(ev, assign.New(ev.Scenario()), pn, Config{}); err == nil {
		t.Fatal("incomplete assignment accepted")
	}
	if _, err := pn.Dial(context.Background()); err == nil {
		t.Fatal("a failed constructor left its listener open")
	}
}

func TestRunnerValidation(t *testing.T) {
	ev, _ := distStack(t, 3)
	if _, err := NewRunner(ev, -1, core.DefaultConfig(3)); err == nil {
		t.Fatal("negative session accepted")
	}
	bad := core.DefaultConfig(3)
	bad.Beta = -1
	if _, err := NewRunner(ev, 0, bad); err == nil {
		t.Fatal("invalid config accepted")
	}
}

func TestRunnerCleanStopOnContext(t *testing.T) {
	coord, pn := pipeCoordinator(t, 4, Config{})
	cfg := core.DefaultConfig(4)
	cfg.MeanCountdownS = 1000 // countdown far beyond the context deadline
	r, err := NewRunner(coord.ev, 0, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	hops, err := r.Run(ctx, pn.Dial, 100)
	if err != nil {
		t.Fatalf("context stop surfaced as error: %v", err)
	}
	if hops != 0 {
		t.Fatalf("hops = %d before any countdown elapsed", hops)
	}
}
