package cost

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"vconf/internal/assign"
	"vconf/internal/model"
)

// TestEvaluatorConcurrentUse: the Evaluator is documented safe for
// concurrent use, and its objective and report methods draw scratches from a
// process-wide pool. Eight goroutines call SessionObjective, ReportSession
// and CheckFeasible on one evaluator — every goroutine over every session
// (shared), and each over one session of its own choosing (distinct) — and
// every answer must equal the serial one, which itself equals the reference.
func TestEvaluatorConcurrentUse(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	sc := nonDyadicScenario(t, rng, false)
	ev, err := NewEvaluator(sc, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	a := randomComplete(sc, rng)
	S := sc.NumSessions()
	phis := make([]float64, S)
	reps := make([]SessionReport, S)
	for s := range reps {
		sid := model.SessionID(s)
		reps[s] = ev.ReportSession(a, sid)
		phis[s] = ev.SessionObjective(a, sid)
		sameReport(t, fmt.Sprintf("serial session %d", s), reps[s], reportSessionDense(ev, a, sid))
		sameBits(t, fmt.Sprintf("serial session %d Φ", s), phis[s], reps[s].Objective)
	}
	feasible := fmt.Sprint(ev.CheckFeasible(a))

	const workers = 8
	errs := make(chan error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			errs <- evaluateConcurrently(ev, a, w, phis, reps, feasible)
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}

// evaluateConcurrently is one goroutine of TestEvaluatorConcurrentUse.
func evaluateConcurrently(ev *Evaluator, a *assign.Assignment, w int,
	phis []float64, reps []SessionReport, feasible string) error {
	own := model.SessionID(w % len(reps))
	for iter := 0; iter < 100; iter++ {
		for s := range reps {
			sid := model.SessionID(s)
			if iter%2 == 1 {
				sid = own
			}
			if got := ev.SessionObjective(a, sid); got != phis[sid] {
				return fmt.Errorf("worker %d session %d: Φ %v, serial %v", w, sid, got, phis[sid])
			}
			if got := ev.ReportSession(a, sid); got != reps[sid] {
				return fmt.Errorf("worker %d session %d: report %+v, serial %+v", w, sid, got, reps[sid])
			}
		}
		if got := fmt.Sprint(ev.CheckFeasible(a)); got != feasible {
			return fmt.Errorf("worker %d: CheckFeasible %q, serial %q", w, got, feasible)
		}
	}
	return nil
}
