package cost_test

import (
	"math"
	"math/rand"
	"testing"

	"vconf/internal/assign"
	"vconf/internal/baseline"
	"vconf/internal/core"
	"vconf/internal/cost"
	"vconf/internal/model"
	"vconf/internal/workload"
)

// TestSparsePrimitivesMatchDense: along a live chain trajectory (one
// core.HopSessionWith per step over the prototype workload), every session's
// load — on a caller's scratch and through SessionLoadOf — and its report
// equal the map-based reference bit for bit, state by state.
func TestSparsePrimitivesMatchDense(t *testing.T) {
	sc, err := workload.Generate(workload.Prototype(11))
	if err != nil {
		t.Fatal(err)
	}
	ev, err := cost.NewEvaluator(sc, cost.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	p := ev.Params()
	a := assign.New(sc)
	ledger := cost.NewLedger(sc)
	for s := 0; s < sc.NumSessions(); s++ {
		if err := baseline.AssignSessionNearest(a, model.SessionID(s), p, ledger); err != nil {
			t.Fatal(err)
		}
	}
	scr := ev.NewScratch()
	rng := rand.New(rand.NewSource(13))
	cfg := core.DefaultConfig(13)
	hop := core.NewHopScratch(ev)
	moved := 0
	for i := 0; i < 120; i++ {
		s := model.SessionID(i % sc.NumSessions())
		down, up, inter, tasks := cost.DenseSessionLoad(p, a, s)
		for what, sl := range map[string]*cost.SparseLoad{
			"scratch":       ev.SessionLoadSparse(a, s, scr),
			"SessionLoadOf": p.SessionLoadOf(a, s),
		} {
			for l := range down {
				d, u, x, k := sl.At(model.AgentID(l))
				if math.Float64bits(d) != math.Float64bits(down[l]) || math.Float64bits(u) != math.Float64bits(up[l]) ||
					math.Float64bits(x) != math.Float64bits(inter[l]) || k != tasks[l] {
					t.Fatalf("step %d session %d (%s): load differs from the reference at agent %d", i, s, what, l)
				}
			}
		}
		got, want := ev.ReportSession(a, s), cost.DenseReportSession(ev, a, s)
		if got != want {
			t.Fatalf("step %d session %d: reports differ:\nkernel:    %+v\nreference: %+v", i, s, got, want)
		}
		res, err := core.HopSessionWith(a, s, ev, ledger, cfg, rng, hop)
		if err != nil {
			t.Fatal(err)
		}
		if res.Moved {
			moved++
		}
	}
	if moved == 0 {
		t.Fatal("no hop migrated; the walk compared one state only")
	}
}
