package experiments

import (
	"fmt"

	"vconf/internal/anneal"
	"vconf/internal/assign"
	"vconf/internal/baseline"
	"vconf/internal/cost"
	"vconf/internal/stats"
	"vconf/internal/workload"
)

// SolverCompareConfig drives the solver-comparison ablation (§IV-A-3 of the
// paper argues Markov approximation over simulated annealing and plain local
// search; this experiment quantifies the comparison on identical workloads
// from identical Nrst starts).
type SolverCompareConfig struct {
	Seed         int64
	NumScenarios int
	// DurationS is the Markov engine's virtual horizon per scenario.
	DurationS float64
	// AnnealIterations sizes the simulated-annealing budget.
	AnnealIterations int
	Workload         func(seed int64) workload.Config
}

// SolverCompareResult holds per-solver objective/traffic/delay means.
type SolverCompareResult struct {
	Solvers []string
	// Objective[i], Traffic[i], Delay[i] are per-scenario vectors for
	// Solvers[i].
	Objective [][]float64
	Traffic   [][]float64
	Delay     [][]float64
}

// RunSolverCompare executes the comparison: Nrst start (reported as its own
// row), greedy best-response descent, simulated annealing, Markov
// approximation (Alg. 1), and the single-agent topology-control baseline.
func RunSolverCompare(cfg SolverCompareConfig) (*SolverCompareResult, error) {
	if cfg.NumScenarios < 1 || cfg.DurationS <= 0 || cfg.AnnealIterations < 1 {
		return nil, fmt.Errorf("solvercompare: invalid config")
	}
	wlOf := cfg.Workload
	if wlOf == nil {
		wlOf = workload.LargeScale
	}
	p := cost.DefaultParams()
	names := []string{"Nrst-start", "Greedy", "Anneal", "Alg1-Markov", "SingleAgent"}

	res := &SolverCompareResult{
		Solvers:   names,
		Objective: make([][]float64, len(names)),
		Traffic:   make([][]float64, len(names)),
		Delay:     make([][]float64, len(names)),
	}
	record := func(i int, ev *cost.Evaluator, a *assign.Assignment) {
		rep := ev.ReportSystem(a)
		res.Objective[i] = append(res.Objective[i], rep.Objective)
		res.Traffic[i] = append(res.Traffic[i], rep.InterTraffic)
		res.Delay[i] = append(res.Delay[i], rep.MeanDelayMS)
	}

	for i := 0; i < cfg.NumScenarios; i++ {
		seed := cfg.Seed + int64(i)*4099
		sc, err := workload.Generate(wlOf(seed))
		if err != nil {
			return nil, err
		}
		ev, err := cost.NewEvaluator(sc, p)
		if err != nil {
			return nil, err
		}
		start := assign.New(sc)
		if err := baseline.Assign(start, p, cost.NewLedger(sc)); err != nil {
			return nil, fmt.Errorf("solvercompare: scenario %d: %w", i, err)
		}
		record(0, ev, start)

		greedy, err := anneal.GreedyDescent(ev, start, anneal.DefaultGreedyConfig())
		if err != nil {
			return nil, err
		}
		record(1, ev, greedy.Assignment)

		aCfg := anneal.DefaultAnnealConfig(seed)
		aCfg.Iterations = cfg.AnnealIterations
		sa, err := anneal.SimulatedAnnealing(ev, start, aCfg)
		if err != nil {
			return nil, err
		}
		record(2, ev, sa.Assignment)

		markov, err := optimizeFrom(sc, start, p, cfg.DurationS, seed)
		if err != nil {
			return nil, err
		}
		record(3, ev, markov)

		single := assign.New(sc)
		if err := baseline.AssignSingleAgent(single, p, cost.NewLedger(sc)); err != nil {
			// Single-agent placement can be infeasible under tight delay
			// caps; record the Nrst values so vectors stay aligned.
			record(4, ev, start)
			continue
		}
		record(4, ev, single)
	}
	return res, nil
}

// Rows renders the comparison table.
func (r *SolverCompareResult) Rows() []string {
	rows := []string{"solvers | mean objective / inter-agent traffic (Mbps) / delay (ms), identical Nrst starts"}
	for i, name := range r.Solvers {
		rows = append(rows, fmt.Sprintf("solvers | %-12s Φ=%9.1f traffic=%8.1f delay=%6.1f",
			name, stats.Mean(r.Objective[i]), stats.Mean(r.Traffic[i]), stats.Mean(r.Delay[i])))
	}
	return rows
}
