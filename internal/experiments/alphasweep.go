package experiments

import (
	"errors"
	"fmt"

	"vconf/internal/agrank"
	"vconf/internal/assign"
	"vconf/internal/baseline"
	"vconf/internal/core"
	"vconf/internal/cost"
	"vconf/internal/model"
	"vconf/internal/stats"
	"vconf/internal/workload"
)

// AlphaCase is one objective-weight column of Table II.
type AlphaCase struct {
	Name   string
	Params cost.Params
}

// AlphaCases returns the paper's three columns: delay-only (α2 = 0),
// balanced (α1 = α2), traffic-only (α1 = 0).
func AlphaCases() []AlphaCase {
	return []AlphaCase{
		{Name: "a2=0 (delay only)", Params: cost.DelayOnlyParams()},
		{Name: "a1=a2", Params: cost.DefaultParams()},
		{Name: "a1=0 (traffic only)", Params: cost.TrafficOnlyParams()},
	}
}

// SweepConfig drives the Table II / Fig. 8 experiment: many random
// Internet-scale scenarios, each bootstrapped by Nrst and AgRank and then
// optimized by Alg. 1 under each α setting.
type SweepConfig struct {
	Seed         int64
	NumScenarios int     // paper: 100
	DurationS    float64 // Alg. 1 virtual run length per scenario
	// Workload generates per-scenario configs from a seed; nil selects
	// workload.LargeScale.
	Workload func(seed int64) workload.Config
}

// SweepCell accumulates per-scenario observations for one (init, case) pair.
type SweepCell struct {
	Traffic []float64
	Delay   []float64
}

// AlphaSweepResult holds every cell of Table II plus the per-scenario delay
// distributions Fig. 8 box-plots.
type AlphaSweepResult struct {
	Inits   []string
	Columns []string // "Init" followed by the α cases
	// Cells is keyed "init|column".
	Cells map[string]*SweepCell
	// Completed counts scenarios where every bootstrap succeeded; Skipped
	// counts scenarios dropped because some policy could not admit all
	// sessions (only relevant under tight capacities).
	Completed int
	Skipped   int
}

func cellKey(init, column string) string { return init + "|" + column }

// Cell returns the named cell (nil if absent).
func (r *AlphaSweepResult) Cell(init, column string) *SweepCell {
	return r.Cells[cellKey(init, column)]
}

// RunAlphaSweep executes the sweep.
func RunAlphaSweep(cfg SweepConfig) (*AlphaSweepResult, error) {
	if cfg.NumScenarios < 1 {
		return nil, fmt.Errorf("alphasweep: need at least one scenario")
	}
	if cfg.DurationS <= 0 {
		return nil, fmt.Errorf("alphasweep: non-positive duration")
	}
	wlOf := cfg.Workload
	if wlOf == nil {
		wlOf = workload.LargeScale
	}
	inits := []InitPolicy{Nrst(), AgRank(2)}
	cases := AlphaCases()

	res := &AlphaSweepResult{
		Columns: []string{"Init"},
		Cells:   make(map[string]*SweepCell),
	}
	for _, ip := range inits {
		res.Inits = append(res.Inits, ip.Name)
	}
	for _, c := range cases {
		res.Columns = append(res.Columns, c.Name)
	}
	for _, ip := range inits {
		for _, col := range res.Columns {
			res.Cells[cellKey(ip.Name, col)] = &SweepCell{}
		}
	}

	// The bootstrap feasibility and the reported traffic/delay metrics are
	// α-independent; measure them with the balanced evaluator.
	measureParams := cost.DefaultParams()

	for i := 0; i < cfg.NumScenarios; i++ {
		seed := cfg.Seed + int64(i)*1013
		sc, err := workload.Generate(wlOf(seed))
		if err != nil {
			return nil, fmt.Errorf("alphasweep: scenario %d: %w", i, err)
		}
		measureEv, err := cost.NewEvaluator(sc, measureParams)
		if err != nil {
			return nil, err
		}

		type bootres struct {
			policy InitPolicy
			a      *assign.Assignment
		}
		var boots []bootres
		failed := false
		for _, ip := range inits {
			a, _, err := ip.BootstrapAll(sc, measureParams)
			if err != nil {
				if errors.Is(err, baseline.ErrInfeasible) || errors.Is(err, agrank.ErrInfeasible) {
					failed = true
					break
				}
				return nil, fmt.Errorf("alphasweep: scenario %d %s: %w", i, ip.Name, err)
			}
			boots = append(boots, bootres{policy: ip, a: a})
		}
		if failed {
			res.Skipped++
			continue
		}
		res.Completed++

		for _, br := range boots {
			rep := measureEv.ReportSystem(br.a)
			initCell := res.Cell(br.policy.Name, "Init")
			initCell.Traffic = append(initCell.Traffic, rep.InterTraffic)
			initCell.Delay = append(initCell.Delay, rep.MeanDelayMS)

			for _, ac := range cases {
				final, err := optimizeFrom(sc, br.a, ac.Params, cfg.DurationS, seed)
				if err != nil {
					return nil, fmt.Errorf("alphasweep: scenario %d %s %s: %w",
						i, br.policy.Name, ac.Name, err)
				}
				frep := measureEv.ReportSystem(final)
				cell := res.Cell(br.policy.Name, ac.Name)
				cell.Traffic = append(cell.Traffic, frep.InterTraffic)
				cell.Delay = append(cell.Delay, frep.MeanDelayMS)
			}
		}
	}
	return res, nil
}

// optimizeFrom runs Alg. 1 for durationS virtual seconds starting from the
// given complete assignment, under the given objective parameters.
func optimizeFrom(sc *model.Scenario, start *assign.Assignment, p cost.Params, durationS float64, seed int64) (*assign.Assignment, error) {
	ev, err := cost.NewEvaluator(sc, p)
	if err != nil {
		return nil, err
	}
	eng, err := core.NewEngine(ev, core.DefaultConfig(seed))
	if err != nil {
		return nil, err
	}
	boot := SnapshotBootstrapper(start, p)
	for s := 0; s < sc.NumSessions(); s++ {
		if err := eng.ActivateSession(model.SessionID(s), boot); err != nil {
			return nil, err
		}
	}
	if _, err := eng.Run(durationS, 0); err != nil {
		return nil, err
	}
	return eng.Assignment(), nil
}

// SnapshotBootstrapper replays a precomputed assignment session by session —
// used to start Alg. 1 runs from an existing bootstrap without recomputing
// it for every α case.
func SnapshotBootstrapper(src *assign.Assignment, p cost.Params) core.Bootstrapper {
	return func(a *assign.Assignment, s model.SessionID, ledger cost.LedgerAPI) error {
		sc := a.Scenario()
		for _, u := range sc.Session(s).Users {
			a.SetUserAgent(u, src.UserAgent(u))
		}
		for _, f := range a.SessionFlows(s) {
			m, ok := src.FlowAgent(f)
			if !ok {
				return fmt.Errorf("experiments: snapshot missing flow %d→%d", f.Src, f.Dst)
			}
			if err := a.SetFlowAgent(f, m); err != nil {
				return err
			}
		}
		scr := cost.GetScratch()
		defer cost.PutScratch(scr)
		if !ledger.TryAdd(p.SessionLoadSparse(a, s, scr)) {
			return fmt.Errorf("experiments: snapshot session %d no longer fits capacity", s)
		}
		return nil
	}
}

// Table2Rows renders the sweep as the paper's Table II: mean traffic and
// delay per (init, column).
func (r *AlphaSweepResult) Table2Rows() []string {
	rows := []string{fmt.Sprintf("table2 | %d scenarios completed, %d skipped (infeasible bootstrap)",
		r.Completed, r.Skipped)}
	for _, init := range r.Inits {
		for _, metric := range []string{"Traffic", "Delay"} {
			line := fmt.Sprintf("table2 | %-8s %-7s", init, metric)
			for _, col := range r.Columns {
				cell := r.Cell(init, col)
				var v float64
				if metric == "Traffic" {
					v = stats.Mean(cell.Traffic)
				} else {
					v = stats.Mean(cell.Delay)
				}
				line += fmt.Sprintf(" | %-20s %8.1f", col, v)
			}
			rows = append(rows, line)
		}
	}
	// Headline ratios of the paper: traffic/delay reduction of Alg. 1
	// (α1=α2) relative to plain Nrst.
	nrstInit := r.Cell("Nrst", "Init")
	if len(nrstInit.Traffic) > 0 {
		baseT := stats.Mean(nrstInit.Traffic)
		baseD := stats.Mean(nrstInit.Delay)
		for _, init := range r.Inits {
			cell := r.Cell(init, "a1=a2")
			if len(cell.Traffic) == 0 {
				continue
			}
			rows = append(rows, fmt.Sprintf(
				"table2 | headline: Alg1(init=%s, a1=a2) vs Nrst: traffic %+.0f%%, delay %+.0f%% (paper: -42%%/-10%% Nrst-init, -77%%/-2%% AgRank-init)",
				init,
				100*(stats.Mean(cell.Traffic)/baseT-1),
				100*(stats.Mean(cell.Delay)/baseD-1)))
		}
	}
	return rows
}

// Fig8Rows renders the per-scenario conferencing-delay box plots.
func (r *AlphaSweepResult) Fig8Rows() []string {
	var rows []string
	for _, init := range r.Inits {
		for _, col := range r.Columns {
			cell := r.Cell(init, col)
			if len(cell.Delay) == 0 {
				continue
			}
			rows = append(rows, fmt.Sprintf("fig8 | %-8s %-20s delay box %s ms",
				init, col, stats.Summarize(cell.Delay)))
		}
	}
	return rows
}
