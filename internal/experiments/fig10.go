package experiments

import (
	"fmt"

	"vconf/internal/cost"
	"vconf/internal/stats"
	"vconf/internal/workload"
)

// Fig10Config drives the n_ngbr sensitivity experiment: the inter-agent
// traffic and conferencing delay of the AgRank *initial* assignment as the
// per-user candidate count grows from 1 (≡ Nrst) to L (whole session pulled
// toward one agent).
type Fig10Config struct {
	Seed         int64
	NumScenarios int
	NNgbrValues  []int
	Workload     func(seed int64) workload.Config
}

// Fig10Result holds mean traffic and delay per n_ngbr.
type Fig10Result struct {
	NNgbrValues []int
	TrafficMbps []float64
	DelayMS     []float64
	Skipped     []int // scenarios skipped per point (bootstrap infeasible)
}

// RunFig10 executes the sweep.
func RunFig10(cfg Fig10Config) (*Fig10Result, error) {
	if cfg.NumScenarios < 1 || len(cfg.NNgbrValues) == 0 {
		return nil, fmt.Errorf("fig10: invalid config")
	}
	wlOf := cfg.Workload
	if wlOf == nil {
		wlOf = workload.LargeScale
	}
	p := cost.DefaultParams()

	res := &Fig10Result{NNgbrValues: cfg.NNgbrValues}
	for _, nngbr := range cfg.NNgbrValues {
		var traffic, delay []float64
		skipped := 0
		for i := 0; i < cfg.NumScenarios; i++ {
			seed := cfg.Seed + int64(i)*3067
			sc, err := workload.Generate(wlOf(seed))
			if err != nil {
				return nil, err
			}
			if nngbr > sc.NumAgents() {
				return nil, fmt.Errorf("fig10: n_ngbr %d exceeds %d agents", nngbr, sc.NumAgents())
			}
			ev, err := cost.NewEvaluator(sc, p)
			if err != nil {
				return nil, err
			}
			a, _, err := AgRank(nngbr).BootstrapAll(sc, p)
			if err != nil {
				skipped++
				continue
			}
			rep := ev.ReportSystem(a)
			traffic = append(traffic, rep.InterTraffic)
			delay = append(delay, rep.MeanDelayMS)
		}
		res.TrafficMbps = append(res.TrafficMbps, stats.Mean(traffic))
		res.DelayMS = append(res.DelayMS, stats.Mean(delay))
		res.Skipped = append(res.Skipped, skipped)
	}
	return res, nil
}

// Rows renders the sweep.
func (r *Fig10Result) Rows() []string {
	rows := []string{"fig10 | AgRank initial assignment vs n_ngbr (n_ngbr=1 ≡ Nrst)"}
	for i, n := range r.NNgbrValues {
		rows = append(rows, fmt.Sprintf("fig10 | n_ngbr=%d traffic=%8.1f Mbps delay=%6.1f ms (skipped %d)",
			n, r.TrafficMbps[i], r.DelayMS[i], r.Skipped[i]))
	}
	return rows
}
