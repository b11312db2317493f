package experiments

import (
	"fmt"

	"vconf/internal/workload"
)

// Fig9Config drives the admission-success-rate experiment: how many random
// scenarios can be fully bootstrapped as one capacity dimension tightens,
// per policy (Nrst vs AgRank#2 vs AgRank#3).
type Fig9Config struct {
	Seed         int64
	NumScenarios int // paper: 100
	// BandwidthPointsMbps sweeps mean agent bandwidth with unlimited
	// transcoding capacity (Fig. 9a).
	BandwidthPointsMbps []float64
	// TranscodePoints sweeps mean transcoding slots with unlimited
	// bandwidth (Fig. 9b).
	TranscodePoints []int
	// Workload overrides the base workload generator (nil = LargeScale).
	Workload func(seed int64) workload.Config
}

// Fig9Result holds success percentages per policy and sweep point.
type Fig9Result struct {
	Policies []string
	// BandwidthSuccess[p][i] is the success share (0–1) of Policies[p] at
	// BandwidthPointsMbps[i]; TranscodeSuccess likewise.
	BandwidthPointsMbps []float64
	BandwidthSuccess    [][]float64
	TranscodePoints     []int
	TranscodeSuccess    [][]float64
}

// RunFig9 executes the sweep.
func RunFig9(cfg Fig9Config) (*Fig9Result, error) {
	if cfg.NumScenarios < 1 {
		return nil, fmt.Errorf("fig9: need at least one scenario")
	}
	wlOf := cfg.Workload
	if wlOf == nil {
		wlOf = workload.LargeScale
	}
	policies := []InitPolicy{AgRank(3), AgRank(2), Nrst()}

	res := &Fig9Result{
		BandwidthPointsMbps: cfg.BandwidthPointsMbps,
		TranscodePoints:     cfg.TranscodePoints,
	}
	for _, p := range policies {
		res.Policies = append(res.Policies, p.Name)
	}

	successShare := func(mut func(*workload.Config)) ([]float64, error) {
		shares := make([]float64, len(policies))
		for i := 0; i < cfg.NumScenarios; i++ {
			seed := cfg.Seed + int64(i)*2027
			wl := wlOf(seed)
			mut(&wl)
			sc, err := workload.Generate(wl)
			if err != nil {
				return nil, err
			}
			for pi, pol := range policies {
				p := AlphaCases()[1].Params // balanced objective; irrelevant to admission
				if _, _, err := pol.BootstrapAll(sc, p); err == nil {
					shares[pi]++
				}
			}
		}
		for pi := range shares {
			shares[pi] /= float64(cfg.NumScenarios)
		}
		return shares, nil
	}

	for _, bw := range cfg.BandwidthPointsMbps {
		shares, err := successShare(func(wl *workload.Config) {
			wl.MeanBandwidthMbps = bw
			wl.MeanTranscodeSlots = workload.UnlimitedSlots
		})
		if err != nil {
			return nil, fmt.Errorf("fig9a bw=%.0f: %w", bw, err)
		}
		res.BandwidthSuccess = append(res.BandwidthSuccess, shares)
	}
	for _, slots := range cfg.TranscodePoints {
		shares, err := successShare(func(wl *workload.Config) {
			wl.MeanBandwidthMbps = workload.UnlimitedMbps
			wl.MeanTranscodeSlots = slots
		})
		if err != nil {
			return nil, fmt.Errorf("fig9b slots=%d: %w", slots, err)
		}
		res.TranscodeSuccess = append(res.TranscodeSuccess, shares)
	}
	return res, nil
}

// Rows renders the two sweep tables.
func (r *Fig9Result) Rows() []string {
	rows := []string{fmt.Sprintf("fig9a | mean bandwidth sweep (%% scenarios fully admitted), policies %v", r.Policies)}
	for i, bw := range r.BandwidthPointsMbps {
		line := fmt.Sprintf("fig9a | %6.0f Mbps", bw)
		for pi := range r.Policies {
			line += fmt.Sprintf("  %-9s %5.1f%%", r.Policies[pi], 100*r.BandwidthSuccess[i][pi])
		}
		rows = append(rows, line)
	}
	rows = append(rows, fmt.Sprintf("fig9b | mean transcoding sweep (%% scenarios fully admitted), policies %v", r.Policies))
	for i, slots := range r.TranscodePoints {
		line := fmt.Sprintf("fig9b | %6d slots", slots)
		for pi := range r.Policies {
			line += fmt.Sprintf("  %-9s %5.1f%%", r.Policies[pi], 100*r.TranscodeSuccess[i][pi])
		}
		rows = append(rows, line)
	}
	return rows
}
