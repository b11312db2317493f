// Package experiments implements one runner per table and figure of the
// paper's evaluation (§V). Each runner builds its workload, executes the
// relevant algorithms, and renders rows shaped like the paper's artifact so
// the reproduction can be compared side by side (see EXPERIMENTS.md).
package experiments

import (
	"fmt"

	"vconf/internal/agrank"
	"vconf/internal/assign"
	"vconf/internal/baseline"
	"vconf/internal/core"
	"vconf/internal/cost"
	"vconf/internal/model"
	"vconf/internal/netsim"
	"vconf/internal/transcode"
)

// InitPolicy selects the bootstrap policy of a run.
type InitPolicy struct {
	// Name labels the policy in output rows ("Nrst", "AgRank#2", …).
	Name string
	// NNgbr is 0 for Nrst, else AgRank's candidate count.
	NNgbr int
}

// Nrst is the nearest-assignment baseline policy.
func Nrst() InitPolicy { return InitPolicy{Name: "Nrst"} }

// AgRank returns the AgRank policy with the given n_ngbr.
func AgRank(nngbr int) InitPolicy {
	return InitPolicy{Name: fmt.Sprintf("AgRank#%d", nngbr), NNgbr: nngbr}
}

// Bootstrapper adapts the policy to the core engine's bootstrap hook.
func (ip InitPolicy) Bootstrapper(p cost.Params) core.Bootstrapper {
	if ip.NNgbr == 0 {
		return func(a *assign.Assignment, s model.SessionID, ledger cost.LedgerAPI) error {
			return baseline.AssignSessionNearest(a, s, p, ledger)
		}
	}
	opts := agrank.DefaultOptions(ip.NNgbr)
	return func(a *assign.Assignment, s model.SessionID, ledger cost.LedgerAPI) error {
		_, err := agrank.BootstrapSession(a, s, p, ledger, opts)
		return err
	}
}

// BootstrapAll admits every session of the scenario under the policy,
// returning the assignment and ledger, or the first admission error.
func (ip InitPolicy) BootstrapAll(sc *model.Scenario, p cost.Params) (*assign.Assignment, *cost.Ledger, error) {
	a := assign.New(sc)
	ledger := cost.NewLedger(sc)
	boot := ip.Bootstrapper(p)
	for s := 0; s < sc.NumSessions(); s++ {
		if err := boot(a, model.SessionID(s), ledger); err != nil {
			return nil, nil, err
		}
	}
	return a, ledger, nil
}

// BuildFig2Scenario assembles the paper's Fig. 2 motivating instance from
// the netsim fixture: one session of four users (CA, BR, JP, HK) over four
// agents (OR, TO, SG, SP) with the measured latencies. The HK user produces
// 1080p which the CA user demands as 360p, creating the transcoding task of
// the walkthrough; everyone else exchanges native 720p.
func BuildFig2Scenario() (*model.Scenario, error) {
	fx := netsim.Fig2()
	b := model.NewBuilder(nil)
	rs := b.Reps()
	r360, _ := rs.ByName("360p")
	r720, _ := rs.ByName("720p")
	r1080, _ := rs.ByName("1080p")

	for _, site := range fx.AgentSites {
		factor := fx.Capability[site.Name]
		b.AddAgent(model.Agent{
			Name:             site.Name,
			Site:             site.Region,
			Upload:           10000,
			Download:         10000,
			TranscodeSlots:   16,
			SigmaMS:          transcode.MustTable(rs, factor),
			CapabilityFactor: factor,
		})
	}
	s := b.AddSession("fig2")
	uCA := b.AddUser("1 [CA]", s, r720, nil)
	b.AddUser("2 [BR]", s, r720, nil)
	b.AddUser("3 [JP]", s, r720, nil)
	uHK := b.AddUser("4 [HK]", s, r1080, nil)
	b.DemandFrom(uCA, uHK, r360)

	b.SetInterAgentDelays(fx.DMS)
	b.SetAgentUserDelays(fx.HMS)
	return b.Build()
}

// BuildFig3Scenario assembles the Fig. 3 instance: one session, two users,
// one transcoding operation, two agents — 8 feasible assignments.
func BuildFig3Scenario() (*model.Scenario, error) {
	b := model.NewBuilder(nil)
	rs := b.Reps()
	r360, _ := rs.ByName("360p")
	r720, _ := rs.ByName("720p")
	for i := 0; i < 2; i++ {
		b.AddAgent(model.Agent{
			Name: fmt.Sprintf("L%d", i+1), Upload: 1000, Download: 1000, TranscodeSlots: 4,
			SigmaMS: model.UniformSigma(rs.Len(), 40),
		})
	}
	s := b.AddSession("fig3")
	b.AddUser("U1", s, r720, nil)
	b.AddUser("U2", s, r720, nil)
	b.DemandFrom(1, 0, r360)
	b.SetInterAgentDelays([][]float64{{0, 25}, {25, 0}})
	b.SetAgentUserDelays([][]float64{{5, 30}, {30, 5}})
	return b.Build()
}

// SeriesPoint is one (time, traffic, delay) observation of an evolution
// experiment.
type SeriesPoint struct {
	TimeS       float64
	TrafficMbps float64
	DelayMS     float64
}

// resample extracts a regular grid from engine samples (step semantics).
func resample(samples []core.Sample, start, end, step float64) []SeriesPoint {
	var out []SeriesPoint
	idx := 0
	var last core.Sample
	haveLast := false
	for t := start; t <= end+1e-9; t += step {
		for idx < len(samples) && samples[idx].TimeS <= t {
			last = samples[idx]
			haveLast = true
			idx++
		}
		if !haveLast {
			continue
		}
		out = append(out, SeriesPoint{TimeS: t, TrafficMbps: last.TrafficMbps, DelayMS: last.MeanDelayMS})
	}
	return out
}
