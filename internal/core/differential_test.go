package core

import (
	"testing"

	"vconf/internal/assign"
	"vconf/internal/model"
	"vconf/internal/workload"
)

// The hop pipeline must be bit-identical to evaluation from scratch: for a
// fixed seed and noiseless config, both enumerate the same feasible
// candidate sets with the same weights and therefore pick the same hop
// sequence. These tests replay whole engine runs on the from-scratch
// reference kernels (dense_ref_test.go) and on the pipeline across several
// scenario shapes and compare every decision, every sample, and the final
// assignment. The load kernel and Φ_s themselves are held to the map-based
// reference in internal/cost.

// hopTrace records one hop observation for cross-path comparison.
type hopTrace struct {
	timeS   float64
	session model.SessionID
	res     HopResult
}

// runDifferential drives one engine over the scenario — on the dense
// reference kernels when dense is set, rebuilding the delay base on every
// evaluation when rebuild is set — and returns the hop trace, the samples,
// and the final assignment.
func runDifferential(t *testing.T, sc *model.Scenario, cfg Config, dense, rebuild bool, untilS float64,
	degrade func(e *Engine)) ([]hopTrace, []Sample, *assign.Assignment) {
	t.Helper()
	ev := newEval(t, sc)
	eng, err := NewEngine(ev, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if dense {
		eng.hop, eng.rate = hopSessionDense, sessionTotalRateDense
	}
	eng.scratch.Eval().SetDelayCacheEnabled(!rebuild)
	var trace []hopTrace
	eng.OnHop = func(timeS float64, s model.SessionID, r HopResult) {
		trace = append(trace, hopTrace{timeS: timeS, session: s, res: r})
	}
	boot := nrstBoot(ev.Params())
	for s := 0; s < sc.NumSessions(); s++ {
		if err := eng.ActivateSession(model.SessionID(s), boot); err != nil {
			t.Fatal(err)
		}
	}
	samples, err := eng.Run(untilS/2, 5)
	if err != nil {
		t.Fatal(err)
	}
	if degrade != nil {
		degrade(eng)
	}
	more, err := eng.Run(untilS, 5)
	if err != nil {
		t.Fatal(err)
	}
	samples = append(samples, more...)
	return trace, samples, eng.Assignment()
}

// compareDifferential asserts that the dense reference, the sparse pipeline
// reusing the state its scratch last prepared (the production default), and
// the sparse pipeline with the per-hop delay-base rebuild replay identical
// runs.
func compareDifferential(t *testing.T, sc *model.Scenario, cfg Config, untilS float64,
	degrade func(e *Engine)) {
	t.Helper()
	dTrace, dSamples, dFinal := runDifferential(t, sc, cfg, true, false, untilS, degrade)
	if len(dTrace) == 0 {
		t.Fatal("dense run produced no hops; differential comparison is vacuous")
	}
	for _, variant := range []struct {
		name    string
		rebuild bool
	}{{"sparse-cached", false}, {"sparse-rebuild", true}} {
		sTrace, sSamples, sFinal := runDifferential(t, sc, cfg, false, variant.rebuild, untilS, degrade)
		compareRuns(t, variant.name, dTrace, dSamples, dFinal, sTrace, sSamples, sFinal)
	}
}

// compareRuns asserts one sparse variant matches the dense reference run
// trace-for-trace, sample-for-sample, and in the final assignment.
func compareRuns(t *testing.T, name string,
	dTrace []hopTrace, dSamples []Sample, dFinal *assign.Assignment,
	sTrace []hopTrace, sSamples []Sample, sFinal *assign.Assignment) {
	t.Helper()
	if len(dTrace) != len(sTrace) {
		t.Fatalf("%s: hop counts differ: dense %d, sparse %d", name, len(dTrace), len(sTrace))
	}
	moved := 0
	for i := range dTrace {
		d, s := dTrace[i], sTrace[i]
		if d.timeS != s.timeS || d.session != s.session {
			t.Fatalf("%s: hop %d: schedule diverged: dense (t=%v s=%d) vs sparse (t=%v s=%d)",
				name, i, d.timeS, d.session, s.timeS, s.session)
		}
		if d.res.Moved != s.res.Moved || d.res.Decision != s.res.Decision {
			t.Fatalf("%s: hop %d: decision diverged: dense %+v vs sparse %+v", name, i, d.res, s.res)
		}
		if d.res.Feasible != s.res.Feasible {
			t.Fatalf("%s: hop %d: candidate sets differ: dense %d feasible, sparse %d",
				name, i, d.res.Feasible, s.res.Feasible)
		}
		if d.res.PhiBefore != s.res.PhiBefore || d.res.PhiAfter != s.res.PhiAfter {
			t.Fatalf("%s: hop %d: Φ readings differ: dense (%v→%v) vs sparse (%v→%v)",
				name, i, d.res.PhiBefore, d.res.PhiAfter, s.res.PhiBefore, s.res.PhiAfter)
		}
		if d.res.Moved {
			moved++
		}
	}
	if moved == 0 {
		t.Fatal("no hop migrated; differential comparison exercised no load deltas")
	}
	if len(dSamples) != len(sSamples) {
		t.Fatalf("%s: sample counts differ: dense %d, sparse %d", name, len(dSamples), len(sSamples))
	}
	for i := range dSamples {
		d, s := dSamples[i], sSamples[i]
		if d.TimeS != s.TimeS || d.Objective != s.Objective ||
			d.TrafficMbps != s.TrafficMbps || d.MeanDelayMS != s.MeanDelayMS {
			t.Fatalf("%s: sample %d differs: dense %+v vs sparse %+v", name, i, d, s)
		}
	}
	if !dFinal.Equal(sFinal) {
		t.Fatalf("%s: final assignments differ:\ndense:  %v\nsparse: %v", name, dFinal, sFinal)
	}
}

// Shape 1: the synthetic 3-agent multi-session scenario with transcoding
// flows and heterogeneous delays.
func TestDifferentialSparseDenseMultiScenario(t *testing.T) {
	compareDifferential(t, multiScenario(t, 6), DefaultConfig(17), 160, nil)
}

// Shape 2: the prototype-scale generated workload (6 EC2 agents, sessions of
// 3–5 users, realistic latency substrate).
func TestDifferentialSparseDensePrototypeWorkload(t *testing.T) {
	sc, err := workload.Generate(workload.Prototype(5))
	if err != nil {
		t.Fatal(err)
	}
	compareDifferential(t, sc, DefaultConfig(23), 120, nil)
}

// Shape 3: a capacity-constrained large-scale slice with a mid-run agent
// degradation, exercising the FitsRepairDelta repair path where the ledger
// itself is overloaded.
func TestDifferentialSparseDenseConstrainedDegraded(t *testing.T) {
	wl := workload.LargeScale(9)
	wl.NumUsers = 30
	wl.NumUserNodes = 64
	wl.MeanBandwidthMbps = 500
	wl.MeanTranscodeSlots = 16
	sc, err := workload.Generate(wl)
	if err != nil {
		t.Fatal(err)
	}
	degrade := func(e *Engine) {
		if err := e.DegradeAgent(0, 0.4); err != nil {
			t.Fatal(err)
		}
	}
	compareDifferential(t, sc, DefaultConfig(31), 140, degrade)
}

// Shape 4: ExactCTMC mode on the tiny Fig. 3 instance — SessionTotalRateWith
// drives the holding times, so rate computations must match bitwise too.
func TestDifferentialSparseDenseExactCTMC(t *testing.T) {
	cfg := Config{Beta: 20, ObjectiveScale: 0.01, MeanCountdownS: 1, Mode: ExactCTMC, Seed: 3}
	compareDifferential(t, fig3Scenario(t), cfg, 120, nil)
}

// Shape 5: session churn through the engine's event loop — departures tear
// every variable of a session down and re-arrivals bootstrap it afresh,
// interleaved with hops of the other sessions on the engine's one scratch, so
// its prepared state is rebuilt, patched and reused across teardowns it is
// not told about. Reusing and rebuild paths must replay identical runs.
func TestDifferentialDelayCacheChurn(t *testing.T) {
	sc := multiScenario(t, 6)
	run := func(rebuild bool) ([]hopTrace, []Sample, *assign.Assignment) {
		ev := newEval(t, sc)
		eng, err := NewEngine(ev, DefaultConfig(29))
		if err != nil {
			t.Fatal(err)
		}
		eng.scratch.Eval().SetDelayCacheEnabled(!rebuild)
		var trace []hopTrace
		eng.OnHop = func(timeS float64, s model.SessionID, r HopResult) {
			trace = append(trace, hopTrace{timeS: timeS, session: s, res: r})
		}
		boot := nrstBoot(ev.Params())
		for s := 0; s < 4; s++ {
			if err := eng.ActivateSession(model.SessionID(s), boot); err != nil {
				t.Fatal(err)
			}
		}
		// Churn: two sessions leave mid-run, one re-arrives, two fresh
		// sessions arrive late.
		eng.ScheduleDeparture(40, 1)
		eng.ScheduleDeparture(60, 2)
		eng.ScheduleArrival(80, 1, boot)
		eng.ScheduleArrival(90, 4, boot)
		eng.ScheduleArrival(100, 5, boot)
		samples, err := eng.Run(180, 5)
		if err != nil {
			t.Fatal(err)
		}
		return trace, samples, eng.Assignment()
	}
	cTrace, cSamples, cFinal := run(false)
	rTrace, rSamples, rFinal := run(true)
	compareRuns(t, "cached-vs-rebuild-churn", rTrace, rSamples, rFinal, cTrace, cSamples, cFinal)
}
