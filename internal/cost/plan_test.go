package cost

import (
	"math"
	"math/rand"
	"testing"

	"vconf/internal/assign"
	"vconf/internal/model"
)

// Tests of the plan-driven evaluation path against the reference
// (dense_ref_test.go and SessionDelaysOf), which still derives everything
// from the scenario's accessors.

// nonDyadicScenario draws a random scenario whose bitrates (0.3 / 1.7 / 4.1
// Mbps) do not sum exactly in every order — the default 1 / 2.5 / 5 / 8 set
// does, and would hide a change in the order of additions. Sessions of 1–6
// members, random demands, heterogeneous σ tables and prices.
func nonDyadicScenario(t *testing.T, rng *rand.Rand, downscaleOnly bool) *model.Scenario {
	t.Helper()
	reps := nonDyadicReps(t)
	b := model.NewBuilder(reps)
	if downscaleOnly {
		b.RestrictDownscaleOnly()
	}
	numAgents := 5 + rng.Intn(4)
	for l := 0; l < numAgents; l++ {
		sigma := make([][]float64, reps.Len())
		for i := range sigma {
			sigma[i] = make([]float64, reps.Len())
			for j := range sigma[i] {
				if i != j {
					sigma[i][j] = 10 + 40*rng.Float64()
				}
			}
		}
		b.AddAgent(model.Agent{
			Upload: 60 + 40*rng.Float64(), Download: 60 + 40*rng.Float64(), TranscodeSlots: 2 + rng.Intn(6),
			SigmaMS:               sigma,
			TrafficPricePerMbps:   0.7 + 0.9*rng.Float64(),
			TranscodePricePerTask: 0.7 + 0.9*rng.Float64(),
		})
	}
	numUsers := 0
	for s, sizes := 0, []int{1, 2 + rng.Intn(3), 3 + rng.Intn(4)}; s < len(sizes); s++ {
		sid := b.AddSession("s")
		first := model.UserID(numUsers)
		for i := 0; i < sizes[s]; i++ {
			b.AddUser("u", sid, model.Representation(rng.Intn(reps.Len())), nil)
			numUsers++
		}
		for u := first; u < model.UserID(numUsers); u++ {
			for v := first; v < model.UserID(numUsers); v++ {
				if u != v && rng.Intn(2) == 0 {
					b.DemandFrom(u, v, model.Representation(rng.Intn(reps.Len())))
				}
			}
		}
	}
	d := make([][]float64, numAgents)
	h := make([][]float64, numAgents)
	for l := range d {
		d[l] = make([]float64, numAgents)
		h[l] = make([]float64, numUsers)
		for u := range h[l] {
			h[l][u] = 5 + 60*rng.Float64()
		}
	}
	for l := range d {
		for k := l + 1; k < numAgents; k++ {
			d[l][k] = 10 + 90*rng.Float64()
			d[k][l] = d[l][k]
		}
	}
	// A cap in the middle of the delay range, so candidates fall on both
	// sides of constraint (8).
	b.SetInterAgentDelays(d).SetAgentUserDelays(h).SetDelayCap(190)
	sc, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return sc
}

// nonDyadicReps is the lo 0.3 / mid 1.7 / hi 4.1 Mbps representation set.
func nonDyadicReps(t *testing.T) *model.RepresentationSet {
	t.Helper()
	reps, err := model.NewRepresentationSet([]model.RepSpec{
		{Name: "lo", Mbps: 0.3}, {Name: "mid", Mbps: 1.7}, {Name: "hi", Mbps: 4.1},
	})
	if err != nil {
		t.Fatal(err)
	}
	return reps
}

func sameBits(t *testing.T, what string, got, want float64) {
	t.Helper()
	if math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("%s: got %v, want %v (bit-equal)", what, got, want)
	}
}

// TestReportSessionMeanDelayMatchesSessionDelaysOf: the mean-of-max delay
// the Evaluator reports from its scratch is bit-equal to SessionDelaysOf's
// on random states, single-member sessions and Unassigned members and flows
// included, so callers may read either.
func TestReportSessionMeanDelayMatchesSessionDelaysOf(t *testing.T) {
	rng := rand.New(rand.NewSource(48))
	for trial := 0; trial < 60; trial++ {
		sc := nonDyadicScenario(t, rng, trial%2 == 1)
		ev, err := NewEvaluator(sc, DefaultParams())
		if err != nil {
			t.Fatal(err)
		}
		a := randomComplete(sc, rng)
		for u := 0; u < sc.NumUsers(); u++ {
			if rng.Intn(5) == 0 {
				a.SetUserAgent(model.UserID(u), assign.Unassigned)
			}
		}
		for _, f := range a.Flows() {
			if rng.Intn(5) == 0 {
				if err := a.SetFlowAgent(f, assign.Unassigned); err != nil {
					t.Fatal(err)
				}
			}
		}
		for s := model.SessionID(0); int(s) < sc.NumSessions(); s++ {
			sameBits(t, "mean delay", ev.ReportSession(a, s).MeanDelayMS, SessionDelaysOf(a, s).MeanOfMaxMS)
		}
	}
}

// TestPlanDrivenNeighboursMatchDense: for every windowed neighbour of every
// session of random non-dyadic scenarios — DownscaleOnly and
// StrictPaperTraffic on and off, some members and flows Unassigned — the
// candidate load, Φ_s and delay feasibility the hop pipeline computes from
// the plan are bit-equal to the dense reference, and so are the mean and
// worst delay of the neighbour state on both the warm-patch and the rebuild
// path, and so is the Evaluator's report of the neighbour state.
func TestPlanDrivenNeighboursMatchDense(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	feasible, infeasible := 0, 0
	for trial := 0; trial < 40; trial++ {
		sc := nonDyadicScenario(t, rng, trial%2 == 1)
		p := DefaultParams()
		p.StrictPaperTraffic = trial%4 >= 2
		ev, err := NewEvaluator(sc, p)
		if err != nil {
			t.Fatal(err)
		}
		a := randomComplete(sc, rng)
		if trial%3 == 0 { // a partial state, as during bootstrap admission
			a.SetUserAgent(model.UserID(rng.Intn(sc.NumUsers())), assign.Unassigned)
			if fl := a.Flows(); len(fl) > 0 {
				if err := a.SetFlowAgent(fl[rng.Intn(len(fl))], assign.Unassigned); err != nil {
					t.Fatal(err)
				}
			}
		}
		opts := assign.NeighborOptions{Window: 3, Index: assign.NewProximityIndex(sc, 3)}
		warm, cold, nbr := ev.NewScratch(), ev.NewScratch(), ev.NewScratch()
		cold.SetDelayCacheEnabled(false)

		for s := model.SessionID(0); int(s) < sc.NumSessions(); s++ {
			be := ev.BeginSession(a, s, warm)
			sameLoad(t, "current", warm.CurLoad(), sessionLoadDense(p, a, s))
			sameBits(t, "current Φ", be.Phi, sessionObjectiveDense(ev, a, s))

			for _, d := range a.AppendSessionNeighborDecisionsOpts(nil, s, opts) {
				load, err := ev.NeighbourLoad(a, s, d, warm)
				if err != nil {
					t.Fatal(err)
				}
				inv, err := a.Apply(d)
				if err != nil {
					t.Fatal(err)
				}
				sameLoad(t, d.String(), load, sessionLoadDense(p, a, s))
				sd := SessionDelaysOf(a, s)
				phi, ok := ev.CandidatePhi(a, s, d, warm)
				if want := sd.WorstMS <= sc.DMaxMS; ok != want {
					t.Fatalf("%v: CandidatePhi feasible = %v, dense worst %v vs cap %v", d, ok, sd.WorstMS, sc.DMaxMS)
				}
				if ok {
					feasible++
					sameBits(t, d.String()+" Φ", phi, sessionObjectiveDense(ev, a, s))
				} else {
					infeasible++
				}
				// The neighbour's delay summary, once patched into a warm
				// entry and once rebuilt from nothing.
				ev.BeginSession(a, s, nbr) // warm the entry at the neighbour…
				if _, err := a.Apply(inv); err != nil {
					t.Fatal(err)
				}
				ev.BeginSession(a, s, nbr) // …patch back to the base…
				if _, err := a.Apply(d); err != nil {
					t.Fatal(err)
				}
				for _, scr := range []*Scratch{nbr, cold} { // …and patch forward again
					got := ev.BeginSession(a, s, scr)
					sameBits(t, d.String()+" mean delay", got.MeanDelayMS, sd.MeanOfMaxMS)
					sameBits(t, d.String()+" worst delay", got.WorstMS, sd.WorstMS)
					sameBits(t, d.String()+" Φ (BeginSession)", got.Phi, sessionObjectiveDense(ev, a, s))
				}
				sameReport(t, d.String()+" report", ev.ReportSession(a, s), reportSessionDense(ev, a, s))
				if _, err := a.Apply(inv); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	if feasible == 0 || infeasible == 0 {
		t.Fatalf("fixture is one-sided: %d delay-feasible and %d infeasible neighbours", feasible, infeasible)
	}
}

// TestCandColumnMaxMatchesRescan: the O(1)/O(n) column-maximum update
// against a brute-force rescan, on small-integer matrices so that ties are
// the common case — including the moved entry being one of several holders
// of the maximum, its unique holder, and the new value tying the old
// maximum.
func TestCandColumnMaxMatchesRescan(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 2000; trial++ {
		n := 2 + rng.Intn(5)
		scr := &Scratch{n: n, base: make([]float64, n*n), userMax: make([]float64, n)}
		for i := range scr.base {
			if i/n != i%n {
				scr.base[i] = float64(rng.Intn(4))
			}
		}
		scr.delaySummary(scr.userMax)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if i == j {
					continue
				}
				for v := 0.0; v < 5; v++ {
					want := v
					for r := 0; r < n; r++ {
						if r != i && r != j && scr.base[r*n+j] > want {
							want = scr.base[r*n+j]
						}
					}
					if got := scr.candColumnMax(i, j, v); got != want {
						t.Fatalf("n=%d base=%v: column %d with entry (%d,%d) → %v: got max %v, want %v",
							n, scr.base, j, i, j, v, got, want)
					}
				}
			}
		}
	}
}

// TestCandidatePhiLeavesBaseIntact: a far member's move towards the others
// takes the entries that held every maximum down (the rescan branch), and a
// Dmax-violating candidate followed by a feasible one must both be judged
// against the same untouched base: the matrix and its maxima are bit-equal
// before and after, and the feasible Φ equals the dense objective.
func TestCandidatePhiLeavesBaseIntact(t *testing.T) {
	b := model.NewBuilder(nil)
	for l := 0; l < 3; l++ {
		b.AddAgent(model.Agent{Upload: 1000, Download: 1000, TranscodeSlots: 8,
			SigmaMS: model.UniformSigma(b.Reps().Len(), 30)})
	}
	s := b.AddSession("s")
	for i := 0; i < 4; i++ {
		b.AddUser("u", s, 0, nil)
	}
	// Users 1–3 sit 10 ms from every agent (all their mutual delays tie);
	// user 0 is 150 ms from agent 0, 10 ms from agent 1 and 500 ms from
	// agent 2.
	h := [][]float64{{150, 10, 10, 10}, {10, 10, 10, 10}, {500, 10, 10, 10}}
	d := [][]float64{{0, 20, 20}, {20, 0, 20}, {20, 20, 0}}
	sc, err := b.SetAgentUserDelays(h).SetInterAgentDelays(d).Build()
	if err != nil {
		t.Fatal(err)
	}
	ev, err := NewEvaluator(sc, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	a := assign.New(sc)
	for u := 0; u < 4; u++ {
		a.SetUserAgent(model.UserID(u), 0)
	}
	scr := ev.NewScratch()
	ev.BeginSession(a, s, scr)
	base := append([]float64(nil), scr.base...)
	maxima := append([]float64(nil), scr.userMax...)

	try := func(to model.AgentID, wantOK bool) {
		t.Helper()
		dec := assign.Decision{Kind: assign.UserMove, User: 0, To: to}
		if _, err := ev.NeighbourLoad(a, s, dec, scr); err != nil {
			t.Fatal(err)
		}
		inv, err := a.Apply(dec)
		if err != nil {
			t.Fatal(err)
		}
		phi, ok := ev.CandidatePhi(a, s, dec, scr)
		if ok != wantOK {
			t.Fatalf("%v: feasible = %v, want %v", dec, ok, wantOK)
		}
		if ok {
			sameBits(t, dec.String()+" Φ", phi, sessionObjectiveDense(ev, a, s))
		}
		if _, err := a.Apply(inv); err != nil {
			t.Fatal(err)
		}
		for i := range base {
			sameBits(t, "base entry after "+dec.String(), scr.base[i], base[i])
		}
		for i := range maxima {
			sameBits(t, "user maximum after "+dec.String(), scr.userMax[i], maxima[i])
		}
	}
	try(2, false) // 500 + 20 + 10 ms > Dmax
	try(1, true)  // every column's maximum was held by user 0's row and goes down
}
