package cost

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"vconf/internal/assign"
	"vconf/internal/model"
)

// neighbourScenario is one session of n members over numAgents agents with
// random inter-agent and access delays, σ tables and prices, each member
// demanding a random representation from about half of the others.
func neighbourScenario(t *testing.T, rng *rand.Rand, reps *model.RepresentationSet, n, numAgents int, downscaleOnly bool) *model.Scenario {
	t.Helper()
	b := model.NewBuilder(reps)
	if downscaleOnly {
		b.RestrictDownscaleOnly()
	}
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
			Upload: 1000, Download: 1000, TranscodeSlots: 40,
			SigmaMS:               sigma,
			TrafficPricePerMbps:   0.7 + 0.9*rng.Float64(),
			TranscodePricePerTask: 0.7 + 0.9*rng.Float64(),
		})
	}
	s := b.AddSession("s")
	users := make([]model.UserID, n)
	for i := range users {
		users[i] = b.AddUser("u", s, model.Representation(rng.Intn(reps.Len())), nil)
	}
	for _, u := range users {
		for _, v := range users {
			if u != v && rng.Intn(2) == 0 {
				b.DemandFrom(u, v, model.Representation(rng.Intn(reps.Len())))
			}
		}
	}
	d := make([][]float64, numAgents)
	h := make([][]float64, numAgents)
	for l := range d {
		d[l] = make([]float64, numAgents)
		h[l] = make([]float64, n)
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
	sc, err := b.SetInterAgentDelays(d).SetAgentUserDelays(h).Build()
	if err != nil {
		t.Fatal(err)
	}
	return sc
}

// pricedNeighbour is what pricing one neighbour yields: the candidate load
// (every component at every agent, the touched list in order, the marks),
// the capacity verdict, and Φ with its delay verdict when capacity fits.
type pricedNeighbour struct {
	down, up, inter []float64
	tasks           []int
	touched         []int32
	mark            []bool
	fits, ok        bool
	phi             float64
}

func pricedOf(load *SparseLoad, fits, ok bool, phi float64) pricedNeighbour {
	return pricedNeighbour{
		down: slices.Clone(load.down), up: slices.Clone(load.up), inter: slices.Clone(load.inter),
		tasks: slices.Clone(load.tasks), touched: slices.Clone(load.touched), mark: slices.Clone(load.mark),
		fits: fits, ok: ok, phi: phi,
	}
}

// samePriced requires two pricings of one neighbour equal, floats by bits.
func samePriced(t *testing.T, what string, got, want pricedNeighbour) {
	t.Helper()
	for l := range want.down {
		if math.Float64bits(got.down[l]) != math.Float64bits(want.down[l]) ||
			math.Float64bits(got.up[l]) != math.Float64bits(want.up[l]) ||
			math.Float64bits(got.inter[l]) != math.Float64bits(want.inter[l]) ||
			got.tasks[l] != want.tasks[l] || got.mark[l] != want.mark[l] {
			t.Fatalf("%s: agent %d: (down %v up %v inter %v tasks %d mark %v), per candidate (down %v up %v inter %v tasks %d mark %v)",
				what, l, got.down[l], got.up[l], got.inter[l], got.tasks[l], got.mark[l],
				want.down[l], want.up[l], want.inter[l], want.tasks[l], want.mark[l])
		}
	}
	if !slices.Equal(got.touched, want.touched) {
		t.Fatalf("%s: touched %v, per candidate %v", what, got.touched, want.touched)
	}
	if got.fits != want.fits || got.ok != want.ok || math.Float64bits(got.phi) != math.Float64bits(want.phi) {
		t.Fatalf("%s: fits %v ok %v Φ %v, per candidate fits %v ok %v Φ %v",
			what, got.fits, got.ok, got.phi, want.fits, want.ok, want.phi)
	}
}

// neighbourCases tallies the branches the neighbourhood kernel took.
type neighbourCases struct {
	flowDelta, memberDelta, rebuilt int
	capacityRefused, delayRefused   int
	accepted                        int
}

// TestNeighbourhoodPricingMatchesPerCandidate prices every windowed and
// full-scan neighbour of random sessions two ways — variable by variable on
// one prepared scratch (NeighbourLoad, FitsRepairDelta, CandidatePhi, the
// assignment untouched), and one candidate at a time on a freshly prepared
// scratch (Apply, CandidateLoad, FitsRepairDelta, CandidatePhi, Apply of
// the inverse) — and requires the two bit for bit: the load's components,
// touched list and marks, the capacity and delay verdicts and Φ. Each
// neighbour is also checked against the dense reference: load, delay
// feasibility and Φ. Sessions of 2…14 members, packed or spread, strict
// traffic and downscale-only on and off, exact and non-exact rate sets, some
// members and flows unassigned, a delay cap just above the state's worst
// delay and a ledger with nearly full and degraded agents. The test fails
// unless every branch occurred: a flow delta, a member delta, a rebuild, a
// capacity refusal and a delay refusal.
func TestNeighbourhoodPricingMatchesPerCandidate(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	const numAgents = 8
	var tally neighbourCases
	for n := 2; n <= 14; n++ {
		for variant := 0; variant < 16; variant++ {
			packed, strict, downscale, exact := variant&1 != 0, variant&2 != 0, variant&4 != 0, variant&8 == 0
			reps := dyadicReps(t)
			if !exact {
				reps = nonDyadicReps(t)
			}
			sc := neighbourScenario(t, rng, reps, n, numAgents, downscale)
			p := DefaultParams()
			p.StrictPaperTraffic = strict
			ev, err := NewEvaluator(sc, p)
			if err != nil {
				t.Fatal(err)
			}
			if ev.exact != exact {
				t.Fatalf("certificate %v on a set chosen for %v", ev.exact, exact)
			}
			span := numAgents
			if packed {
				span = 3
			}
			a := assign.New(sc)
			for u := 0; u < sc.NumUsers(); u++ {
				a.SetUserAgent(model.UserID(u), model.AgentID(rng.Intn(span)))
			}
			for _, fl := range a.Flows() {
				if err := a.SetFlowAgent(fl, model.AgentID(rng.Intn(span))); err != nil {
					t.Fatal(err)
				}
			}
			// A cap a little above the complete state's worst delay, so
			// neighbours fall on both sides of constraint (8).
			sc.DMaxMS = SessionDelaysOf(a, 0).WorstMS * (1 + 0.05*rng.Float64())
			switch rng.Intn(6) { // a partial state, as during admission
			case 0:
				a.SetUserAgent(model.UserID(rng.Intn(n)), assign.Unassigned)
			case 1:
				if fl := a.Flows(); len(fl) > 0 {
					if err := a.SetFlowAgent(fl[rng.Intn(len(fl))], assign.Unassigned); err != nil {
						t.Fatal(err)
					}
				}
			}
			checkNeighbourhood(t, ev, a, 0, neighbourLedger(t, sc, ev, a, rng), &tally)
		}
	}
	t.Logf("%+v", tally)
	if tally.flowDelta == 0 || tally.memberDelta == 0 || tally.rebuilt == 0 ||
		tally.capacityRefused == 0 || tally.delayRefused == 0 || tally.accepted == 0 {
		t.Fatalf("a branch was never exercised: %+v", tally)
	}
}

// neighbourLedger is the other sessions' usage: every agent but one within a
// few Mbps and tasks of its capacity on some resource, and one agent's
// capacity degraded below its usage, so that capacity refuses some
// neighbours and the repair rule admits others.
func neighbourLedger(t *testing.T, sc *model.Scenario, ev *Evaluator, a *assign.Assignment, rng *rand.Rand) *Ledger {
	t.Helper()
	g := NewLedger(sc)
	own := ev.p.SessionLoadOf(a, 0)
	bg := NewSparseLoad(sc.NumAgents())
	for l := 0; l < sc.NumAgents(); l++ {
		ag := sc.Agent(model.AgentID(l))
		down, up, _, tasks := own.At(model.AgentID(l))
		bg.AddAt(model.AgentID(l),
			max(0, ag.Download-down-12*rng.Float64()), max(0, ag.Upload-up-12*rng.Float64()), 0,
			max(0, ag.TranscodeSlots-tasks-rng.Intn(3)))
	}
	g.Add(bg)
	if err := g.SetCapacityScale(model.AgentID(rng.Intn(sc.NumAgents())), 0.5); err != nil {
		t.Fatal(err)
	}
	return g
}

// checkNeighbourhood prices every windowed and full-scan neighbour of
// session s both ways against ledger (which holds the other sessions'
// usage) and against the reference, tallying the branches. a is left as it
// was.
func checkNeighbourhood(t *testing.T, ev *Evaluator, a *assign.Assignment, s model.SessionID, ledger *Ledger, tally *neighbourCases) {
	t.Helper()
	sc := a.Scenario()
	windowed := a.AppendSessionNeighborDecisionsOpts(nil, s,
		assign.NeighborOptions{Window: 3, Index: assign.NewProximityIndex(sc, 3)})
	for _, ds := range [][]assign.Decision{windowed, a.AppendSessionNeighborDecisions(nil, s)} {
		// Variable by variable, on one preparation.
		vs := ev.NewScratch()
		ev.BeginSession(a, s, vs)
		byVar := make([]pricedNeighbour, len(ds))
		for x, d := range ds {
			load, err := ev.NeighbourLoad(a, s, d, vs)
			if err != nil {
				t.Fatal(err)
			}
			fits := ledger.FitsRepairDelta(load, vs.CurLoad())
			var phi float64
			var ok bool
			if fits {
				phi, ok = ev.CandidatePhi(a, s, d, vs)
			}
			byVar[x] = pricedOf(load, fits, ok, phi)
			switch {
			case !vs.mv.delta:
				tally.rebuilt++
			case d.Kind == assign.FlowMove:
				tally.flowDelta++
			default:
				tally.memberDelta++
			}
		}
		// One candidate at a time, each on a fresh preparation, and the
		// reference.
		ps := ev.NewScratch()
		for x, d := range ds {
			what := fmt.Sprintf("n=%d %v", len(sc.Session(s).Users), d)
			ev.BeginSession(a, s, ps)
			inv, err := a.Apply(d)
			if err != nil {
				t.Fatal(err)
			}
			load := ev.CandidateLoad(a, s, ps)
			fits := ledger.FitsRepairDelta(load, ps.CurLoad())
			var phi float64
			var ok bool
			if fits {
				phi, ok = ev.CandidatePhi(a, s, d, ps)
			}
			want := pricedOf(load, fits, ok, phi)
			samePriced(t, what, byVar[x], want)

			sameLoad(t, what, load, sessionLoadDense(ev.p, a, s))
			switch {
			case !fits:
				tally.capacityRefused++
			case ok != (SessionDelaysOf(a, s).WorstMS <= sc.DMaxMS):
				t.Fatalf("%s: delay feasible %v, reference worst %v vs cap %v", what, ok, SessionDelaysOf(a, s).WorstMS, sc.DMaxMS)
			case !ok:
				tally.delayRefused++
			default:
				tally.accepted++
				sameBits(t, what+" Φ", phi, sessionObjectiveDense(ev, a, s))
			}
			if _, err := a.Apply(inv); err != nil {
				t.Fatal(err)
			}
		}
	}
}
