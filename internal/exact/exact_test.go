package exact

import (
	"fmt"
	"math"
	"testing"

	"vconf/internal/assign"
	"vconf/internal/cost"
	"vconf/internal/model"
)

// fig3Scenario reproduces the paper's Fig. 3 instance: 1 session, 2 users,
// 1 transcoding operation, 2 agents, ample capacity, Dmax never binding
// ⇒ exactly 2×2×2 = 8 feasible assignments.
func fig3Scenario(t *testing.T) *model.Scenario {
	t.Helper()
	b := model.NewBuilder(nil)
	rs := b.Reps()
	r360, _ := rs.ByName("360p")
	r720, _ := rs.ByName("720p")
	for i := 0; i < 2; i++ {
		b.AddAgent(model.Agent{Upload: 1000, Download: 1000, TranscodeSlots: 4,
			SigmaMS: model.UniformSigma(rs.Len(), 40)})
	}
	s := b.AddSession("s")
	u1 := b.AddUser("U1", s, r720, nil)
	u2 := b.AddUser("U2", s, r720, nil)
	b.DemandFrom(u2, u1, r360)
	b.SetInterAgentDelays([][]float64{{0, 25}, {25, 0}})
	b.SetAgentUserDelays([][]float64{{5, 30}, {30, 5}})
	sc, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return sc
}

func evaluator(t *testing.T, sc *model.Scenario) *cost.Evaluator {
	t.Helper()
	ev, err := cost.NewEvaluator(sc, cost.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	return ev
}

func TestEnumerateFig3Has8States(t *testing.T) {
	sc := fig3Scenario(t)
	enum, err := Enumerate(evaluator(t, sc), 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(enum.States) != 8 {
		t.Fatalf("states = %d, want 8 (Fig. 3)", len(enum.States))
	}
	if enum.ArgMin < 0 || math.IsInf(enum.MinPhi, 1) {
		t.Fatal("no optimum recorded")
	}
	// Each state of a 3-binary-variable space has exactly 3 one-flip
	// neighbors — the cube of Fig. 3(b).
	for i, nbrs := range enum.Neighbors() {
		if len(nbrs) != 3 {
			t.Fatalf("state %d has %d neighbors, want 3", i, len(nbrs))
		}
	}
	if !enum.Connected() {
		t.Fatal("Fig. 3 chain must be irreducible")
	}
}

func TestEnumerateOptimumIsColocated(t *testing.T) {
	// With ample capacity the cheapest state co-locates both users and the
	// transcoding at one agent: zero inter-agent traffic and minimal delay.
	sc := fig3Scenario(t)
	enum, err := Enumerate(evaluator(t, sc), 0)
	if err != nil {
		t.Fatal(err)
	}
	best := enum.States[enum.ArgMin].A
	if best.UserAgent(0) != best.UserAgent(1) {
		t.Fatalf("optimal state splits users: %v", best)
	}
	if m, _ := best.FlowAgent(model.Flow{Src: 0, Dst: 1}); m != best.UserAgent(0) {
		t.Fatalf("optimal transcoder not co-located: %v", best)
	}
}

func TestEnumerateRespectsCapacityFiltering(t *testing.T) {
	// Shrink agent 1 so any state touching it is infeasible: feasible space
	// collapses to the single all-at-agent-0 state.
	b := model.NewBuilder(nil)
	rs := b.Reps()
	r360, _ := rs.ByName("360p")
	r720, _ := rs.ByName("720p")
	b.AddAgent(model.Agent{Upload: 1000, Download: 1000, TranscodeSlots: 4})
	b.AddAgent(model.Agent{Upload: 0.1, Download: 0.1, TranscodeSlots: 0})
	s := b.AddSession("s")
	u1 := b.AddUser("U1", s, r720, nil)
	b.AddUser("U2", s, r720, nil)
	_ = u1
	b.DemandFrom(1, 0, r360)
	sc, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	enum, err := Enumerate(evaluator(t, sc), 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(enum.States) != 1 {
		t.Fatalf("states = %d, want 1", len(enum.States))
	}
	st := enum.States[0].A
	if st.UserAgent(0) != 0 || st.UserAgent(1) != 0 {
		t.Fatal("surviving state should be all-at-agent-0")
	}
}

func TestEnumerateLimit(t *testing.T) {
	sc := fig3Scenario(t)
	if _, err := Enumerate(evaluator(t, sc), 4); err == nil {
		t.Fatal("Enumerate should refuse when combinations exceed the limit")
	}
}

func TestEnumerateNoFeasible(t *testing.T) {
	// Zero transcoding slots anywhere: the θ flow can never be placed.
	b := model.NewBuilder(nil)
	rs := b.Reps()
	r360, _ := rs.ByName("360p")
	r720, _ := rs.ByName("720p")
	b.AddAgent(model.Agent{Upload: 1000, Download: 1000, TranscodeSlots: 0})
	s := b.AddSession("s")
	b.AddUser("U1", s, r720, nil)
	b.AddUser("U2", s, r720, nil)
	b.DemandFrom(1, 0, r360)
	sc, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Enumerate(evaluator(t, sc), 0); err == nil {
		t.Fatal("Enumerate should fail when no feasible assignment exists")
	}
}

func TestStationaryDistribution(t *testing.T) {
	sc := fig3Scenario(t)
	enum, err := Enumerate(evaluator(t, sc), 0)
	if err != nil {
		t.Fatal(err)
	}
	p := enum.Stationary(400, 0.01)
	sum := 0.0
	maxIdx := 0
	for i, v := range p {
		if v < 0 {
			t.Fatalf("negative probability %v", v)
		}
		sum += v
		if v > p[maxIdx] {
			maxIdx = i
		}
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("stationary sums to %v", sum)
	}
	if maxIdx != enum.ArgMin {
		t.Fatalf("most probable state %d is not the optimum %d", maxIdx, enum.ArgMin)
	}
	// β → larger concentrates more mass on the optimum.
	pLow := enum.Stationary(40, 0.01)
	if p[enum.ArgMin] <= pLow[enum.ArgMin] {
		t.Fatal("mass on optimum should grow with β")
	}
}

func TestGapBoundHolds(t *testing.T) {
	// Eq. (12): 0 ≤ Φ_avg − Φ_min ≤ (U+θsum)·logL/β. Verify analytically on
	// the enumerated space for several β values.
	sc := fig3Scenario(t)
	enum, err := Enumerate(evaluator(t, sc), 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, beta := range []float64{10, 50, 200, 400} {
		scale := 0.01
		p := enum.Stationary(beta, scale)
		gap := enum.ExpectedPhi(p) - enum.MinPhi
		bound := GapBound(sc, beta, scale)
		if gap < -1e-9 {
			t.Fatalf("β=%v: negative gap %v", beta, gap)
		}
		if gap > bound+1e-9 {
			t.Fatalf("β=%v: gap %v exceeds Theorem-1 bound %v", beta, gap, bound)
		}
	}
}

func TestPerturbedStationary(t *testing.T) {
	sc := fig3Scenario(t)
	enum, err := Enumerate(evaluator(t, sc), 0)
	if err != nil {
		t.Fatal(err)
	}
	beta, scale := 100.0, 0.01

	// Uniform Δ across states: δ_f identical ⇒ p̄ = p*.
	uniform := make([]float64, len(enum.States))
	for i := range uniform {
		uniform[i] = 2.0
	}
	pBar, err := enum.PerturbedStationary(beta, scale, uniform, 3)
	if err != nil {
		t.Fatal(err)
	}
	p := enum.Stationary(beta, scale)
	for i := range p {
		if math.Abs(p[i]-pBar[i]) > 1e-9 {
			t.Fatalf("uniform-Δ perturbed distribution differs at state %d: %v vs %v", i, p[i], pBar[i])
		}
	}

	// Eq. (13): perturbed gap ≤ bound + Δmax. Use state-dependent deltas.
	deltas := make([]float64, len(enum.States))
	deltaMax := 0.0
	for i := range deltas {
		deltas[i] = float64(i%3) * 5 // 0, 5, 10 objective units
		if deltas[i]*scale > deltaMax {
			deltaMax = deltas[i] * scale
		}
	}
	// Deltas here are in raw Φ units; the bound's Δmax is in scaled units
	// since β acts on scaled Φ.
	pBar2, err := enum.PerturbedStationary(beta, scale, deltas, 3)
	if err != nil {
		t.Fatal(err)
	}
	gap := enum.ExpectedPhi(pBar2) - enum.MinPhi
	bound := GapBound(sc, beta, scale) + deltaMax/scale // back to raw Φ units
	if gap < -1e-9 || gap > bound+1e-9 {
		t.Fatalf("perturbed gap %v outside [0, %v]", gap, bound)
	}

	// Error paths.
	if _, err := enum.PerturbedStationary(beta, scale, deltas[:1], 3); err == nil {
		t.Fatal("wrong-length deltas accepted")
	}
	if _, err := enum.PerturbedStationary(beta, scale, deltas, 0); err == nil {
		t.Fatal("zero levels accepted")
	}
}

func TestEnumerateMatchesBruteForceCheckFeasible(t *testing.T) {
	// Every enumerated state must pass CheckFeasible, and a sanity sample of
	// non-enumerated combinations must fail it.
	sc := fig3Scenario(t)
	ev := evaluator(t, sc)
	enum, err := Enumerate(ev, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i, st := range enum.States {
		if err := ev.CheckFeasible(st.A); err != nil {
			t.Fatalf("state %d fails CheckFeasible: %v", i, err)
		}
		if got := enum.Index[st.Key]; got != i {
			t.Fatalf("index mismatch at %d", i)
		}
	}
	// An incomplete assignment is not in the space.
	a := assign.New(sc)
	if _, ok := enum.Index[a.Encode()]; ok {
		t.Fatal("incomplete assignment found in enumeration")
	}
}

// PerturbedStationary returns p̄_f of Eq. (11) for the uniform quantized
// perturbation model: the perturbed Φ_f takes values Φ_f + (j/n)Δ for
// j ∈ {−n..n} with equal probability, giving
// δ_f = (1/(2n+1)) Σ_j exp(β·scale·jΔ/n), identical for every state under
// the uniform model, so p̄ = p* exactly — the stationary distribution is
// perturbation-invariant when δ_f is state-independent (a corollary the
// tests verify). For state-dependent Δ_f, pass deltas (one per state).
func (e *Enumeration) PerturbedStationary(beta, scale float64, deltas []float64, levels int) ([]float64, error) {
	n := len(e.States)
	if len(deltas) != n {
		return nil, fmt.Errorf("exact: %d deltas for %d states", len(deltas), n)
	}
	if levels < 1 {
		return nil, fmt.Errorf("exact: levels must be ≥ 1")
	}
	out := make([]float64, n)
	minPhi := e.MinPhi
	sum := 0.0
	for i, st := range e.States {
		delta := 0.0
		for j := -levels; j <= levels; j++ {
			delta += math.Exp(beta * scale * float64(j) * deltas[i] / float64(levels))
		}
		delta /= float64(2*levels + 1)
		out[i] = delta * math.Exp(-beta*scale*(st.Phi-minPhi))
		sum += out[i]
	}
	for i := range out {
		out[i] /= sum
	}
	return out, nil
}
