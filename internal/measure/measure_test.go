package measure

import (
	"testing"

	"vconf/internal/assign"
	"vconf/internal/baseline"
	"vconf/internal/cost"
	"vconf/internal/model"
	"vconf/internal/netsim"
	"vconf/internal/workload"
)

func truthMatrices(t *testing.T) ([][]float64, [][]float64) {
	t.Helper()
	users := netsim.GenerateUserNodes(1, 12)
	net, err := netsim.Generate(netsim.DefaultConfig(1), netsim.EC2Sites()[:4], users)
	if err != nil {
		t.Fatal(err)
	}
	return net.DMS, denseH(len(net.AgentSites), len(users), net.H)
}

// denseH materializes an L×U delay function as a matrix.
func denseH(agents, users int, h func(l, u int) float64) [][]float64 {
	m := make([][]float64, agents)
	for l := range m {
		m[l] = make([]float64, users)
		for u := range m[l] {
			m[l][u] = h(l, u)
		}
	}
	return m
}

func TestProberConvergesUnderJitter(t *testing.T) {
	d, h := truthMatrices(t)
	p, err := NewProber(DefaultConfig(7), d, h)
	if err != nil {
		t.Fatal(err)
	}
	p.ProbeRound()
	early := p.MaxRelativeError()
	if early > 0.101 {
		t.Fatalf("single-round error %.3f exceeds probe jitter bound", early)
	}
	for i := 0; i < 400; i++ {
		p.ProbeRound()
	}
	late := p.MaxRelativeError()
	// EWMA steady state: jitter·√(α/(2−α)) ≈ 0.10·0.2 ≈ 2%; allow slack.
	if late > 0.05 {
		t.Fatalf("steady-state error %.3f, want ≤ 0.05", late)
	}
	if p.Rounds() != 401 {
		t.Fatalf("rounds = %d", p.Rounds())
	}
}

func TestProberZeroJitterIsExact(t *testing.T) {
	d, h := truthMatrices(t)
	cfg := DefaultConfig(1)
	cfg.JitterFrac = 0
	p, err := NewProber(cfg, d, h)
	if err != nil {
		t.Fatal(err)
	}
	p.ProbeRound()
	if got := p.MaxRelativeError(); got != 0 {
		t.Fatalf("zero-jitter error = %v, want 0", got)
	}
}

func TestProberEstimatesSymmetricZeroDiagonal(t *testing.T) {
	d, h := truthMatrices(t)
	p, err := NewProber(DefaultConfig(3), d, h)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		p.ProbeRound()
	}
	est := p.EstimatedD()
	for l := range est {
		if est[l][l] != 0 {
			t.Fatalf("diagonal [%d][%d] = %v", l, l, est[l][l])
		}
		for k := range est[l] {
			if est[l][k] != est[k][l] {
				t.Fatalf("estimate asymmetric at (%d,%d)", l, k)
			}
		}
	}
	// Returned copies are defensive.
	est[0][1] = 12345
	if p.EstimatedD()[0][1] == 12345 {
		t.Fatal("EstimatedD leaked internal storage")
	}
}

func TestProberValidation(t *testing.T) {
	d, h := truthMatrices(t)
	bad := []Config{
		{Seed: 1, JitterFrac: -0.1, Alpha: 0.1},
		{Seed: 1, JitterFrac: 1.0, Alpha: 0.1},
		{Seed: 1, JitterFrac: 0.1, Alpha: 0},
		{Seed: 1, JitterFrac: 0.1, Alpha: 1.5},
	}
	for i, cfg := range bad {
		if _, err := NewProber(cfg, d, h); err == nil {
			t.Fatalf("case %d: invalid config accepted", i)
		}
	}
	if _, err := NewProber(DefaultConfig(1), nil, nil); err == nil {
		t.Fatal("empty truth accepted")
	}
	if _, err := NewProber(DefaultConfig(1), [][]float64{{0, 1}}, h); err == nil {
		t.Fatal("non-square D accepted")
	}
	if _, err := NewProber(DefaultConfig(1), d, h[:1]); err == nil {
		t.Fatal("mismatched H accepted")
	}
}

// TestMeasuredScenarioStillOptimizes closes the loop the paper assumes: a
// scenario built from *estimated* (noisy) delay matrices must still
// bootstrap feasibly, and the resulting assignment — evaluated against the
// TRUE delays — must stay close to the assignment computed with perfect
// knowledge (Theorem 1's robustness claim on the real pipeline).
func TestMeasuredScenarioStillOptimizes(t *testing.T) {
	wl := workload.LargeScale(5)
	wl.NumUsers = 20
	wl.NumUserNodes = 40
	truthSc, err := workload.Generate(wl)
	if err != nil {
		t.Fatal(err)
	}
	truthH := denseH(truthSc.NumAgents(), truthSc.NumUsers(), func(l, u int) float64 {
		return truthSc.H(model.AgentID(l), model.UserID(u))
	})
	p, err := NewProber(DefaultConfig(5), truthSc.DMS, truthH)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		p.ProbeRound()
	}

	// Rebuild the scenario with estimated matrices.
	estH, err := model.MatrixDelays(p.EstimatedH(), truthSc.NumAgents(), truthSc.NumUsers())
	if err != nil {
		t.Fatal(err)
	}
	estSc, err := model.NewScenario(truthSc.Reps,
		append([]model.User(nil), truthSc.Users...),
		append([]model.Session(nil), truthSc.Sessions...),
		append([]model.Agent(nil), truthSc.Agents...),
		p.EstimatedD(), estH, truthSc.DMaxMS)
	if err != nil {
		t.Fatal(err)
	}

	params := cost.DefaultParams()
	evTruth, err := cost.NewEvaluator(truthSc, params)
	if err != nil {
		t.Fatal(err)
	}

	bootstrapOn := func(sc *model.Scenario) *assign.Assignment {
		a := assign.New(sc)
		if err := baseline.Assign(a, params, cost.NewLedger(sc)); err != nil {
			t.Fatalf("bootstrap: %v", err)
		}
		return a
	}
	aTruth := bootstrapOn(truthSc)
	aEst := bootstrapOn(estSc)

	// Evaluate both against the TRUTH. The estimated-knowledge assignment
	// must be feasible and within a modest factor of the perfect-knowledge
	// one (delay estimates within a few percent rarely flip decisions).
	rebuilt := assign.New(truthSc)
	for u := 0; u < truthSc.NumUsers(); u++ {
		rebuilt.SetUserAgent(model.UserID(u), aEst.UserAgent(model.UserID(u)))
	}
	for _, f := range rebuilt.Flows() {
		m, _ := aEst.FlowAgent(f)
		if err := rebuilt.SetFlowAgent(f, m); err != nil {
			t.Fatal(err)
		}
	}
	if err := evTruth.CheckFeasible(rebuilt); err != nil {
		t.Fatalf("estimate-driven assignment infeasible on the true network: %v", err)
	}
	truthPhi := evTruth.TotalObjective(aTruth)
	estPhi := evTruth.TotalObjective(rebuilt)
	if estPhi > truthPhi*1.25 {
		t.Fatalf("estimate-driven Φ %.1f more than 25%% above perfect-knowledge Φ %.1f",
			estPhi, truthPhi)
	}
}
