package cost

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"vconf/internal/assign"
	"vconf/internal/model"
)

// fixture builds the canonical hand-checkable instance:
//
//	3 agents (A=0, B=1, C=2), capacities 1000/1000 Mbps, 8 slots each,
//	D: A–B 10, A–C 20, B–C 30 ms; H[l][u] = 1 ms everywhere,
//	session 0: u0 upstream 1080p (8 Mbps), u1 upstream 720p (5 Mbps),
//	           u1 demands 360p (1 Mbps) of u0  ⇒  θ(u0,u1) = 1,
//	σ = 40 ms at every agent for every pair.
type fixture struct {
	sc *model.Scenario
	u0 model.UserID
	u1 model.UserID
	f  model.Flow
}

func newFixture(t *testing.T, extraUsers int) fixture {
	t.Helper()
	b := model.NewBuilder(nil)
	rs := b.Reps()
	r360, _ := rs.ByName("360p")
	r720, _ := rs.ByName("720p")
	r1080, _ := rs.ByName("1080p")
	for i := 0; i < 3; i++ {
		b.AddAgent(model.Agent{
			Name: string(rune('A' + i)), Upload: 1000, Download: 1000, TranscodeSlots: 8,
			SigmaMS: model.UniformSigma(rs.Len(), 40),
		})
	}
	s0 := b.AddSession("s0")
	u0 := b.AddUser("u0", s0, r1080, nil)
	u1 := b.AddUser("u1", s0, r720, nil)
	b.DemandFrom(u1, u0, r360)
	for i := 0; i < extraUsers; i++ {
		b.AddUser("extra", s0, r720, nil)
	}
	b.SetInterAgentDelays([][]float64{
		{0, 10, 20},
		{10, 0, 30},
		{20, 30, 0},
	})
	h := make([][]float64, 3)
	for l := range h {
		h[l] = make([]float64, 2+extraUsers)
		for u := range h[l] {
			h[l][u] = 1
		}
	}
	b.SetAgentUserDelays(h)
	sc, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return fixture{sc: sc, u0: u0, u1: u1, f: model.Flow{Src: u0, Dst: u1}}
}

func (fx fixture) assignment(t *testing.T, agentU0, agentU1, transcoder model.AgentID) *assign.Assignment {
	t.Helper()
	a := assign.New(fx.sc)
	a.SetUserAgent(fx.u0, agentU0)
	a.SetUserAgent(fx.u1, agentU1)
	if err := a.SetFlowAgent(fx.f, transcoder); err != nil {
		t.Fatalf("SetFlowAgent: %v", err)
	}
	return a
}

func TestTrafficTranscoderPlacements(t *testing.T) {
	fx := newFixture(t, 0)
	p := DefaultParams()
	const (
		kappa1080 = 8.0
		kappa360  = 1.0
	)
	tests := []struct {
		name        string
		u0, u1, m   model.AgentID
		wantTraffic float64
		wantTasksAt model.AgentID
	}{
		// Whenever u0 and u1 sit on different agents, u1's native 720p
		// stream adds a constant 5 Mbps B→A edge (term 2) on top of the
		// transcoding-dependent edges for u0's stream.
		//
		// Transcode at source agent A: only the 1 Mbps transcoded stream
		// crosses A→B. (Term 3; term 1 vanishes because m = k.)
		{"source-side", 0, 1, 0, kappa360 + 5, 0},
		// Transcode at destination agent B: the 8 Mbps raw crosses A→B
		// (term 1); transcoded copy is local (l_v = m ⇒ no term 3).
		{"dest-side", 0, 1, 1, kappa1080 + 5, 1},
		// Tertiary agent C: raw A→C (8) plus transcoded C→B (1).
		{"tertiary", 0, 1, 2, kappa1080 + kappa360 + 5, 2},
		// Everyone co-located at A: no inter-agent traffic at all.
		{"colocated", 0, 0, 0, 0, 0},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			a := fx.assignment(t, tt.u0, tt.u1, tt.m)
			sl := p.SessionLoadOf(a, 0)
			if got := sl.TotalInterTraffic(); math.Abs(got-tt.wantTraffic) > 1e-9 {
				t.Fatalf("inter-agent traffic = %v, want %v", got, tt.wantTraffic)
			}
			if got := sl.tasks[tt.wantTasksAt]; got != 1 {
				t.Fatalf("tasks at agent %d = %d, want 1", tt.wantTasksAt, got)
			}
			if got := sl.TotalTasks(); got != 1 {
				t.Fatalf("total tasks = %d, want 1", got)
			}
		})
	}
}

func TestTrafficIncludesReverseNativeFlow(t *testing.T) {
	// u1's 720p stream flows B→A untranscoded (u0 accepts native): term 2.
	fx := newFixture(t, 0)
	p := DefaultParams()
	a := fx.assignment(t, 0, 1, 0)
	sl := p.SessionLoadOf(a, 0)
	// Edges: A→B 1 (transcoded 360p), B→A 5 (u1's native 720p).
	if got := sl.inter[0]; math.Abs(got-5) > 1e-9 {
		t.Fatalf("x at agent A = %v, want 5 (u1's native stream)", got)
	}
	if got := sl.inter[1]; math.Abs(got-1) > 1e-9 {
		t.Fatalf("x at agent B = %v, want 1 (transcoded 360p)", got)
	}
}

func TestStrictVsFlowConservingTraffic(t *testing.T) {
	// Source and destination both at A, transcoder at B. Paper-strict: raw
	// A→B only (the (1−λ_lu) factor suppresses the return); flow-conserving
	// adds the 1 Mbps return B→A.
	fx := newFixture(t, 0)
	a := fx.assignment(t, 0, 0, 1)

	strict := DefaultParams()
	slStrict := strict.SessionLoadOf(a, 0)
	if got := slStrict.TotalInterTraffic(); math.Abs(got-8) > 1e-9 {
		t.Fatalf("strict traffic = %v, want 8 (raw to transcoder only)", got)
	}

	loose := DefaultParams()
	loose.StrictPaperTraffic = false
	slLoose := loose.SessionLoadOf(a, 0)
	if got := slLoose.TotalInterTraffic(); math.Abs(got-9) > 1e-9 {
		t.Fatalf("flow-conserving traffic = %v, want 9 (raw + returned 360p)", got)
	}
}

func TestLastMileAccounting(t *testing.T) {
	fx := newFixture(t, 0)
	p := DefaultParams()
	a := fx.assignment(t, 0, 1, 0)
	sl := p.SessionLoadOf(a, 0)
	// Agent A download: u0's 8 Mbps upstream + 5 Mbps incoming from B.
	if got := sl.down[0]; math.Abs(got-13) > 1e-9 {
		t.Fatalf("Down[A] = %v, want 13", got)
	}
	// Agent A upload: u0 downloads u1's 720p (5) + transcoded edge A→B (1).
	if got := sl.up[0]; math.Abs(got-6) > 1e-9 {
		t.Fatalf("Up[A] = %v, want 6", got)
	}
	// Agent B download: u1's 5 Mbps upstream + 1 Mbps transcoded incoming.
	if got := sl.down[1]; math.Abs(got-6) > 1e-9 {
		t.Fatalf("Down[B] = %v, want 6", got)
	}
	// Agent B upload: u1 downloads u0-as-360p (1) + native edge B→A (5).
	if got := sl.up[1]; math.Abs(got-6) > 1e-9 {
		t.Fatalf("Up[B] = %v, want 6", got)
	}
}

func TestTaskDeduplicationAcrossDestinations(t *testing.T) {
	// Two destinations demanding the same 360p of u0, transcoded at the same
	// agent ⇒ one ν task; a third destination demanding 480p ⇒ second task.
	b := model.NewBuilder(nil)
	rs := b.Reps()
	r360, _ := rs.ByName("360p")
	r480, _ := rs.ByName("480p")
	r1080, _ := rs.ByName("1080p")
	for i := 0; i < 2; i++ {
		b.AddAgent(model.Agent{Upload: 1000, Download: 1000, TranscodeSlots: 8})
	}
	s := b.AddSession("s")
	u0 := b.AddUser("u0", s, r1080, nil)
	d1 := b.AddUser("d1", s, r1080, nil)
	d2 := b.AddUser("d2", s, r1080, nil)
	d3 := b.AddUser("d3", s, r1080, nil)
	b.DemandFrom(d1, u0, r360)
	b.DemandFrom(d2, u0, r360)
	b.DemandFrom(d3, u0, r480)
	sc, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	a := assign.New(sc)
	for _, u := range []model.UserID{u0, d1, d2, d3} {
		a.SetUserAgent(u, 0)
	}
	for _, f := range a.Flows() {
		if err := a.SetFlowAgent(f, 1); err != nil {
			t.Fatal(err)
		}
	}
	p := DefaultParams()
	sl := p.SessionLoadOf(a, 0)
	if got := sl.tasks[1]; got != 2 {
		t.Fatalf("tasks at transcoder = %d, want 2 (360p + 480p)", got)
	}
	// Traffic: raw 0→1 (8 Mbps, one copy). Transcoded copies back toward
	// agent 0 are suppressed by the strict (1−λ_lu) factor since u0 is there.
	if got := sl.TotalInterTraffic(); math.Abs(got-8) > 1e-9 {
		t.Fatalf("traffic = %v, want 8", got)
	}
}

func TestFlowDelay(t *testing.T) {
	fx := newFixture(t, 0)
	tests := []struct {
		name      string
		u0, u1, m model.AgentID
		want      float64
	}{
		// H + H + D(A,m) + D(m,B) + σ = 1+1+0+10+40 (transcode at source).
		{"transcode at source", 0, 1, 0, 52},
		// 1+1+10+0+40 (transcode at destination).
		{"transcode at dest", 0, 1, 1, 52},
		// 1+1+20+30+40 via C.
		{"transcode tertiary", 0, 1, 2, 92},
		// co-located with local transcoder: 1+1+0+0+40.
		{"colocated", 0, 0, 0, 42},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			a := fx.assignment(t, tt.u0, tt.u1, tt.m)
			if got := FlowDelayMS(a, fx.f); math.Abs(got-tt.want) > 1e-9 {
				t.Fatalf("FlowDelayMS = %v, want %v", got, tt.want)
			}
		})
	}
}

func TestFlowDelayNoTranscoding(t *testing.T) {
	fx := newFixture(t, 0)
	a := fx.assignment(t, 0, 1, 0)
	// u1 → u0 has no transcoding: 1 + 1 + D(B,A)=10.
	got := FlowDelayMS(a, model.Flow{Src: fx.u1, Dst: fx.u0})
	if math.Abs(got-12) > 1e-9 {
		t.Fatalf("native flow delay = %v, want 12", got)
	}
}

func TestFlowDelayUnassignedIsInfinite(t *testing.T) {
	fx := newFixture(t, 0)
	a := assign.New(fx.sc)
	if !math.IsInf(FlowDelayMS(a, fx.f), 1) {
		t.Fatal("unassigned flow should have +Inf delay")
	}
	a.SetUserAgent(fx.u0, 0)
	a.SetUserAgent(fx.u1, 1)
	// Transcoding flow without transcoder: still infinite.
	if !math.IsInf(FlowDelayMS(a, fx.f), 1) {
		t.Fatal("flow without transcoder should have +Inf delay")
	}
}

func TestSessionDelaysAndFeasibility(t *testing.T) {
	fx := newFixture(t, 0)
	a := fx.assignment(t, 0, 1, 2) // worst case: 92 ms transcoded flow
	sd := SessionDelaysOf(a, 0)
	if math.Abs(sd.WorstMS-92) > 1e-9 {
		t.Fatalf("WorstMS = %v, want 92", sd.WorstMS)
	}
	if sd.WorstFlow != fx.f {
		t.Fatalf("WorstFlow = %v, want %v", sd.WorstFlow, fx.f)
	}
	// d_u0 = max incoming = 12 (from u1); d_u1 = 92. Mean = 52.
	if math.Abs(sd.MeanOfMaxMS-52) > 1e-9 {
		t.Fatalf("MeanOfMaxMS = %v, want 52", sd.MeanOfMaxMS)
	}
	if !DelayFeasible(a, 0) {
		t.Fatal("session should satisfy the 400 ms cap")
	}
}

func TestDelayConstraintViolation(t *testing.T) {
	fx := newFixture(t, 0)
	// Shrink Dmax below the best achievable (42 ms) via a rebuilt scenario.
	b := model.NewBuilder(nil)
	rs := b.Reps()
	r360, _ := rs.ByName("360p")
	r1080, _ := rs.ByName("1080p")
	b.AddAgent(model.Agent{Upload: 1000, Download: 1000, TranscodeSlots: 8,
		SigmaMS: model.UniformSigma(rs.Len(), 40)})
	s := b.AddSession("s")
	u0 := b.AddUser("u0", s, r1080, nil)
	u1 := b.AddUser("u1", s, r1080, nil)
	b.DemandFrom(u1, u0, r360)
	b.SetDelayCap(30)
	sc, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	a := assign.New(sc)
	a.SetUserAgent(u0, 0)
	a.SetUserAgent(u1, 0)
	if err := a.SetFlowAgent(model.Flow{Src: u0, Dst: u1}, 0); err != nil {
		t.Fatal(err)
	}
	if DelayFeasible(a, 0) {
		t.Fatal("40 ms σ should violate a 30 ms cap")
	}
	ev, err := NewEvaluator(sc, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	if err := ev.CheckFeasible(a); err == nil {
		t.Fatal("CheckFeasible should report the delay violation")
	}
	_ = fx
}

// TestDelayCapBoundaryIsFeasible pins constraint (8) at its boundary,
// d_uv ≤ Dmax: a session whose worst flow delay equals the cap exactly is
// feasible on all three paths that judge it (the flow-wise check, the
// sparse kernel's session report, and CheckFeasible), and one ulp less of
// cap makes all three reject it.
func TestDelayCapBoundaryIsFeasible(t *testing.T) {
	fx := newFixture(t, 0)
	a := fx.assignment(t, 0, 1, 2)
	worst := SessionDelaysOf(a, 0).WorstMS
	for _, c := range []struct {
		dMaxMS float64
		want   bool
	}{
		{worst, true},
		{math.Nextafter(worst, 0), false},
	} {
		fx.sc.DMaxMS = c.dMaxMS
		ev, err := NewEvaluator(fx.sc, DefaultParams())
		if err != nil {
			t.Fatal(err)
		}
		rep := ev.ReportSession(a, 0)
		if rep.WorstDelayMS != worst {
			t.Fatalf("report worst %v, flow-wise worst %v: the two paths disagree", rep.WorstDelayMS, worst)
		}
		if got := DelayFeasible(a, 0); got != c.want {
			t.Fatalf("DelayFeasible at Dmax %v (worst %v) = %v, want %v", c.dMaxMS, worst, got, c.want)
		}
		if rep.DelayFeasible != c.want {
			t.Fatalf("ReportSession.DelayFeasible at Dmax %v (worst %v) = %v, want %v", c.dMaxMS, worst, rep.DelayFeasible, c.want)
		}
		if err := ev.CheckFeasible(a); (err == nil) != c.want {
			t.Fatalf("CheckFeasible at Dmax %v (worst %v) = %v, want feasible %v", c.dMaxMS, worst, err, c.want)
		}
	}
}

func TestObjectiveComposition(t *testing.T) {
	fx := newFixture(t, 0)
	a := fx.assignment(t, 0, 1, 0)
	p := DefaultParams()
	ev, err := NewEvaluator(fx.sc, p)
	if err != nil {
		t.Fatal(err)
	}
	// F = mean(max incoming): u0 ← 12, u1 ← 52 ⇒ 32. G = 6 Mbps (5+1).
	// H = 1 task. Φ = 32 + 6 + 1 = 39.
	if got := ev.SessionObjective(a, 0); math.Abs(got-39) > 1e-9 {
		t.Fatalf("Φ_s = %v, want 39", got)
	}
	if got := ev.TotalObjective(a); math.Abs(got-39) > 1e-9 {
		t.Fatalf("Φ = %v, want 39", got)
	}

	// Alpha weights scale the parts.
	p2 := Params{Alpha1: 2, Alpha2: 0.5, Alpha3: 0, TrafficExponent: 1, TranscodeExponent: 1, StrictPaperTraffic: true}
	ev2, err := NewEvaluator(fx.sc, p2)
	if err != nil {
		t.Fatal(err)
	}
	if got := ev2.SessionObjective(a, 0); math.Abs(got-(2*32+0.5*6)) > 1e-9 {
		t.Fatalf("weighted Φ_s = %v, want %v", got, 2*32+0.5*6)
	}
}

func TestConvexCostExponents(t *testing.T) {
	fx := newFixture(t, 0)
	p := DefaultParams()
	p.TrafficExponent = 2
	p.TranscodeExponent = 2
	ev, err := NewEvaluator(fx.sc, p)
	if err != nil {
		t.Fatal(err)
	}
	a := fx.assignment(t, 0, 1, 0)
	// G = 5² + 1² = 26, H = 1² = 1, F = 32.
	if got := ev.SessionObjective(a, 0); math.Abs(got-(32+26+1)) > 1e-9 {
		t.Fatalf("quadratic Φ_s = %v, want 59", got)
	}
}

func TestParamsValidate(t *testing.T) {
	tests := []struct {
		name   string
		mutate func(*Params)
		ok     bool
	}{
		{"default", func(p *Params) {}, true},
		{"negative alpha", func(p *Params) { p.Alpha1 = -1 }, false},
		{"all zero", func(p *Params) { p.Alpha1, p.Alpha2, p.Alpha3 = 0, 0, 0 }, false},
		{"bad exponent", func(p *Params) { p.TrafficExponent = 0.5 }, false},
		{"delay only preset", func(p *Params) { *p = DelayOnlyParams() }, true},
		{"traffic only preset", func(p *Params) { *p = TrafficOnlyParams() }, true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			p := DefaultParams()
			tt.mutate(&p)
			if err := p.Validate(); (err == nil) != tt.ok {
				t.Fatalf("Validate() = %v, want ok=%v", err, tt.ok)
			}
		})
	}
}

func TestLedgerAddRemoveFits(t *testing.T) {
	fx := newFixture(t, 0)
	p := DefaultParams()
	a := fx.assignment(t, 0, 1, 2)
	sl := p.SessionLoadOf(a, 0)
	g := NewLedger(fx.sc)
	if !g.Fits(nil) {
		t.Fatal("empty ledger should fit")
	}
	if !g.Fits(sl) {
		t.Fatal("single session should fit 1000 Mbps agents")
	}
	g.Add(sl)
	g.Remove(sl)
	down, up, tasks := g.Usage()
	for l := range down {
		if down[l] != 0 || up[l] != 0 || tasks[l] != 0 {
			t.Fatalf("ledger not restored after add/remove at agent %d", l)
		}
	}
}

func TestLedgerRejectsOverCapacity(t *testing.T) {
	// Tiny agent: 6 Mbps capacities cannot absorb u0's 8 Mbps upstream.
	b := model.NewBuilder(nil)
	rs := b.Reps()
	r1080, _ := rs.ByName("1080p")
	b.AddAgent(model.Agent{Upload: 6, Download: 6, TranscodeSlots: 0})
	s := b.AddSession("s")
	u0 := b.AddUser("u0", s, r1080, nil)
	u1 := b.AddUser("u1", s, r1080, nil)
	sc, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	a := assign.New(sc)
	a.SetUserAgent(u0, 0)
	a.SetUserAgent(u1, 0)
	p := DefaultParams()
	sl := p.SessionLoadOf(a, 0)
	g := NewLedger(sc)
	if g.Fits(sl) {
		t.Fatal("8 Mbps upstream must not fit a 6 Mbps agent")
	}
	ev, err := NewEvaluator(sc, p)
	if err != nil {
		t.Fatal(err)
	}
	if err := ev.CheckFeasible(a); err == nil {
		t.Fatal("CheckFeasible must reject over-capacity assignment")
	}
}

func TestCheckFeasibleTranscodeSlots(t *testing.T) {
	// One slot, two distinct transcoding tasks at the same agent.
	b := model.NewBuilder(nil)
	rs := b.Reps()
	r360, _ := rs.ByName("360p")
	r480, _ := rs.ByName("480p")
	r1080, _ := rs.ByName("1080p")
	b.AddAgent(model.Agent{Upload: 1000, Download: 1000, TranscodeSlots: 1})
	s := b.AddSession("s")
	u0 := b.AddUser("u0", s, r1080, nil)
	d1 := b.AddUser("d1", s, r1080, nil)
	d2 := b.AddUser("d2", s, r1080, nil)
	b.DemandFrom(d1, u0, r360)
	b.DemandFrom(d2, u0, r480)
	sc, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	a := assign.New(sc)
	for _, u := range []model.UserID{u0, d1, d2} {
		a.SetUserAgent(u, 0)
	}
	for _, f := range a.Flows() {
		if err := a.SetFlowAgent(f, 0); err != nil {
			t.Fatal(err)
		}
	}
	ev, err := NewEvaluator(sc, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	if err := ev.CheckFeasible(a); err == nil {
		t.Fatal("two tasks must not fit one transcoding slot")
	}
}

func TestReportSystemAggregates(t *testing.T) {
	fx := newFixture(t, 1) // one extra 720p user in the session
	a := assign.New(fx.sc)
	a.SetUserAgent(fx.u0, 0)
	a.SetUserAgent(fx.u1, 1)
	a.SetUserAgent(model.UserID(2), 1)
	if err := a.SetFlowAgent(fx.f, 0); err != nil {
		t.Fatal(err)
	}
	ev, err := NewEvaluator(fx.sc, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	rep := ev.ReportSystem(a)
	if len(rep.SessionReports) != 1 {
		t.Fatalf("sessions = %d, want 1", len(rep.SessionReports))
	}
	if rep.InterTraffic <= 0 {
		t.Fatal("inter-agent traffic should be positive")
	}
	if !rep.AllDelayOK {
		t.Fatal("delays must be within the 400 ms cap")
	}
	if math.Abs(rep.Objective-ev.TotalObjective(a)) > 1e-9 {
		t.Fatal("report objective disagrees with TotalObjective")
	}
	if rep.MeanDelayMS <= 0 || rep.WorstDelayMS < rep.MeanDelayMS {
		t.Fatalf("delay stats inconsistent: mean %v worst %v", rep.MeanDelayMS, rep.WorstDelayMS)
	}
	// The paper's conferencing delay: the mean over all users of each
	// user's maximum incoming-flow delay.
	total, users := 0.0, 0
	for s := 0; s < fx.sc.NumSessions(); s++ {
		for _, d := range SessionDelaysOf(a, model.SessionID(s)).PerUserMaxMS {
			total += d
			users++
		}
	}
	if want := total / float64(users); math.Abs(rep.MeanDelayMS-want) > 1e-9 {
		t.Fatalf("MeanDelayMS = %v, want the mean of per-user maxima %v", rep.MeanDelayMS, want)
	}
}

func TestIncompleteAssignmentContributesNothing(t *testing.T) {
	fx := newFixture(t, 0)
	p := DefaultParams()
	a := assign.New(fx.sc)
	sl := p.SessionLoadOf(a, 0)
	if sl.TotalInterTraffic() != 0 || sl.TotalTasks() != 0 {
		t.Fatal("unassigned session generated load")
	}
	ev, err := NewEvaluator(fx.sc, p)
	if err != nil {
		t.Fatal(err)
	}
	if err := ev.CheckFeasible(a); err == nil {
		t.Fatal("incomplete assignment must be infeasible")
	}
}

// Property: for random complete assignments of a random small scenario,
// (a) every load entry is non-negative,
// (b) Σ Inter equals total Up-side inter edges (conservation inside the
//
//	session-load bookkeeping),
//
// (c) ledger add/remove returns to zero,
// (d) TotalObjective equals the sum of session objectives.
func TestSessionLoadInvariantsProperty(t *testing.T) {
	p := DefaultParams()
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		sc := randomScenario(rng)
		ev, err := NewEvaluator(sc, p)
		if err != nil {
			return false
		}
		a := assign.New(sc)
		for u := 0; u < sc.NumUsers(); u++ {
			a.SetUserAgent(model.UserID(u), model.AgentID(rng.Intn(sc.NumAgents())))
		}
		for _, f := range a.Flows() {
			if err := a.SetFlowAgent(f, model.AgentID(rng.Intn(sc.NumAgents()))); err != nil {
				return false
			}
		}
		g := NewLedger(sc)
		sumPhi := 0.0
		for s := 0; s < sc.NumSessions(); s++ {
			sl := p.SessionLoadOf(a, model.SessionID(s))
			interSum, upSum, downSum := 0.0, 0.0, 0.0
			for l := range sl.inter {
				if sl.inter[l] < 0 || sl.up[l] < 0 || sl.down[l] < 0 || sl.tasks[l] < 0 {
					return false
				}
				interSum += sl.inter[l]
				upSum += sl.up[l]
				downSum += sl.down[l]
			}
			// Up = last-mile downstream + inter edges; Down = last-mile
			// upstream + inter edges. So Σup − Σinter and Σdown − Σinter are
			// the last-mile parts, both non-negative.
			if upSum-interSum < -1e-9 || downSum-interSum < -1e-9 {
				return false
			}
			g.Add(sl)
			sumPhi += ev.SessionObjective(a, model.SessionID(s))
		}
		if math.Abs(sumPhi-ev.TotalObjective(a)) > 1e-6 {
			return false
		}
		for s := 0; s < sc.NumSessions(); s++ {
			g.Remove(p.SessionLoadOf(a, model.SessionID(s)))
		}
		down, up, tasks := g.Usage()
		for l := range down {
			if math.Abs(down[l]) > 1e-6 || math.Abs(up[l]) > 1e-6 || tasks[l] != 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

// randomScenario builds a random small scenario: 2–4 agents, 1–3 sessions of
// 2–4 users, random upstream reps, ~50% of flows demanding a random rep.
func randomScenario(rng *rand.Rand) *model.Scenario {
	b := model.NewBuilder(nil)
	nAgents := 2 + rng.Intn(3)
	for i := 0; i < nAgents; i++ {
		b.AddAgent(model.Agent{Upload: 1e6, Download: 1e6, TranscodeSlots: 100})
	}
	nSessions := 1 + rng.Intn(3)
	type pair struct{ u, v model.UserID }
	var demands []pair
	for s := 0; s < nSessions; s++ {
		sid := b.AddSession("s")
		n := 2 + rng.Intn(3)
		ids := make([]model.UserID, n)
		for i := 0; i < n; i++ {
			ids[i] = b.AddUser("u", sid, model.Representation(rng.Intn(4)), nil)
		}
		for _, u := range ids {
			for _, v := range ids {
				if u != v && rng.Intn(2) == 0 {
					demands = append(demands, pair{u, v})
				}
			}
		}
	}
	for _, d := range demands {
		b.DemandFrom(d.u, d.v, model.Representation(rng.Intn(4)))
	}
	sc, err := b.Build()
	if err != nil {
		panic(err)
	}
	return sc
}
