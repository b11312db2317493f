package confsim

import (
	"math"
	"testing"

	"vconf/internal/assign"
	"vconf/internal/baseline"
	"vconf/internal/cost"
	"vconf/internal/model"
)

// buildScenario: 2 agents, 1 session of 2 users (u0 1080p → u1 demands
// 360p), users nearest different agents.
func buildScenario(t *testing.T) (*model.Scenario, *assign.Assignment) {
	t.Helper()
	b := model.NewBuilder(nil)
	rs := b.Reps()
	r360, _ := rs.ByName("360p")
	r720, _ := rs.ByName("720p")
	r1080, _ := rs.ByName("1080p")
	for i := 0; i < 2; i++ {
		b.AddAgent(model.Agent{Upload: 1000, Download: 1000, TranscodeSlots: 4})
	}
	s := b.AddSession("s")
	u0 := b.AddUser("u0", s, r1080, nil)
	u1 := b.AddUser("u1", s, r720, nil)
	b.DemandFrom(u1, u0, r360)
	b.SetInterAgentDelays([][]float64{{0, 20}, {20, 0}})
	b.SetAgentUserDelays([][]float64{{5, 50}, {50, 5}})
	sc, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	a := assign.New(sc)
	if err := baseline.Assign(a, cost.DefaultParams(), cost.NewLedger(sc)); err != nil {
		t.Fatal(err)
	}
	return sc, a
}

func noJitter(seed int64) Config {
	cfg := DefaultConfig(seed)
	cfg.JitterFrac = 0
	return cfg
}

func TestTickSteadyStateMatchesCostModel(t *testing.T) {
	sc, a := buildScenario(t)
	p := cost.DefaultParams()
	rt, err := New(sc, p, noJitter(1))
	if err != nil {
		t.Fatal(err)
	}
	rt.SetAssignment(a)
	tel, err := rt.Tick(1)
	if err != nil {
		t.Fatal(err)
	}
	want := p.SessionLoadOf(a, 0).TotalInterTraffic()
	if math.Abs(tel.SteadyMbps-want) > 1e-9 {
		t.Fatalf("steady = %v, want %v", tel.SteadyMbps, want)
	}
	if math.Abs(tel.InterAgentMbps-want) > 1e-9 {
		t.Fatalf("measured = %v, want %v (no jitter, no migration)", tel.InterAgentMbps, want)
	}
	ev, err := cost.NewEvaluator(sc, p)
	if err != nil {
		t.Fatal(err)
	}
	wantDelay := ev.ReportSystem(a).MeanDelayMS
	if math.Abs(tel.MeanDelayMS-wantDelay) > 1e-9 {
		t.Fatalf("delay = %v, want %v", tel.MeanDelayMS, wantDelay)
	}
	if tel.ActiveSessions != 1 {
		t.Fatalf("active = %d, want 1", tel.ActiveSessions)
	}
	// 2 users → 2 flows × 30 fps × 1 s = 60 frames; 1 transcoded flow → 30.
	if tel.FramesRelayed != 60 || tel.FramesTranscoded != 30 {
		t.Fatalf("frames = %d/%d, want 60/30", tel.FramesRelayed, tel.FramesTranscoded)
	}
}

func TestMigrationDualFeedOverhead(t *testing.T) {
	sc, a := buildScenario(t)
	p := cost.DefaultParams()
	cfg := noJitter(2)
	cfg.DualFeedWindowS = 0.5 // stretch the window for measurable overlap
	rt, err := New(sc, p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rt.SetAssignment(a)

	// Move user 1 to agent 0 at t=0; its 720p (5 Mbps) stream dual-feeds
	// for 0.5 s.
	if err := rt.Migrate(0, assign.Decision{Kind: assign.UserMove, User: 1, To: 0}); err != nil {
		t.Fatal(err)
	}
	tel, err := rt.Tick(1)
	if err != nil {
		t.Fatal(err)
	}
	// Overhead = 5 Mbps × 0.5 s / 1 s tick = 2.5 Mbps average.
	if math.Abs(tel.OverheadMbps-2.5) > 1e-9 {
		t.Fatalf("overhead = %v, want 2.5", tel.OverheadMbps)
	}
	if math.Abs(tel.InterAgentMbps-(tel.SteadyMbps+2.5)) > 1e-9 {
		t.Fatal("measured traffic must include the dual-feed overhead")
	}
	// The data-plane assignment tracked the migration.
	if got := rt.Assignment().UserAgent(1); got != 0 {
		t.Fatalf("user 1 at %d after migration, want 0", got)
	}
	// Next tick: feed expired, overhead gone.
	tel2, err := rt.Tick(1)
	if err != nil {
		t.Fatal(err)
	}
	if tel2.OverheadMbps != 0 {
		t.Fatalf("overhead after expiry = %v, want 0", tel2.OverheadMbps)
	}
	st := rt.Stats()
	if st.Migrations != 1 || st.FrozenFrames != 0 {
		t.Fatalf("stats = %+v; want 1 migration, 0 freezes", st)
	}
	if math.Abs(st.TotalOverheadMbpsS-2.5) > 1e-9 {
		t.Fatalf("total overhead = %v, want 2.5 Mbps·s", st.TotalOverheadMbpsS)
	}
}

func TestMigrationWithoutDualFeedFreezes(t *testing.T) {
	sc, a := buildScenario(t)
	cfg := noJitter(3)
	cfg.DualFeed = false
	rt, err := New(sc, cost.DefaultParams(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	rt.SetAssignment(a)
	if err := rt.Migrate(0, assign.Decision{Kind: assign.UserMove, User: 0, To: 1}); err != nil {
		t.Fatal(err)
	}
	st := rt.Stats()
	// User 0 has 1 participant → 3 freeze frames.
	if st.FrozenFrames != 3 {
		t.Fatalf("frozen frames = %d, want 3", st.FrozenFrames)
	}
	if st.TotalOverheadMbpsS != 0 {
		t.Fatal("no dual feed ⇒ no overhead")
	}
	_ = sc
}

func TestFlowMigration(t *testing.T) {
	sc, a := buildScenario(t)
	rt, err := New(sc, cost.DefaultParams(), noJitter(4))
	if err != nil {
		t.Fatal(err)
	}
	rt.SetAssignment(a)
	f := model.Flow{Src: 0, Dst: 1}
	if err := rt.Migrate(0, assign.Decision{Kind: assign.FlowMove, Flow: f, To: 1}); err != nil {
		t.Fatal(err)
	}
	if m, _ := rt.Assignment().FlowAgent(f); m != 1 {
		t.Fatalf("flow transcoder = %d, want 1", m)
	}
	if err := rt.Migrate(0, assign.Decision{}); err == nil {
		t.Fatal("invalid decision accepted")
	}
}

func TestActivateDeactivateSession(t *testing.T) {
	sc, a := buildScenario(t)
	rt, err := New(sc, cost.DefaultParams(), noJitter(5))
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.ActivateSession(0, a); err != nil {
		t.Fatal(err)
	}
	tel, err := rt.Tick(1)
	if err != nil {
		t.Fatal(err)
	}
	if tel.ActiveSessions != 1 || tel.SteadyMbps == 0 {
		t.Fatalf("activated session not measured: %+v", tel)
	}
	rt.DeactivateSession(0)
	tel, err = rt.Tick(1)
	if err != nil {
		t.Fatal(err)
	}
	if tel.ActiveSessions != 0 || tel.SteadyMbps != 0 {
		t.Fatalf("deactivated session still measured: %+v", tel)
	}
	// Incomplete assignment rejected.
	empty := assign.New(sc)
	if err := rt.ActivateSession(0, empty); err == nil {
		t.Fatal("incomplete session activation accepted")
	}
}

func TestJitterBoundedAndDeterministic(t *testing.T) {
	sc, a := buildScenario(t)
	cfg := DefaultConfig(7)
	cfg.JitterFrac = 0.02
	run := func() []float64 {
		rt, err := New(sc, cost.DefaultParams(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		rt.SetAssignment(a)
		var out []float64
		for i := 0; i < 50; i++ {
			tel, err := rt.Tick(1)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, tel.InterAgentMbps)
		}
		return out
	}
	r1, r2 := run(), run()
	steady := cost.DefaultParams().SessionLoadOf(a, 0).TotalInterTraffic()
	varied := false
	for i := range r1 {
		if r1[i] != r2[i] {
			t.Fatalf("jitter not deterministic at tick %d", i)
		}
		if math.Abs(r1[i]-steady) > steady*0.021 {
			t.Fatalf("jitter exceeds 2%%: %v vs steady %v", r1[i], steady)
		}
		if r1[i] != steady {
			varied = true
		}
	}
	if !varied {
		t.Fatal("jitter never moved the measurement")
	}
}

func TestTickValidation(t *testing.T) {
	sc, _ := buildScenario(t)
	rt, err := New(sc, cost.DefaultParams(), noJitter(8))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rt.Tick(0); err == nil {
		t.Fatal("zero tick accepted")
	}
	if _, err := rt.Tick(-1); err == nil {
		t.Fatal("negative tick accepted")
	}
	bad := DefaultConfig(1)
	bad.FrameRateFPS = 0
	if _, err := New(sc, cost.DefaultParams(), bad); err == nil {
		t.Fatal("invalid config accepted")
	}
}

func TestSegmentedFlowMigrationDefersToBoundary(t *testing.T) {
	sc, a := buildScenario(t)
	cfg := noJitter(11)
	cfg.SegmentSeconds = 2.0
	rt, err := New(sc, cost.DefaultParams(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	rt.SetAssignment(a)
	f := model.Flow{Src: 0, Dst: 1}
	before, _ := rt.Assignment().FlowAgent(f)

	// Migrate mid-segment at t=0.5: boundary is t=2.
	if err := rt.Migrate(0.5, assign.Decision{Kind: assign.FlowMove, Flow: f, To: 1 - before}); err != nil {
		t.Fatal(err)
	}
	// Before the boundary the old transcoder still runs.
	if _, err := rt.Tick(1.0); err != nil { // now = 1.5
		t.Fatal(err)
	}
	if m, _ := rt.Assignment().FlowAgent(f); m != before {
		t.Fatalf("transcoder switched before the segment boundary: %d", m)
	}
	// Crossing the boundary executes the handoff.
	if _, err := rt.Tick(1.0); err != nil { // now = 2.5 > 2
		t.Fatal(err)
	}
	if m, _ := rt.Assignment().FlowAgent(f); m == before {
		t.Fatal("transcoder did not switch after the segment boundary")
	}
	st := rt.Stats()
	if st.Migrations != 1 || st.SegmentHandoffs != 1 {
		t.Fatalf("stats = %+v; want 1 migration, 1 handoff", st)
	}
	// Segmented transcoder moves carry no dual-feed overhead and no freezes.
	if st.TotalOverheadMbpsS != 0 || st.FrozenFrames != 0 {
		t.Fatalf("segmented handoff generated overhead/freezes: %+v", st)
	}
}

func TestSegmentedUserMoveStillDualFeeds(t *testing.T) {
	sc, a := buildScenario(t)
	cfg := noJitter(12)
	cfg.SegmentSeconds = 2.0
	cfg.DualFeedWindowS = 0.5
	rt, err := New(sc, cost.DefaultParams(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	rt.SetAssignment(a)
	if err := rt.Migrate(0, assign.Decision{Kind: assign.UserMove, User: 1, To: 0}); err != nil {
		t.Fatal(err)
	}
	tel, err := rt.Tick(1)
	if err != nil {
		t.Fatal(err)
	}
	if tel.OverheadMbps == 0 {
		t.Fatal("user migration must dual-feed even with segmentation enabled")
	}
	// User moves take effect immediately.
	if got := rt.Assignment().UserAgent(1); got != 0 {
		t.Fatalf("user at %d, want 0 immediately", got)
	}
}

func TestSegmentBoundaryMath(t *testing.T) {
	tests := []struct{ t, seg, want float64 }{
		{0, 2, 2}, {0.5, 2, 2}, {2, 2, 4}, {3.9, 2, 4}, {4.0, 2, 6},
	}
	for _, tt := range tests {
		if got := nextSegmentBoundary(tt.t, tt.seg); got != tt.want {
			t.Fatalf("nextSegmentBoundary(%v, %v) = %v, want %v", tt.t, tt.seg, got, tt.want)
		}
	}
}

func TestNegativeSegmentRejected(t *testing.T) {
	sc, _ := buildScenario(t)
	cfg := noJitter(13)
	cfg.SegmentSeconds = -1
	if _, err := New(sc, cost.DefaultParams(), cfg); err == nil {
		t.Fatal("negative segment length accepted")
	}
}
