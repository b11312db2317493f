package model

import (
	"testing"
	"testing/quick"
)

func TestNewRepresentationSetValidation(t *testing.T) {
	tests := []struct {
		name    string
		specs   []RepSpec
		wantErr bool
	}{
		{"valid ascending", []RepSpec{{"a", 1}, {"b", 2}}, false},
		{"empty", nil, true},
		{"zero bitrate", []RepSpec{{"a", 0}}, true},
		{"negative bitrate", []RepSpec{{"a", -1}}, true},
		{"non increasing", []RepSpec{{"a", 2}, {"b", 2}}, true},
		{"decreasing", []RepSpec{{"a", 3}, {"b", 1}}, true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			_, err := NewRepresentationSet(tt.specs)
			if (err != nil) != tt.wantErr {
				t.Fatalf("NewRepresentationSet() error = %v, wantErr %v", err, tt.wantErr)
			}
		})
	}
}

func TestDefaultRepresentations(t *testing.T) {
	rs := DefaultRepresentations()
	if rs.Len() != 4 {
		t.Fatalf("Len() = %d, want 4", rs.Len())
	}
	r720, ok := rs.ByName("720p")
	if !ok {
		t.Fatal("ByName(720p) not found")
	}
	if got := rs.Bitrate(r720); got != 5.0 {
		t.Fatalf("Bitrate(720p) = %v, want 5.0", got)
	}
	if _, ok := rs.ByName("4k"); ok {
		t.Fatal("ByName(4k) unexpectedly found")
	}
	if rs.Valid(Representation(4)) {
		t.Fatal("Valid(4) should be false")
	}
	if rs.Valid(NoRepresentation) {
		t.Fatal("Valid(NoRepresentation) should be false")
	}
	all := rs.All()
	if len(all) != 4 || all[0] != 0 || all[3] != 3 {
		t.Fatalf("All() = %v", all)
	}
}

func TestRepresentationName(t *testing.T) {
	rs := DefaultRepresentations()
	if got := rs.Name(0); got != "360p" {
		t.Fatalf("Name(0) = %q", got)
	}
	if got := rs.Name(Representation(99)); got != "rep#99" {
		t.Fatalf("Name(99) = %q", got)
	}
}

// buildTwoSessionScenario builds a small two-session scenario used across
// the model tests: session 0 with three users (one 1080p producer demanded
// at 360p by a peer), session 1 with two users, three agents.
func buildTwoSessionScenario(t *testing.T) *Scenario {
	t.Helper()
	b := NewBuilder(nil)
	rs := b.Reps()
	r360, _ := rs.ByName("360p")
	r720, _ := rs.ByName("720p")
	r1080, _ := rs.ByName("1080p")

	for i := 0; i < 3; i++ {
		b.AddAgent(Agent{Name: "agent", Upload: 1000, Download: 1000, TranscodeSlots: 10})
	}
	s0 := b.AddSession("s0")
	u0 := b.AddUser("u0", s0, r1080, nil)
	u1 := b.AddUser("u1", s0, r720, nil)
	b.AddUser("u2", s0, r360, nil)
	s1 := b.AddSession("s1")
	b.AddUser("u3", s1, r720, nil)
	b.AddUser("u4", s1, r720, nil)

	// u1 demands 360p for u0's 1080p stream → θ[u0][u1] = 1.
	b.DemandFrom(u1, u0, r360)

	sc, err := b.Build()
	if err != nil {
		t.Fatalf("Build() error: %v", err)
	}
	return sc
}

func TestScenarioTheta(t *testing.T) {
	sc := buildTwoSessionScenario(t)
	if !sc.Theta(0, 1) {
		t.Fatal("Theta(0,1) = false, want true (u1 demands 360p of u0's 1080p)")
	}
	if sc.Theta(1, 0) {
		t.Fatal("Theta(1,0) = true, want false")
	}
	if sc.Theta(0, 2) {
		t.Fatal("Theta(0,2) = true, want false (u2 accepts native)")
	}
	if sc.Theta(3, 4) || sc.Theta(4, 3) {
		t.Fatal("session 1 flows need no transcoding")
	}
	if got := sc.ThetaSum(); got != 1 {
		t.Fatalf("ThetaSum() = %d, want 1", got)
	}
}

func TestScenarioParticipants(t *testing.T) {
	sc := buildTwoSessionScenario(t)
	p := sc.Participants(0)
	if len(p) != 2 || p[0] != 1 || p[1] != 2 {
		t.Fatalf("Participants(0) = %v, want [1 2]", p)
	}
	p = sc.Participants(3)
	if len(p) != 1 || p[0] != 4 {
		t.Fatalf("Participants(3) = %v, want [4]", p)
	}
}

func TestSessionThetaFlows(t *testing.T) {
	sc := buildTwoSessionScenario(t)
	flows := sc.SessionThetaFlows(0)
	if len(flows) != 1 || flows[0].Src != 0 || flows[0].Dst != 1 {
		t.Fatalf("SessionThetaFlows(0) = %v", flows)
	}
	if got := sc.SessionThetaFlows(1); len(got) != 0 {
		t.Fatalf("SessionThetaFlows(1) = %v, want empty", got)
	}
	if r := sc.DownstreamRep(flows[0]); sc.Reps.Name(r) != "360p" {
		t.Fatalf("DownstreamRep = %v", sc.Reps.Name(r))
	}
}

func TestNearestAgentAndProximityOrder(t *testing.T) {
	b := NewBuilder(nil)
	for i := 0; i < 3; i++ {
		b.AddAgent(Agent{Name: "a", Upload: 10, Download: 10})
	}
	s := b.AddSession("s")
	b.AddUser("u", s, 0, nil)
	b.AddUser("v", s, 0, nil)
	b.SetAgentUserDelays([][]float64{
		{30, 5},
		{10, 5},
		{20, 7},
	})
	sc, err := b.Build()
	if err != nil {
		t.Fatalf("Build() error: %v", err)
	}
	if got := sc.NearestAgent(0); got != 1 {
		t.Fatalf("NearestAgent(0) = %d, want 1", got)
	}
	// Tie between agents 0 and 1 for user 1: lower ID wins.
	if got := sc.NearestAgent(1); got != 0 {
		t.Fatalf("NearestAgent(1) = %d, want 0 (tie break)", got)
	}
	order := sc.AppendNearestAgents(nil, 0, sc.NumAgents())
	want := []AgentID{1, 2, 0}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("AppendNearestAgents(nil, 0, L) = %v, want %v", order, want)
		}
	}
}

func TestScenarioValidationErrors(t *testing.T) {
	rs := DefaultRepresentations()
	goodAgents := func() []Agent {
		return []Agent{{
			ID: 0, Upload: 1, Download: 1,
			SigmaMS: UniformSigma(rs.Len(), 45), CapabilityFactor: 1,
			TrafficPricePerMbps: 1, TranscodePricePerTask: 1,
		}}
	}
	goodUsers := func() []User {
		return []User{{ID: 0, Session: 0, Upstream: 0}}
	}
	goodSessions := func() []Session {
		return []Session{{ID: 0, Users: []UserID{0}}}
	}
	d := [][]float64{{0}}
	h := [][]float64{{1}}

	tests := []struct {
		name   string
		mutate func(us *[]User, ss *[]Session, as *[]Agent, d, h *[][]float64)
	}{
		{"no agents", func(us *[]User, ss *[]Session, as *[]Agent, d, h *[][]float64) { *as = nil }},
		{"no users", func(us *[]User, ss *[]Session, as *[]Agent, d, h *[][]float64) { *us = nil }},
		{"bad upstream", func(us *[]User, ss *[]Session, as *[]Agent, d, h *[][]float64) { (*us)[0].Upstream = 99 }},
		{"empty session", func(us *[]User, ss *[]Session, as *[]Agent, d, h *[][]float64) { (*ss)[0].Users = nil }},
		{"dup member", func(us *[]User, ss *[]Session, as *[]Agent, d, h *[][]float64) {
			(*ss)[0].Users = []UserID{0, 0}
		}},
		{"neg capacity", func(us *[]User, ss *[]Session, as *[]Agent, d, h *[][]float64) { (*as)[0].Upload = -1 }},
		{"sigma shape", func(us *[]User, ss *[]Session, as *[]Agent, d, h *[][]float64) {
			(*as)[0].SigmaMS = UniformSigma(2, 45)
		}},
		{"D shape", func(us *[]User, ss *[]Session, as *[]Agent, d, h *[][]float64) { *d = [][]float64{} }},
		{"H negative", func(us *[]User, ss *[]Session, as *[]Agent, d, h *[][]float64) { (*h)[0][0] = -3 }},
		{"D diag nonzero", func(us *[]User, ss *[]Session, as *[]Agent, d, h *[][]float64) { (*d)[0][0] = 5 }},
		{"self demand", func(us *[]User, ss *[]Session, as *[]Agent, d, h *[][]float64) {
			(*us)[0].Downstream = map[UserID]Representation{0: 1}
		}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			us, ss, as := goodUsers(), goodSessions(), goodAgents()
			dm := [][]float64{append([]float64(nil), d[0]...)}
			hm := [][]float64{append([]float64(nil), h[0]...)}
			tt.mutate(&us, &ss, &as, &dm, &hm)
			hf, err := MatrixDelays(hm, len(as), len(us))
			if err == nil {
				_, err = NewScenario(rs, us, ss, as, dm, hf, 0)
			}
			if err == nil {
				t.Fatal("NewScenario() succeeded, want error")
			}
		})
	}

	// The unmutated inputs must build.
	hf, err := MatrixDelays(h, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewScenario(rs, goodUsers(), goodSessions(), goodAgents(), d, hf, 0); err != nil {
		t.Fatalf("NewScenario() on valid input: %v", err)
	}
}

func TestBuilderErrors(t *testing.T) {
	b := NewBuilder(nil)
	b.AddAgent(Agent{Upload: 1, Download: 1})
	b.AddUser("ghost", SessionID(7), 0, nil) // unknown session
	if _, err := b.Build(); err == nil {
		t.Fatal("Build() succeeded despite AddUser on unknown session")
	}

	b2 := NewBuilder(nil)
	b2.AddAgent(Agent{Upload: 1, Download: 1})
	s := b2.AddSession("s")
	u := b2.AddUser("u", s, 0, nil)
	b2.DemandFrom(u, UserID(99), 1)
	if _, err := b2.Build(); err == nil {
		t.Fatal("Build() succeeded despite DemandFrom unknown user")
	}
}

func TestDMaxDefault(t *testing.T) {
	sc := buildTwoSessionScenario(t)
	if sc.DMaxMS != DefaultDMaxMS {
		t.Fatalf("DMaxMS = %v, want %v", sc.DMaxMS, DefaultDMaxMS)
	}
}

func TestUniformSigma(t *testing.T) {
	s := UniformSigma(3, 42)
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			want := 42.0
			if i == j {
				want = 0
			}
			if s[i][j] != want {
				t.Fatalf("UniformSigma[%d][%d] = %v, want %v", i, j, s[i][j], want)
			}
		}
	}
}

// Property: AppendNearestAgents with k = L always returns a permutation of
// all agents in non-decreasing delay order, for arbitrary delay rows, and
// with a smaller k exactly that order's prefix, appended after dst.
func TestAgentsByProximityProperty(t *testing.T) {
	prop := func(raw []uint16) bool {
		if len(raw) == 0 {
			raw = []uint16{1}
		}
		if len(raw) > 12 {
			raw = raw[:12]
		}
		b := NewBuilder(nil)
		for range raw {
			b.AddAgent(Agent{Upload: 1, Download: 1})
		}
		s := b.AddSession("s")
		b.AddUser("u", s, 0, nil)
		h := make([][]float64, len(raw))
		for i, v := range raw {
			h[i] = []float64{float64(v)}
		}
		b.SetAgentUserDelays(h)
		sc, err := b.Build()
		if err != nil {
			return false
		}
		order := sc.AppendNearestAgents(nil, 0, len(raw))
		if len(order) != len(raw) {
			return false
		}
		seen := make(map[AgentID]bool)
		for i, id := range order {
			if seen[id] {
				return false
			}
			seen[id] = true
			if i > 0 {
				da, db := sc.H(order[i-1], 0), sc.H(id, 0)
				if da > db || (da == db && order[i-1] > id) {
					return false
				}
			}
		}
		for k := 0; k <= len(raw); k++ {
			got := sc.AppendNearestAgents([]AgentID{7}, 0, k)
			if len(got) != k+1 || got[0] != 7 {
				return false
			}
			for i, id := range got[1:] {
				if id != order[i] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestDownscaleOnlyTheta(t *testing.T) {
	build := func(downscaleOnly bool) *Scenario {
		b := NewBuilder(nil)
		rs := b.Reps()
		r360, _ := rs.ByName("360p")
		r720, _ := rs.ByName("720p")
		r1080, _ := rs.ByName("1080p")
		b.AddAgent(Agent{Upload: 1000, Download: 1000, TranscodeSlots: 8})
		s := b.AddSession("s")
		lo := b.AddUser("lo", s, r360, nil)   // low-quality producer
		hi := b.AddUser("hi", s, r1080, nil)  // high-quality producer
		mid := b.AddUser("mid", s, r720, nil) // demands upscale + downscale
		b.DemandFrom(mid, lo, r1080)          // upward demand: 360p → 1080p
		b.DemandFrom(mid, hi, r360)           // downward demand: 1080p → 360p
		_ = mid
		if downscaleOnly {
			b.RestrictDownscaleOnly()
		}
		sc, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		return sc
	}

	// Unrestricted: both demands transcode.
	sc := build(false)
	if !sc.Theta(0, 2) || !sc.Theta(1, 2) {
		t.Fatal("unrestricted scenario should transcode both flows")
	}
	if got := sc.ThetaSum(); got != 2 {
		t.Fatalf("ThetaSum = %d, want 2", got)
	}

	// Downscale-only: the upward demand clamps to the native 360p stream.
	sc = build(true)
	if sc.Theta(0, 2) {
		t.Fatal("upward demand must not transcode under DownscaleOnly")
	}
	if !sc.Theta(1, 2) {
		t.Fatal("downward demand must still transcode under DownscaleOnly")
	}
	if got := sc.ThetaSum(); got != 1 {
		t.Fatalf("ThetaSum = %d, want 1", got)
	}
	// Effective downstream of the clamped flow is the source's upstream.
	if got := sc.Downstream(2, 0); sc.Reps.Name(got) != "360p" {
		t.Fatalf("effective downstream = %s, want 360p", sc.Reps.Name(got))
	}
	// The raw demand is preserved on the user.
	if got := sc.User(2).DownstreamFrom(sc.User(0)); sc.Reps.Name(got) != "1080p" {
		t.Fatalf("raw demand = %s, want 1080p", sc.Reps.Name(got))
	}
	// Unaffected flow keeps its demanded rep.
	if got := sc.Downstream(2, 1); sc.Reps.Name(got) != "360p" {
		t.Fatalf("downward effective rep = %s, want 360p", sc.Reps.Name(got))
	}
}
