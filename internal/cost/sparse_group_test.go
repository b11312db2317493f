package cost

import (
	"fmt"
	"math/rand"
	"testing"

	"vconf/internal/assign"
	"vconf/internal/model"
)

// Tests of the agent-grouped load kernel (sessionLoadSparse) against the
// dense reference on one small fixed scenario, where the placements its
// counting rule could get wrong can be written down by hand.

const groupAgents = 6

// groupScenario is one session of five members over six agents with
// non-dyadic bitrates (0.3 / 1.7 / 4.1 Mbps) and distinct prices, so a
// reordered sum shows; flag bit 4 selects the dyadic 0.375 / 1.75 / 4.125
// set instead, under which CandidateLoad prices one-decision moves as
// deltas, and bit 0 DownscaleOnly. Upstreams: u0 hi, u1 mid, u2 hi, u3 lo, u4 mid.
// Transcoding flows, in SessionFlowAgents order:
//
//	0: u0→u1 lo   1: u0→u2 mid   2: u0→u3 lo   (u4 takes u0's stream natively)
//	3: u1→u3 hi   4: u1→u4 lo    5: u2→u0 mid  6: u3→u0 hi
//
// Under DownscaleOnly the two upward demands (3 and 6) clamp to native and
// the rest close ranks: u1→u4 is flow 3, u2→u0 flow 4.
func groupScenario(t *testing.T, flags byte) *model.Scenario {
	t.Helper()
	const lo, mid, hi = 0, 1, 2
	reps := nonDyadicReps(t)
	if flags&16 != 0 {
		reps = dyadicReps(t)
	}
	b := model.NewBuilder(reps)
	if flags&1 != 0 {
		b.RestrictDownscaleOnly()
	}
	d := make([][]float64, groupAgents)
	h := make([][]float64, groupAgents)
	for l := 0; l < groupAgents; l++ {
		b.AddAgent(model.Agent{Upload: 100, Download: 100, TranscodeSlots: 8,
			SigmaMS:               model.UniformSigma(reps.Len(), 30+float64(l)),
			TrafficPricePerMbps:   0.7 + 0.13*float64(l),
			TranscodePricePerTask: 0.9 + 0.11*float64(l),
		})
		d[l] = make([]float64, groupAgents)
		for k := range d[l] {
			if k != l {
				d[l][k] = 10 + 7.3*float64((l+k)%4)
			}
		}
		h[l] = make([]float64, 5)
		for u := range h[l] {
			h[l][u] = 5 + 3.1*float64((l+2*u)%5)
		}
	}
	s := b.AddSession("s")
	var u [5]model.UserID
	for i, up := range []model.Representation{hi, mid, hi, lo, mid} {
		u[i] = b.AddUser("u", s, up, nil)
	}
	b.DemandFrom(u[1], u[0], lo).DemandFrom(u[2], u[0], mid).DemandFrom(u[3], u[0], lo)
	b.DemandFrom(u[3], u[1], hi).DemandFrom(u[4], u[1], lo)
	b.DemandFrom(u[0], u[2], mid).DemandFrom(u[0], u[3], hi)
	sc, err := b.SetInterAgentDelays(d).SetAgentUserDelays(h).Build()
	if err != nil {
		t.Fatal(err)
	}
	return sc
}

// Placement bytes: byte 0 carries the flags — DownscaleOnly (bit 0),
// StrictPaperTraffic (bit 1), α2 = α3 = 0 (bit 2), cost exponents ≠ 1
// (bit 3) and dyadic bitrates (bit 4) — the next five place the members and the rest the transcoding
// flows, each as b mod 7 − 1, so 0 is Unassigned and 1–6 are agents 0–5.
// Missing bytes read as 0.
const groupUnassigned = 0

func groupPlacement(flags byte, members [5]byte, flows ...byte) []byte {
	return append(append([]byte{flags}, members[:]...), flows...)
}

// groupFlags is the number of flag combinations byte 0 selects among.
const groupFlags = 32

// groupParams are the objective parameters flag byte f selects.
func groupParams(f byte) Params {
	p := DefaultParams()
	p.StrictPaperTraffic = f&2 != 0
	if f&4 != 0 {
		p.Alpha2, p.Alpha3 = 0, 0
	}
	if f&8 != 0 {
		p.TrafficExponent, p.TranscodeExponent = 1.5, 2.25
	}
	return p
}

// checkGroupedLoad evaluates the placement through the sparse kernel, twice
// on one scratch (a counter left dirty by the first call would corrupt the
// second) and once through SessionLoadOf, and requires each load bit-equal
// to the reference (dense_ref_test.go); then it requires Φ_s from
// BeginSession and SessionObjective, and the whole ReportSession — traffic,
// tasks, mean and worst delay — bit-equal to the reference's. Last, every
// single-flow and every single-member move of the placement must price to
// the reference's load, one at a time and in the hop's sequence
// (checkFlowMoves, checkUserMoves, checkNeighbourSequence).
func checkGroupedLoad(t *testing.T, data []byte) {
	t.Helper()
	at := func(i int) model.AgentID {
		if i >= len(data) {
			return assign.Unassigned
		}
		return model.AgentID(data[i]%(groupAgents+1)) - 1
	}
	flags := byte(0)
	if len(data) > 0 {
		flags = data[0]
	}
	sc := groupScenario(t, flags)
	p := groupParams(flags)
	ev, err := NewEvaluator(sc, p)
	if err != nil {
		t.Fatal(err)
	}
	a := assign.New(sc)
	for u := 0; u < sc.NumUsers(); u++ {
		a.SetUserAgent(model.UserID(u), at(1+u))
	}
	for f, fl := range a.Flows() {
		if err := a.SetFlowAgent(fl, at(1+sc.NumUsers()+f)); err != nil {
			t.Fatal(err)
		}
	}
	scr := ev.NewScratch()
	dense := sessionLoadDense(p, a, 0)
	for _, pass := range []string{"first", "second"} {
		sameLoad(t, pass+" evaluation", ev.SessionLoadSparse(a, 0, scr), dense)
	}
	sameLoad(t, "SessionLoadOf", p.SessionLoadOf(a, 0), dense)
	want := reportSessionDense(ev, a, 0)
	sameBits(t, "Φ (BeginSession)", ev.BeginSession(a, 0, scr).Phi, want.Objective)
	sameBits(t, "Φ (SessionObjective)", ev.SessionObjective(a, 0), want.Objective)
	sameReport(t, "ReportSession", ev.ReportSession(a, 0), want)
	checkFlowMoves(t, ev, a, 0, scr, &flowMoveCases{})
	checkUserMoves(t, ev, a, 0, scr, &userMoveCases{})
	checkNeighbourSequence(t, ev, a, 0, scr)
}

// groupCases are the placements the counting rule of term 2 ("an agent takes
// the raw stream when it hosts more members than transcoded destinations of
// the source") and its neighbours can get wrong. Members and flows are
// placement bytes (agent + 1, 0 = Unassigned) of the seven-flow scenario.
var groupCases = []struct {
	name    string
	members [5]byte
	flows   []byte
}{
	// Agent 1 hosts u1 (transcoded) and u4 (native): 2 members > 1, raw copy.
	// Agent 2 hosts u2 and u3, both transcoded: 2 = 2, no raw copy.
	{"native and transcoded destination share an agent", [5]byte{1, 2, 3, 3, 2}, []byte{4, 4, 4, 4, 4, 4, 4}},
	{"transcoder co-located with its source", [5]byte{1, 2, 3, 4, 5}, []byte{1, 1, 1, 2, 2, 3, 4}},
	// u0's flows transcode at agent 5, which also hosts u4, native to u0:
	// one raw copy, not two.
	{"transcoder hosts a native destination", [5]byte{1, 2, 3, 4, 5}, []byte{5, 5, 5, 6, 6, 6, 6}},
	// u1 sits alone on agent 2 with no transcoder yet: θ = 1, so no raw copy.
	{"flow unassigned, destination assigned", [5]byte{1, 2, 3, 4, 5}, []byte{groupUnassigned, 6, 6, groupUnassigned, 6, 6, 6}},
	{"destinations unassigned", [5]byte{1, groupUnassigned, 3, 4, groupUnassigned}, []byte{6, 6, 6, 6, 6, 6, 6}},
	{"source unassigned", [5]byte{groupUnassigned, 2, 2, 3, 3}, []byte{2, 3, 2, 3, 2, 3, 2}},
	{"every member on one agent", [5]byte{3, 3, 3, 3, 3}, []byte{3, 3, 3, 3, 3, 3, 3}},
	{"one agent, transcoders elsewhere", [5]byte{3, 3, 3, 3, 3}, []byte{1, 1, 2, 2, 3, 4, 4}},
	{"every member on its own agent", [5]byte{1, 2, 3, 4, 5}, []byte{6, 2, 4, 1, 5, 3, 6}},
	// u1 and u0 share agent 1, u0→u1 transcodes at agent 4: the strict
	// formula counts no transcoded traffic back to the source's agent.
	{"transcoded destination on the source's agent", [5]byte{1, 1, 3, 3, 1}, []byte{4, 4, 4, 1, 4, 3, 3}},
	{"same representation split across transcoders", [5]byte{1, 2, 2, 2, 3}, []byte{4, 5, 6, 4, 5, 6, 4}},
}

func TestGroupedLoadAdversarialPlacements(t *testing.T) {
	for _, tc := range groupCases {
		for flags := byte(0); flags < groupFlags; flags++ {
			name := fmt.Sprintf("%s/downscale=%v,strict=%v,delayonly=%v,convex=%v", tc.name,
				flags&1 != 0, flags&2 != 0, flags&4 != 0, flags&8 != 0)
			if flags&16 != 0 {
				name += ",dyadic"
			}
			t.Run(name, func(t *testing.T) {
				checkGroupedLoad(t, groupPlacement(flags, tc.members, tc.flows...))
			})
		}
	}
}

// FuzzSessionLoadSparse: arbitrary placements of the fixed scenario, members
// and flows Unassigned included, under every flag setting. The seed corpus is
// the adversarial table under all thirty-two, so plain `go test` replays it.
func FuzzSessionLoadSparse(f *testing.F) {
	for _, tc := range groupCases {
		for flags := byte(0); flags < groupFlags; flags++ {
			f.Add(groupPlacement(flags, tc.members, tc.flows...))
		}
	}
	f.Fuzz(checkGroupedLoad)
}

// BenchmarkSessionLoadSparse times one candidate-load evaluation of a session
// of n members on the shipped bitrate set, with the members packed on three
// agents (the case the design assumes: g ≪ n) and spread one per agent (its
// worst case, g = n).
func BenchmarkSessionLoadSparse(b *testing.B) {
	for _, n := range []int{5, 12} {
		for _, layout := range []string{"packed3", "spread"} {
			b.Run(fmt.Sprintf("n=%d/%s", n, layout), func(b *testing.B) {
				rng := rand.New(rand.NewSource(int64(n)))
				mb := model.NewBuilder(nil)
				for l := 0; l < 16; l++ {
					mb.AddAgent(model.Agent{Upload: 1000, Download: 1000, TranscodeSlots: 16})
				}
				s := mb.AddSession("s")
				users := make([]model.UserID, n)
				for i := range users {
					users[i] = mb.AddUser("u", s, model.Representation(rng.Intn(mb.Reps().Len())), nil)
				}
				for _, u := range users { // about one transcoding flow per member
					v := users[rng.Intn(n)]
					if u != v {
						mb.DemandFrom(u, v, model.Representation(rng.Intn(mb.Reps().Len())))
					}
				}
				sc, err := mb.Build()
				if err != nil {
					b.Fatal(err)
				}
				ev, err := NewEvaluator(sc, DefaultParams())
				if err != nil {
					b.Fatal(err)
				}
				g := n
				if layout == "packed3" {
					g = 3
				}
				a := assign.New(sc)
				for i, u := range users {
					a.SetUserAgent(u, model.AgentID(i%g))
				}
				for _, fl := range a.Flows() {
					if err := a.SetFlowAgent(fl, model.AgentID(rng.Intn(g))); err != nil {
						b.Fatal(err)
					}
				}
				scr := ev.NewScratch()
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					ev.SessionLoadSparse(a, s, scr)
				}
			})
		}
	}
}
