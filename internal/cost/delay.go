package cost

import (
	"math"

	"vconf/internal/assign"
	"vconf/internal/model"
)

// FlowDelayMS computes d_uv, the end-to-end delay of the flow from user
// f.Src to user f.Dst under assignment a, in milliseconds (§III-C):
//
//	d_uv = H(λ(u),u) + H(λ(v),v)
//	     + D(λ(u),λ(v))                                if θ_uv = 0
//	     + D(λ(u),m) + D(m,λ(v)) + σ_m(r^u_u, r^d_vu)  if θ_uv = 1, γ at m
//
// Queuing delay is ignored per the paper (capacity constraints guarantee
// resource availability). Returns +Inf when any involved endpoint is still
// Unassigned, so incomplete states never look feasible.
func FlowDelayMS(a *assign.Assignment, f model.Flow) float64 {
	sc := a.Scenario()
	lu := a.UserAgent(f.Src)
	lv := a.UserAgent(f.Dst)
	if lu == assign.Unassigned || lv == assign.Unassigned {
		return math.Inf(1)
	}
	d := sc.H(lu, f.Src) + sc.H(lv, f.Dst)
	if !sc.Theta(f.Src, f.Dst) {
		return d + sc.D(lu, lv)
	}
	m, ok := a.FlowAgent(f)
	if !ok || m == assign.Unassigned {
		return math.Inf(1)
	}
	src := sc.User(f.Src)
	sigma := sc.Agent(m).Sigma(src.Upstream, sc.DownstreamRep(f))
	return d + sc.D(lu, m) + sc.D(m, lv) + sigma
}

// SessionDelays summarizes the delay picture of one session.
type SessionDelays struct {
	// PerUserMaxMS[i] is d_u for the i-th member of the session (in session
	// member order): the maximum end-to-end delay the user experiences
	// receiving streams from the other participants.
	PerUserMaxMS []float64
	// MeanOfMaxMS is F's default shape: (Σ_u d_u)/|U(s)| (§III-D example).
	MeanOfMaxMS float64
	// WorstMS is the largest flow delay in the session.
	WorstMS float64
	// WorstFlow identifies the flow achieving WorstMS.
	WorstFlow model.Flow
}

// SessionDelaysOf computes per-user maximum delays and their session mean.
// Sessions with a single user have zero delays.
func SessionDelaysOf(a *assign.Assignment, s model.SessionID) SessionDelays {
	sc := a.Scenario()
	members := sc.Session(s).Users
	out := SessionDelays{PerUserMaxMS: make([]float64, len(members))}
	if len(members) < 2 {
		return out
	}
	idx := make(map[model.UserID]int, len(members))
	for i, u := range members {
		idx[u] = i
	}
	for _, u := range members {
		for _, v := range sc.Participants(u) {
			f := model.Flow{Src: u, Dst: v}
			d := FlowDelayMS(a, f)
			if d > out.PerUserMaxMS[idx[v]] {
				out.PerUserMaxMS[idx[v]] = d
			}
			if d > out.WorstMS {
				out.WorstMS = d
				out.WorstFlow = f
			}
		}
	}
	sum := 0.0
	for _, d := range out.PerUserMaxMS {
		sum += d
	}
	out.MeanOfMaxMS = sum / float64(len(members))
	return out
}

// DelayFeasible reports whether every flow of session s satisfies
// d_uv ≤ Dmax (constraint (8)).
func DelayFeasible(a *assign.Assignment, s model.SessionID) bool {
	sc := a.Scenario()
	for _, u := range sc.Session(s).Users {
		for _, v := range sc.Participants(u) {
			if FlowDelayMS(a, model.Flow{Src: u, Dst: v}) > sc.DMaxMS {
				return false
			}
		}
	}
	return true
}
