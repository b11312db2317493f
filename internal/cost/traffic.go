package cost

import (
	"vconf/internal/assign"
	"vconf/internal/model"
)

// SessionLoad aggregates one session's resource usage, per agent. Loads from
// different sessions add: the global usage of agent l is the sum of every
// session's Down[l]/Up[l]/Tasks[l].
type SessionLoad struct {
	// Down[l] is the session's contribution to agent l's download usage in
	// Mbps: last-mile upstream of users subscribed at l plus incoming
	// inter-agent traffic (left side of constraint (5)).
	Down []float64
	// Up[l] is the contribution to agent l's upload usage in Mbps: last-mile
	// downstream to users at l plus outgoing inter-agent traffic (left side
	// of constraint (6)).
	Up []float64
	// Tasks[l] is the number of transcoding tasks ν the session runs at l
	// (left side of constraint (7)). A task is a distinct (source, output
	// representation) pair regardless of how many destinations it serves.
	Tasks []int
	// Inter[l] is x_ls: the incoming inter-agent traffic at l in Mbps, the
	// argument of the bandwidth cost g_l.
	Inter []float64
}

// TotalInterTraffic returns Σ_l x_ls: the session's total inter-agent
// traffic in Mbps — the paper's headline operational-cost metric.
func (sl *SessionLoad) TotalInterTraffic() float64 {
	t := 0.0
	for _, v := range sl.Inter {
		t += v
	}
	return t
}

// TotalTasks returns Σ_l y_ls.
func (sl *SessionLoad) TotalTasks() int {
	n := 0
	for _, v := range sl.Tasks {
		n += v
	}
	return n
}

// AddTo accumulates the session load into global per-agent usage slices.
func (sl *SessionLoad) AddTo(down, up []float64, tasks []int) {
	for l := range sl.Down {
		down[l] += sl.Down[l]
		up[l] += sl.Up[l]
		tasks[l] += sl.Tasks[l]
	}
}

// SubtractFrom removes the session load from global per-agent usage slices.
func (sl *SessionLoad) SubtractFrom(down, up []float64, tasks []int) {
	for l := range sl.Down {
		down[l] -= sl.Down[l]
		up[l] -= sl.Up[l]
		tasks[l] -= sl.Tasks[l]
	}
}

// addEdge records w Mbps of inter-agent traffic from agent src to agent dst.
func (sl *SessionLoad) addEdge(src, dst model.AgentID, w float64) {
	sl.Up[src] += w
	sl.Down[dst] += w
	sl.Inter[dst] += w
}

// transcoderOf returns, for source user u, a map output-representation →
// transcoding agent, derived from the γ variables of u's outgoing flows.
// Flows without an assigned transcoder are skipped (partial assignments).
//
// Note on constraint (3): the paper requires exactly one agent per flow, and
// its ν/μ terms implicitly assume all same-representation flows of a source
// share one transcoder (a task serves every destination demanding that rep).
// When a solver nonetheless splits same-rep flows across agents, traffic
// edges follow each flow's own γ agent (see SessionLoadOf) and each agent
// pays its own ν task, so capacity accounting stays exact.
func transcoderOf(a *assign.Assignment, u model.UserID) map[model.Representation]model.AgentID {
	sc := a.Scenario()
	var out map[model.Representation]model.AgentID
	for _, v := range sc.Participants(u) {
		if !sc.Theta(u, v) {
			continue
		}
		f := model.Flow{Src: u, Dst: v}
		m, ok := a.FlowAgent(f)
		if !ok || m == assign.Unassigned {
			continue
		}
		if out == nil {
			out = make(map[model.Representation]model.AgentID, 2)
		}
		out[sc.DownstreamRep(f)] = m
	}
	return out
}

// SessionLoadOf computes the session's full load vector under assignment a.
// Users or flows that are still Unassigned contribute nothing; this makes
// the function usable during incremental bootstrap admission.
func (p Params) SessionLoadOf(a *assign.Assignment, s model.SessionID) *SessionLoad {
	sc := a.Scenario()
	L := sc.NumAgents()
	sl := &SessionLoad{
		Down:  make([]float64, L),
		Up:    make([]float64, L),
		Tasks: make([]int, L),
		Inter: make([]float64, L),
	}

	type taskKey struct {
		m model.AgentID
		u model.UserID
		r model.Representation
	}
	tasks := make(map[taskKey]bool)

	type edgeKey struct {
		src model.AgentID
		dst model.AgentID
		r   model.Representation
	}

	for _, u := range sc.Session(s).Users {
		k := a.UserAgent(u) // source agent of u
		if k == assign.Unassigned {
			continue
		}
		user := sc.User(u)
		upRate := sc.Reps.Bitrate(user.Upstream)

		// Last-mile upstream: user u uploads its stream into agent k
		// (first term of constraint (5)).
		sl.Down[k] += upRate

		// Last-mile downstream: agent k uploads to u the streams of every
		// other participant at their effective representations (first term
		// of constraint (6)). The n−1 terms are a constant of the scenario:
		// they are summed on their own, in Participants order, and added
		// once — the association model.PlanMember.InMbps compiles.
		in := 0.0
		for _, v := range sc.Participants(u) {
			in += sc.Reps.Bitrate(sc.Downstream(u, v))
		}
		sl.Up[k] += in

		// ---- Inter-agent edges generated by u's outgoing stream ----

		// Transcoding agents of u's stream, and their ν tasks.
		transAgents := make(map[model.AgentID]bool, 2)
		for _, v := range sc.Participants(u) {
			if !sc.Theta(u, v) {
				continue
			}
			f := model.Flow{Src: u, Dst: v}
			m, ok := a.FlowAgent(f)
			if !ok || m == assign.Unassigned {
				continue
			}
			transAgents[m] = true
			tasks[taskKey{m: m, u: u, r: sc.DownstreamRep(f)}] = true
		}

		// Term 1 of μ: one raw copy k → every transcoding agent m ≠ k.
		for m := range transAgents {
			if m != k {
				sl.addEdge(k, m, upRate)
			}
		}

		// Term 2 of μ: raw stream k → agents hosting native-representation
		// destinations, unless the raw copy already arrived for transcoding
		// there (the (1−ν'_lu) factor).
		nativeDst := make(map[model.AgentID]bool)
		for _, v := range sc.Participants(u) {
			if sc.Theta(u, v) {
				continue
			}
			lv := a.UserAgent(v)
			if lv != assign.Unassigned && lv != k {
				nativeDst[lv] = true
			}
		}
		for l := range nativeDst {
			if !transAgents[l] {
				sl.addEdge(k, l, upRate)
			}
		}

		// Term 3 of μ: transcoded stream at rep r from its transcoder m to
		// every agent hosting a destination demanding r; one copy per
		// (m, destination agent, r). The paper's strict formula multiplies
		// by (1−λ_lu): no transcoded traffic is counted toward the source's
		// own agent.
		sentTranscoded := make(map[edgeKey]bool)
		for _, v := range sc.Participants(u) {
			if !sc.Theta(u, v) {
				continue
			}
			f := model.Flow{Src: u, Dst: v}
			m, ok := a.FlowAgent(f)
			if !ok || m == assign.Unassigned {
				continue
			}
			lv := a.UserAgent(v)
			if lv == assign.Unassigned || lv == m {
				continue
			}
			if p.StrictPaperTraffic && lv == k {
				continue
			}
			r := sc.DownstreamRep(f)
			ek := edgeKey{src: m, dst: lv, r: r}
			if sentTranscoded[ek] {
				continue
			}
			sentTranscoded[ek] = true
			sl.addEdge(m, lv, sc.Reps.Bitrate(r))
		}
	}

	for tk := range tasks {
		sl.Tasks[tk.m]++
	}
	return sl
}
