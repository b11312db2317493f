package cost

import (
	"math"
	"testing"

	"vconf/internal/assign"
	"vconf/internal/model"
)

// The reference the one program path is checked against: the map-based μ
// kernel and the fleet-wide Φ_s assembly that sessionLoadSparse and
// phiFromSparse replaced, kept verbatim. Every sparse-vs-dense test in this
// package (and, through export_test.go, the external ones) compares with
// these, never with another sparse computation.

// denseLoad is a session load as one fleet-sized vector per component; see
// SparseLoad for what each component means.
type denseLoad struct {
	Down  []float64
	Up    []float64
	Tasks []int
	Inter []float64
}

// TotalInterTraffic returns Σ_l x_ls over every agent of the fleet.
func (sl *denseLoad) TotalInterTraffic() float64 {
	t := 0.0
	for _, v := range sl.Inter {
		t += v
	}
	return t
}

// TotalTasks returns Σ_l y_ls.
func (sl *denseLoad) TotalTasks() int {
	n := 0
	for _, v := range sl.Tasks {
		n += v
	}
	return n
}

// addEdge records w Mbps of inter-agent traffic from agent src to agent dst.
func (sl *denseLoad) addEdge(src, dst model.AgentID, w float64) {
	sl.Up[src] += w
	sl.Down[dst] += w
	sl.Inter[dst] += w
}

// sessionLoadDense computes the session's full load vector under assignment
// a from the scenario's accessors and per-source maps. Users or flows that
// are still Unassigned contribute nothing.
func sessionLoadDense(p Params, a *assign.Assignment, s model.SessionID) *denseLoad {
	sc := a.Scenario()
	L := sc.NumAgents()
	sl := &denseLoad{
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

// sessionObjectiveDense is Φ_s assembled from the dense load and a
// from-scratch SessionDelaysOf.
func sessionObjectiveDense(e *Evaluator, a *assign.Assignment, s model.SessionID) float64 {
	return sessionObjectiveFromDense(e, a, s, sessionLoadDense(e.p, a, s))
}

func sessionObjectiveFromDense(e *Evaluator, a *assign.Assignment, s model.SessionID, sl *denseLoad) float64 {
	phi := 0.0
	if e.p.Alpha1 > 0 {
		phi += e.p.Alpha1 * SessionDelaysOf(a, s).MeanOfMaxMS
	}
	if e.p.Alpha2 > 0 {
		g := 0.0
		for l, x := range sl.Inter {
			if x > 0 {
				g += e.p.trafficCost(e.sc.Agent(model.AgentID(l)).TrafficPricePerMbps, x)
			}
		}
		phi += e.p.Alpha2 * g
	}
	if e.p.Alpha3 > 0 {
		h := 0.0
		for l, y := range sl.Tasks {
			if y > 0 {
				h += e.p.transcodeCost(e.sc.Agent(model.AgentID(l)).TranscodePricePerTask, y)
			}
		}
		phi += e.p.Alpha3 * h
	}
	return phi
}

// reportSessionDense is ReportSession on the reference.
func reportSessionDense(e *Evaluator, a *assign.Assignment, s model.SessionID) SessionReport {
	sl := sessionLoadDense(e.p, a, s)
	sd := SessionDelaysOf(a, s)
	return SessionReport{
		Session:       s,
		Objective:     sessionObjectiveFromDense(e, a, s, sl),
		InterTraffic:  sl.TotalInterTraffic(),
		Tasks:         sl.TotalTasks(),
		MeanDelayMS:   sd.MeanOfMaxMS,
		WorstDelayMS:  sd.WorstMS,
		DelayFeasible: sd.WorstMS <= e.sc.DMaxMS,
	}
}

// addDense and removeDense account a dense load into and out of a ledger on
// every agent of the fleet.
func addDense(g *Ledger, sl *denseLoad) {
	for l := range sl.Down {
		g.down[l] += sl.Down[l]
		g.up[l] += sl.Up[l]
		g.tasks[l] += sl.Tasks[l]
	}
}

func removeDense(g *Ledger, sl *denseLoad) {
	for l := range sl.Down {
		g.down[l] -= sl.Down[l]
		g.up[l] -= sl.Up[l]
		g.tasks[l] -= sl.Tasks[l]
	}
}

// fitsDense is the strict capacity check on the dense load: the candidate
// added to the ledger on every agent, then compared to capacity.
func fitsDense(g *Ledger, candidate *denseLoad) bool {
	const eps = 1e-9
	for l := 0; l < g.sc.NumAgents(); l++ {
		capDown, capUp, capTasks := g.effectiveCaps(l)
		down := g.down[l] + candidate.Down[l]
		up := g.up[l] + candidate.Up[l]
		tasks := g.tasks[l] + candidate.Tasks[l]
		if down > capDown+eps || up > capUp+eps || tasks > capTasks {
			return false
		}
	}
	return true
}

// fitsRepairDense is the repair-semantics check on dense loads: replacing
// current with candidate may not worsen any agent already over capacity.
func fitsRepairDense(g *Ledger, candidate, current *denseLoad) bool {
	const eps = 1e-9
	for l := 0; l < g.sc.NumAgents(); l++ {
		capDown, capUp, capTasks := g.effectiveCaps(l)
		newDown := g.down[l] + candidate.Down[l]
		newUp := g.up[l] + candidate.Up[l]
		newTasks := g.tasks[l] + candidate.Tasks[l]
		oldDown := g.down[l] + current.Down[l]
		oldUp := g.up[l] + current.Up[l]
		oldTasks := g.tasks[l] + current.Tasks[l]
		if newDown > capDown+eps && newDown > oldDown+eps {
			return false
		}
		if newUp > capUp+eps && newUp > oldUp+eps {
			return false
		}
		if newTasks > capTasks && newTasks > oldTasks {
			return false
		}
	}
	return true
}

// sameLoad requires the sparse load bit-equal to the dense reference at
// every agent of the fleet.
func sameLoad(t *testing.T, what string, sparse *SparseLoad, dense *denseLoad) {
	t.Helper()
	for l := range dense.Down {
		if math.Float64bits(sparse.down[l]) != math.Float64bits(dense.Down[l]) ||
			math.Float64bits(sparse.up[l]) != math.Float64bits(dense.Up[l]) ||
			math.Float64bits(sparse.inter[l]) != math.Float64bits(dense.Inter[l]) ||
			sparse.tasks[l] != dense.Tasks[l] {
			t.Fatalf("%s: agent %d: load (down %v up %v inter %v tasks %d) != reference (down %v up %v inter %v tasks %d)",
				what, l, sparse.down[l], sparse.up[l], sparse.inter[l], sparse.tasks[l],
				dense.Down[l], dense.Up[l], dense.Inter[l], dense.Tasks[l])
		}
	}
}

// sameReport requires two session reports equal, floats by bits.
func sameReport(t *testing.T, what string, got, want SessionReport) {
	t.Helper()
	if got.Session != want.Session || got.Tasks != want.Tasks || got.DelayFeasible != want.DelayFeasible ||
		math.Float64bits(got.Objective) != math.Float64bits(want.Objective) ||
		math.Float64bits(got.InterTraffic) != math.Float64bits(want.InterTraffic) ||
		math.Float64bits(got.MeanDelayMS) != math.Float64bits(want.MeanDelayMS) ||
		math.Float64bits(got.WorstDelayMS) != math.Float64bits(want.WorstDelayMS) {
		t.Fatalf("%s: report %+v, reference %+v", what, got, want)
	}
}
