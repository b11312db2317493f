package cost

import (
	"fmt"
	"math"

	"vconf/internal/assign"
	"vconf/internal/model"
)

// Evaluator computes objectives and feasibility for assignments over a fixed
// scenario. It is stateless and safe for concurrent use: the objective and
// report methods evaluate on scratches drawn from a process-wide pool.
type Evaluator struct {
	sc    *model.Scenario
	p     Params
	exact bool // exactRates(sc)
}

// NewEvaluator builds an evaluator; the parameters are validated once here.
func NewEvaluator(sc *model.Scenario, p Params) (*Evaluator, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return &Evaluator{sc: sc, p: p, exact: exactRates(sc)}, nil
}

// exactRates is the certificate under which NeighbourLoad prices a flow or
// member move as a delta: every bitrate an integer multiple of 2⁻⁸ Mbps and
// at most 2¹⁶ Mbps, and every session at most 1 024 members. A slot of one
// session's load then sums fewer than 2²² such terms, so every partial sum
// is a multiple of 2⁻⁸ below 2⁴⁶·2⁻⁸, exact in a float64: addition and
// subtraction are exact and their order is free.
func exactRates(sc *model.Scenario) bool {
	for r := range sc.Reps.Len() {
		q := sc.Reps.Bitrate(model.Representation(r)) * (1 << 8)
		if q != math.Trunc(q) || q > 1<<24 {
			return false
		}
	}
	for s := range sc.NumSessions() {
		if len(sc.Session(model.SessionID(s)).Users) > 1024 {
			return false
		}
	}
	return true
}

// Params returns the evaluator's parameters.
func (e *Evaluator) Params() Params { return e.p }

// Scenario returns the evaluator's scenario.
func (e *Evaluator) Scenario() *model.Scenario { return e.sc }

// SessionObjective computes Φ_s = α1·F(d_s) + α2·G(x_s) + α3·H(y_s): the
// local objective of session s (§IV-A-2), which is all Alg. 1 needs to
// compute hop probabilities — the property that enables the parallel,
// per-session implementation. It evaluates from scratch on a pooled scratch
// (BeginSession's rebuild branch), so it keeps nothing per session.
func (e *Evaluator) SessionObjective(a *assign.Assignment, s model.SessionID) float64 {
	scr := GetScratch()
	defer PutScratch(scr)
	return e.beginSession(a, s, scr, nil).Phi
}

// TotalObjective computes Φ_f = Σ_s Φ_s for a complete assignment.
func (e *Evaluator) TotalObjective(a *assign.Assignment) float64 {
	scr := GetScratch()
	defer PutScratch(scr)
	total := 0.0
	for s := 0; s < e.sc.NumSessions(); s++ {
		total += e.beginSession(a, model.SessionID(s), scr, nil).Phi
	}
	return total
}

// SessionReport bundles the per-session observables the experiments plot.
type SessionReport struct {
	Session       model.SessionID
	Objective     float64
	InterTraffic  float64 // Mbps, Σ_l x_ls
	Tasks         int     // Σ_l y_ls
	MeanDelayMS   float64 // F's argument: mean over users of max incoming delay
	WorstDelayMS  float64
	DelayFeasible bool
}

// ReportSession evaluates one session fully, from scratch on a pooled
// scratch like SessionObjective.
func (e *Evaluator) ReportSession(a *assign.Assignment, s model.SessionID) SessionReport {
	scr := GetScratch()
	defer PutScratch(scr)
	return e.report(a, s, scr)
}

func (e *Evaluator) report(a *assign.Assignment, s model.SessionID, scr *Scratch) SessionReport {
	be := e.beginSession(a, s, scr, nil)
	return SessionReport{
		Session:       s,
		Objective:     be.Phi,
		InterTraffic:  scr.cur.TotalInterTraffic(),
		Tasks:         scr.cur.TotalTasks(),
		MeanDelayMS:   be.MeanDelayMS,
		WorstDelayMS:  be.WorstMS,
		DelayFeasible: be.DelayFeasible(e.sc.DMaxMS),
	}
}

// SystemReport aggregates all sessions.
type SystemReport struct {
	Objective      float64
	InterTraffic   float64
	Tasks          int
	MeanDelayMS    float64
	WorstDelayMS   float64
	AllDelayOK     bool
	SessionReports []SessionReport
}

// ReportSystem evaluates the whole assignment.
func (e *Evaluator) ReportSystem(a *assign.Assignment) SystemReport {
	scr := GetScratch()
	defer PutScratch(scr)
	out := SystemReport{AllDelayOK: true}
	totalDelay, users := 0.0, 0
	for s := 0; s < e.sc.NumSessions(); s++ {
		r := e.report(a, model.SessionID(s), scr)
		out.SessionReports = append(out.SessionReports, r)
		out.Objective += r.Objective
		out.InterTraffic += r.InterTraffic
		out.Tasks += r.Tasks
		n := e.sc.Session(model.SessionID(s)).Size()
		totalDelay += r.MeanDelayMS * float64(n)
		users += n
		if r.WorstDelayMS > out.WorstDelayMS {
			out.WorstDelayMS = r.WorstDelayMS
		}
		out.AllDelayOK = out.AllDelayOK && r.DelayFeasible
	}
	if users > 0 {
		out.MeanDelayMS = totalDelay / float64(users)
	}
	return out
}

// ---------------------------------------------------------------------------
// Global capacity ledger

// Ledger tracks global per-agent resource usage across sessions and answers
// capacity-feasibility questions incrementally. The Markov engine holds one
// Ledger; when session s considers a hop, it subtracts s's current load,
// adds the candidate load, and asks Fits.
//
// A ledger can also model runtime capacity degradation (failure injection):
// SetCapacityScale shrinks an agent's effective capacities, and
// FitsRepairDelta lets the chain keep migrating off a newly-overloaded agent
// even while the violation persists.
type Ledger struct {
	sc    *model.Scenario
	down  []float64
	up    []float64
	tasks []int
	// scale multiplies each agent's nominal capacities (nil ⇒ all 1.0).
	scale []float64
}

// NewLedger creates an empty ledger for the scenario.
func NewLedger(sc *model.Scenario) *Ledger {
	return &Ledger{
		sc:    sc,
		down:  make([]float64, sc.NumAgents()),
		up:    make([]float64, sc.NumAgents()),
		tasks: make([]int, sc.NumAgents()),
	}
}

// EnsureScale forces allocation of the capacity-scale array (all 1.0). The
// sharded ledger calls it at construction: a first SetCapacityScale under a
// single stripe lock would otherwise publish the slice header unsynchronized
// to readers holding other stripes' locks. After this, runtime scale changes
// are per-element writes, each under its owning stripe's lock.
func (g *Ledger) EnsureScale() {
	if g.scale == nil {
		g.scale = make([]float64, g.sc.NumAgents())
		for i := range g.scale {
			g.scale[i] = 1
		}
	}
}

// SetCapacityScale degrades (or restores) agent l's effective capacities to
// factor × nominal. factor must be in [0, 1]; 1 restores full capacity.
func (g *Ledger) SetCapacityScale(l model.AgentID, factor float64) error {
	if !(factor >= 0 && factor <= 1) {
		return fmt.Errorf("cost: capacity scale %v outside [0,1]", factor)
	}
	if int(l) < 0 || int(l) >= g.sc.NumAgents() {
		return fmt.Errorf("cost: unknown agent %d", l)
	}
	g.EnsureScale()
	g.scale[l] = factor
	return nil
}

// effectiveCaps returns agent l's scaled capacities.
func (g *Ledger) effectiveCaps(l int) (down, up float64, tasks int) {
	ag := g.sc.Agent(model.AgentID(l))
	down, up, tasks = ag.Download, ag.Upload, ag.TranscodeSlots
	if g.scale != nil {
		down *= g.scale[l]
		up *= g.scale[l]
		tasks = int(float64(tasks) * g.scale[l])
	}
	return down, up, tasks
}

// overAt reports whether agent l's usage plus down, up and tasks exceeds its
// scaled capacity (constraints (5)–(7), with float accumulation slack).
func (g *Ledger) overAt(l int, down, up float64, tasks int) bool {
	const eps = 1e-9
	capDown, capUp, capTasks := g.effectiveCaps(l)
	return g.down[l]+down > capDown+eps || g.up[l]+up > capUp+eps || g.tasks[l]+tasks > capTasks
}

// Violations lists agents whose current usage exceeds their (scaled)
// capacity — non-empty only after degradation or external load injection.
func (g *Ledger) Violations() []model.AgentID {
	var out []model.AgentID
	for l := 0; l < g.sc.NumAgents(); l++ {
		if g.overAt(l, 0, 0, 0) {
			out = append(out, model.AgentID(l))
		}
	}
	return out
}

// Fits reports whether the ledger plus the candidate session load respects
// every agent's (scaled) download, upload and transcoding capacity
// (constraints (5)–(7)). The candidate may be nil to check the ledger alone.
//
// The fleet-wide part is the ledger alone; the candidate is checked on its
// touched agents only (FitsTouched). That is the same predicate as adding
// the candidate on every agent: off its touched agents it adds zero, and on
// them a load is non-negative and float addition monotone, so an agent the
// ledger alone overloads stays overloaded with the candidate added.
func (g *Ledger) Fits(candidate *SparseLoad) bool {
	for l := 0; l < g.sc.NumAgents(); l++ {
		if g.overAt(l, 0, 0, 0) {
			return false
		}
	}
	return candidate == nil || g.FitsTouched(candidate)
}

// Usage returns copies of the per-agent usage vectors.
func (g *Ledger) Usage() (down, up []float64, tasks []int) {
	return append([]float64(nil), g.down...),
		append([]float64(nil), g.up...),
		append([]int(nil), g.tasks...)
}

// UsageAt returns agent l's accounted usage.
func (g *Ledger) UsageAt(l model.AgentID) (down, up float64, tasks int) {
	return g.down[l], g.up[l], g.tasks[l]
}

// CheckFeasible verifies a complete assignment against all constraints
// (1)–(8): structural completeness, capacities, and delay caps. It returns
// nil when feasible, else a descriptive error naming the violated
// constraint.
func (e *Evaluator) CheckFeasible(a *assign.Assignment) error {
	if !a.Complete() {
		return fmt.Errorf("cost: assignment incomplete (constraint (1)/(3))")
	}
	ledger := e.p.LedgerOf(a)
	const eps = 1e-9
	for l := 0; l < e.sc.NumAgents(); l++ {
		ag := e.sc.Agent(model.AgentID(l))
		switch {
		case ledger.down[l] > ag.Download+eps:
			return fmt.Errorf("cost: agent %d download %.3f exceeds capacity %.3f (constraint (5))",
				l, ledger.down[l], ag.Download)
		case ledger.up[l] > ag.Upload+eps:
			return fmt.Errorf("cost: agent %d upload %.3f exceeds capacity %.3f (constraint (6))",
				l, ledger.up[l], ag.Upload)
		case ledger.tasks[l] > ag.TranscodeSlots:
			return fmt.Errorf("cost: agent %d runs %d transcoding tasks, capacity %d (constraint (7))",
				l, ledger.tasks[l], ag.TranscodeSlots)
		}
	}
	for s := 0; s < e.sc.NumSessions(); s++ {
		if !DelayFeasible(a, model.SessionID(s)) {
			sd := SessionDelaysOf(a, model.SessionID(s))
			return fmt.Errorf("cost: session %d flow %d→%d delay %.1f ms exceeds Dmax %.1f ms (constraint (8))",
				s, sd.WorstFlow.Src, sd.WorstFlow.Dst, sd.WorstMS, e.sc.DMaxMS)
		}
	}
	return nil
}

// Infeasible is a sentinel objective value for states that violate
// constraints; it dominates every feasible objective.
var Infeasible = math.Inf(1)
