// Package assign represents solutions of the user-to-agent assignment
// problem: the binary decision variables λ (user → agent subscription) and γ
// (transcoding flow → transcoding agent) of the paper, §III-A.
//
// An Assignment f = {λ, γ} is the state the Markov-approximation chain walks
// over; the package also enumerates the chain's neighbor structure (all
// assignments differing in exactly one decision variable, §IV-A-2).
package assign

import (
	"fmt"
	"strconv"
	"strings"

	"vconf/internal/model"
)

// Unassigned marks a user or flow that has no agent yet.
const Unassigned model.AgentID = -1

// Assignment is one (possibly partial) solution f = {λ, γ}. It is a plain
// mutable value: solvers clone it, mutate the clone, and evaluate.
type Assignment struct {
	sc *model.Scenario
	// userAgent[u] is the agent user u subscribes to (λ_lu = 1 ⇔
	// userAgent[u] == l), or Unassigned.
	userAgent []model.AgentID
	// flowAgent[i] is the transcoding agent of the i-th transcoding flow in
	// the scenario's canonical flow order, or Unassigned. The demanded
	// representation of each flow is fixed by the scenario (γ's r index).
	flowAgent []model.AgentID
	// flows is the canonical ordering of all transcoding flows, the
	// scenario's (model.Scenario.ThetaFlowTable): grouped by session,
	// flowStart[s] .. flowStart[s+1] delimit session s's flows, which lets
	// hot paths enumerate them without scanning or allocating. Within a
	// session the order is the scenario plan's (model.PlanPair.Flow), so a
	// flow resolves to its slot by arithmetic.
	flows     []model.Flow
	flowStart []int32
}

// New creates an all-Unassigned assignment for the scenario.
func New(sc *model.Scenario) *Assignment {
	flows, flowStart := sc.ThetaFlowTable()
	a := &Assignment{
		sc:        sc,
		userAgent: make([]model.AgentID, sc.NumUsers()),
		flowAgent: make([]model.AgentID, len(flows)),
		flows:     flows,
		flowStart: flowStart,
	}
	for i := range a.userAgent {
		a.userAgent[i] = Unassigned
	}
	for i := range a.flowAgent {
		a.flowAgent[i] = Unassigned
	}
	return a
}

// Scenario returns the scenario this assignment belongs to.
func (a *Assignment) Scenario() *model.Scenario { return a.sc }

// Clone returns a deep copy sharing the immutable scenario and flow tables.
func (a *Assignment) Clone() *Assignment {
	out := &Assignment{
		sc:        a.sc,
		userAgent: append([]model.AgentID(nil), a.userAgent...),
		flowAgent: append([]model.AgentID(nil), a.flowAgent...),
		flows:     a.flows,
		flowStart: a.flowStart,
	}
	return out
}

// UserAgent returns λ for user u: the agent it subscribes to.
func (a *Assignment) UserAgent(u model.UserID) model.AgentID { return a.userAgent[u] }

// SetUserAgent subscribes user u to agent l (l may be Unassigned).
func (a *Assignment) SetUserAgent(u model.UserID, l model.AgentID) {
	a.userAgent[u] = l
}

// FlowAgent returns γ for transcoding flow f: the agent transcoding it.
// The second return is false if f is not a transcoding flow of the scenario.
func (a *Assignment) FlowAgent(f model.Flow) (model.AgentID, bool) {
	i := a.flowSlot(f)
	if i < 0 {
		return Unassigned, false
	}
	return a.flowAgent[i], true
}

// flowSlot returns f's index in flowAgent, or -1 if f is not a transcoding
// flow of the scenario.
func (a *Assignment) flowSlot(f model.Flow) int {
	if int(f.Src) < 0 || int(f.Src) >= len(a.userAgent) || int(f.Dst) < 0 || int(f.Dst) >= len(a.userAgent) {
		return -1
	}
	k := a.sc.ThetaFlowIndex(f)
	if k < 0 {
		return -1
	}
	return int(a.flowStart[a.sc.User(f.Src).Session]) + k
}

// SetFlowAgent assigns the transcoding of flow f to agent l.
func (a *Assignment) SetFlowAgent(f model.Flow, l model.AgentID) error {
	i := a.flowSlot(f)
	if i < 0 {
		return fmt.Errorf("assign: flow %d→%d is not a transcoding flow", f.Src, f.Dst)
	}
	a.flowAgent[i] = l
	return nil
}

// Flows returns the canonical ordering of all transcoding flows. Shared
// slice; callers must not mutate.
func (a *Assignment) Flows() []model.Flow { return a.flows }

// SessionFlows returns the transcoding flows of session s in canonical
// order. Freshly allocated; hot paths use SessionFlowsShared instead.
func (a *Assignment) SessionFlows(s model.SessionID) []model.Flow {
	return append([]model.Flow(nil), a.SessionFlowsShared(s)...)
}

// SessionFlowsShared returns session s's transcoding flows as a view into
// the canonical flow table: zero allocations. Callers must not mutate it.
func (a *Assignment) SessionFlowsShared(s model.SessionID) []model.Flow {
	return a.flows[a.flowStart[s]:a.flowStart[s+1]]
}

// SessionFlowAgents returns session s's transcoding-flow agents as a view
// aligned index-for-index with SessionFlowsShared: zero allocations, no
// per-flow map lookups. Callers must not mutate it — the cost package's
// delay cache reads it to diff a session's flow placements against a
// cached signature in O(flows) integer compares.
func (a *Assignment) SessionFlowAgents(s model.SessionID) []model.AgentID {
	return a.flowAgent[a.flowStart[s]:a.flowStart[s+1]]
}

// SetSessionFlowAgents overwrites session s's transcoding-flow agents with
// to, aligned index-for-index with SessionFlowAgents.
func (a *Assignment) SetSessionFlowAgents(s model.SessionID, to []model.AgentID) {
	copy(a.SessionFlowAgents(s), to)
}

// Complete reports whether every user and every transcoding flow has an
// agent (constraints (1) and (3) of the paper hold structurally).
func (a *Assignment) Complete() bool {
	for _, l := range a.userAgent {
		if l == Unassigned {
			return false
		}
	}
	for _, l := range a.flowAgent {
		if l == Unassigned {
			return false
		}
	}
	return true
}

// SessionComplete reports completeness restricted to session s.
func (a *Assignment) SessionComplete(s model.SessionID) bool {
	for _, u := range a.sc.Session(s).Users {
		if a.userAgent[u] == Unassigned {
			return false
		}
	}
	for i, f := range a.flows {
		if a.sc.User(f.Src).Session == s && a.flowAgent[i] == Unassigned {
			return false
		}
	}
	return true
}

// Equal reports whether two assignments over the same scenario select the
// same agents everywhere.
func (a *Assignment) Equal(b *Assignment) bool {
	if a.sc != b.sc {
		return false
	}
	for i := range a.userAgent {
		if a.userAgent[i] != b.userAgent[i] {
			return false
		}
	}
	for i := range a.flowAgent {
		if a.flowAgent[i] != b.flowAgent[i] {
			return false
		}
	}
	return true
}

// Encode renders a compact canonical string key of the full state, usable
// as a map key when estimating empirical state distributions.
func (a *Assignment) Encode() string {
	var sb strings.Builder
	sb.Grow(3 * (len(a.userAgent) + len(a.flowAgent)))
	for i, l := range a.userAgent {
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(strconv.Itoa(int(l)))
	}
	sb.WriteByte('|')
	for i, l := range a.flowAgent {
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(strconv.Itoa(int(l)))
	}
	return sb.String()
}

// String implements fmt.Stringer with a human-readable dump.
func (a *Assignment) String() string {
	var sb strings.Builder
	sb.WriteString("assignment{users:")
	for u, l := range a.userAgent {
		fmt.Fprintf(&sb, " %d→%d", u, l)
	}
	sb.WriteString("; flows:")
	for i, f := range a.flows {
		fmt.Fprintf(&sb, " (%d→%d)@%d", f.Src, f.Dst, a.flowAgent[i])
	}
	sb.WriteString("}")
	return sb.String()
}
