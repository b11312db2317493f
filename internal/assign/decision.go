package assign

import (
	"fmt"

	"vconf/internal/model"
)

// DecisionKind distinguishes the two families of decision variables.
type DecisionKind int

const (
	// UserMove changes one λ variable: re-subscribes a user to a new agent.
	UserMove DecisionKind = iota + 1
	// FlowMove changes one γ variable: moves one transcoding task to a new
	// agent.
	FlowMove
)

// Decision is a single-variable delta between two assignments — one edge of
// the Markov chain of §IV-A-2 ("direct links between two states ... only if
// the value of exactly one decision variable differs").
type Decision struct {
	Kind DecisionKind
	// User is the re-subscribed user (UserMove only).
	User model.UserID
	// Flow is the moved transcoding flow (FlowMove only).
	Flow model.Flow
	// To is the target agent.
	To model.AgentID
}

// String implements fmt.Stringer.
func (d Decision) String() string {
	switch d.Kind {
	case UserMove:
		return fmt.Sprintf("user %d → agent %d", d.User, d.To)
	case FlowMove:
		return fmt.Sprintf("flow %d→%d transcoding → agent %d", d.Flow.Src, d.Flow.Dst, d.To)
	default:
		return "invalid decision"
	}
}

// Apply mutates a by executing the decision. It returns the inverse
// decision, which restores the previous state when applied.
func (a *Assignment) Apply(d Decision) (Decision, error) {
	switch d.Kind {
	case UserMove:
		if int(d.User) < 0 || int(d.User) >= len(a.userAgent) {
			return Decision{}, fmt.Errorf("assign: apply: unknown user %d", d.User)
		}
		inv := Decision{Kind: UserMove, User: d.User, To: a.userAgent[d.User]}
		a.userAgent[d.User] = d.To
		return inv, nil
	case FlowMove:
		i := a.flowSlot(d.Flow)
		if i < 0 {
			return Decision{}, fmt.Errorf("assign: apply: flow %d→%d is not a transcoding flow",
				d.Flow.Src, d.Flow.Dst)
		}
		inv := Decision{Kind: FlowMove, Flow: d.Flow, To: a.flowAgent[i]}
		a.flowAgent[i] = d.To
		return inv, nil
	default:
		return Decision{}, fmt.Errorf("assign: apply: invalid decision kind %d", d.Kind)
	}
}

// AppendSessionNeighborDecisions appends to dst (usually a reused buffer
// truncated to length zero) every single-variable change inside session s
// and returns the extended slice: each member user re-subscribed to each
// other agent, in session order × agents ascending, then each of the
// session's transcoding flows moved to each other agent, in canonical order
// × agents ascending. This is the F_s candidate set of Alg. 1 line 12 before
// feasibility filtering; the caller filters by capacity/delay feasibility.
func (a *Assignment) AppendSessionNeighborDecisions(dst []Decision, s model.SessionID) []Decision {
	sc := a.sc
	numAgents := model.AgentID(sc.NumAgents())
	for _, u := range sc.Session(s).Users {
		cur := a.userAgent[u]
		for l := model.AgentID(0); l < numAgents; l++ {
			if l == cur {
				continue
			}
			dst = append(dst, Decision{Kind: UserMove, User: u, To: l})
		}
	}
	start, end := a.flowStart[s], a.flowStart[s+1]
	for i := start; i < end; i++ {
		cur := a.flowAgent[i]
		for l := model.AgentID(0); l < numAgents; l++ {
			if l == cur {
				continue
			}
			dst = append(dst, Decision{Kind: FlowMove, Flow: a.flows[i], To: l})
		}
	}
	return dst
}

// DiffCount returns the number of decision variables on which a and b
// differ. Two states are Markov-chain neighbors iff DiffCount == 1.
func (a *Assignment) DiffCount(b *Assignment) int {
	n := 0
	for i := range a.userAgent {
		if a.userAgent[i] != b.userAgent[i] {
			n++
		}
	}
	for i := range a.flowAgent {
		if a.flowAgent[i] != b.flowAgent[i] {
			n++
		}
	}
	return n
}
