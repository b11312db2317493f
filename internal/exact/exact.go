// Package exact exhaustively enumerates the feasible assignment space F of
// small problem instances. It provides the ground truth the Markov
// approximation is validated against: the optimal objective Φ_min, the
// analytic stationary distribution p*_f ∝ exp(−βΦ_f) of Eq. (9), its
// perturbed counterpart of Eq. (11), and the optimality-gap bounds of
// Theorem 1 (Eqs. (12)–(13)).
//
// The repro-band note for this paper flags the weak LP/MILP ecosystem in Go;
// enumeration at validation scale plus the hand-rolled heuristics elsewhere
// is the intended substitution (DESIGN.md §2).
package exact

import (
	"fmt"
	"math"

	"vconf/internal/assign"
	"vconf/internal/cost"
	"vconf/internal/model"
)

// State is one feasible assignment together with its objective value.
type State struct {
	// A is a frozen copy of the assignment.
	A *assign.Assignment
	// Phi is Φ_f under the evaluator's parameters.
	Phi float64
	// Key is the canonical encoding of the state (stable map key).
	Key string
}

// Enumeration is the full feasible space of a scenario.
type Enumeration struct {
	States []State
	// Index maps state keys to positions in States.
	Index map[string]int
	// MinPhi is Φ_min = min_f Φ_f.
	MinPhi float64
	// ArgMin is the index of an optimal state.
	ArgMin int
}

// DefaultLimit caps the number of raw combinations Enumerate will visit.
const DefaultLimit = 2_000_000

// Enumerate walks every combination of user and flow agents, keeps the
// feasible ones, and records their objectives. limit bounds the raw
// combination count (≤ 0 selects DefaultLimit); exceeding it is an error —
// enumeration is meant for validation-scale instances only.
func Enumerate(ev *cost.Evaluator, limit int) (*Enumeration, error) {
	if limit <= 0 {
		limit = DefaultLimit
	}
	sc := ev.Scenario()
	a := assign.New(sc)
	slots := sc.NumUsers() + len(a.Flows())
	L := sc.NumAgents()

	total := 1.0
	for i := 0; i < slots; i++ {
		total *= float64(L)
		if total > float64(limit) {
			return nil, fmt.Errorf("exact: %d slots over %d agents exceeds limit %d", slots, L, limit)
		}
	}

	enum := &Enumeration{
		Index:  make(map[string]int),
		MinPhi: math.Inf(1),
		ArgMin: -1,
	}

	counters := make([]int, slots)
	flows := a.Flows()
	for {
		// Materialize the combination.
		for u := 0; u < sc.NumUsers(); u++ {
			a.SetUserAgent(model.UserID(u), model.AgentID(counters[u]))
		}
		for i, f := range flows {
			if err := a.SetFlowAgent(f, model.AgentID(counters[sc.NumUsers()+i])); err != nil {
				return nil, err
			}
		}
		if ev.CheckFeasible(a) == nil {
			phi := ev.TotalObjective(a)
			st := State{A: a.Clone(), Phi: phi, Key: a.Encode()}
			enum.Index[st.Key] = len(enum.States)
			enum.States = append(enum.States, st)
			if phi < enum.MinPhi {
				enum.MinPhi = phi
				enum.ArgMin = len(enum.States) - 1
			}
		}
		// Advance the odometer.
		i := 0
		for ; i < slots; i++ {
			counters[i]++
			if counters[i] < L {
				break
			}
			counters[i] = 0
		}
		if i == slots {
			break
		}
	}
	if len(enum.States) == 0 {
		return nil, fmt.Errorf("exact: no feasible assignment exists")
	}
	return enum, nil
}

// Stationary returns the analytic stationary distribution of Eq. (9):
// p*_f = exp(−βΦ_f) / Σ_{f'} exp(−βΦ_{f'}), computed with max-shifted
// exponents for numerical stability. scale multiplies Φ before β is applied
// (see core.Config.ObjectiveScale).
func (e *Enumeration) Stationary(beta, scale float64) []float64 {
	n := len(e.States)
	out := make([]float64, n)
	minPhi := e.MinPhi
	sum := 0.0
	for i, st := range e.States {
		out[i] = math.Exp(-beta * scale * (st.Phi - minPhi))
		sum += out[i]
	}
	for i := range out {
		out[i] /= sum
	}
	return out
}

// ExpectedPhi returns Φ_avg = Σ_f p_f Φ_f for a given distribution.
func (e *Enumeration) ExpectedPhi(dist []float64) float64 {
	avg := 0.0
	for i, st := range e.States {
		avg += dist[i] * st.Phi
	}
	return avg
}

// GapBound returns the Theorem-1 optimality-gap bound
// (U + θ_sum)·log L / (β·scale): the guaranteed ceiling on Φ_avg − Φ_min.
func GapBound(sc *model.Scenario, beta, scale float64) float64 {
	return float64(sc.NumUsers()+sc.ThetaSum()) * math.Log(float64(sc.NumAgents())) / (beta * scale)
}

// Neighbors returns, for each state, the indices of feasible states
// differing in exactly one decision variable — the Markov chain's edge
// structure (Fig. 3).
func (e *Enumeration) Neighbors() [][]int {
	n := len(e.States)
	out := make([][]int, n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if e.States[i].A.DiffCount(e.States[j].A) == 1 {
				out[i] = append(out[i], j)
				out[j] = append(out[j], i)
			}
		}
	}
	return out
}

// Connected reports whether the feasible space is irreducible under
// single-variable hops (every state reachable from every other), the first
// sufficient condition of §IV-A-2.
func (e *Enumeration) Connected() bool {
	n := len(e.States)
	if n == 0 {
		return false
	}
	adj := e.Neighbors()
	seen := make([]bool, n)
	queue := []int{0}
	seen[0] = true
	count := 1
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for _, w := range adj[v] {
			if !seen[w] {
				seen[w] = true
				count++
				queue = append(queue, w)
			}
		}
	}
	return count == n
}
