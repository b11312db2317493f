package model

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
)

// DefaultDMaxMS is the maximum acceptable user-to-user conferencing delay in
// milliseconds per ITU-T Recommendation G.114 (§V of the paper).
const DefaultDMaxMS = 400.0

// Scenario is a complete, immutable problem instance of the user-to-agent
// assignment problem: the user/session/agent population together with the
// measured delay matrices.
//
// A Scenario is built once (via NewScenario or a Builder) and then shared
// read-only by solvers, simulators and benchmarks. None of its methods
// mutate it.
type Scenario struct {
	Reps     *RepresentationSet
	Users    []User
	Sessions []Session
	Agents   []Agent

	// DMS is the inter-agent delay matrix D (L×L), in milliseconds.
	// DMS[l][k] is the one-way latency between agents l and k.
	DMS [][]float64
	// HMS is the agent-to-user delay matrix H (L×U), in milliseconds.
	// HMS[l][u] is the one-way propagation delay between agent l and user u.
	HMS [][]float64

	// DMaxMS is the end-to-end delay cap of constraint (8). Zero means
	// "use DefaultDMaxMS"; NewScenario normalizes it.
	DMaxMS float64

	// DownscaleOnly activates the paper's footnote-1 customization of θ:
	// only high-to-low quality transcoding is performed. A destination
	// demanding a representation above a source's upstream receives the
	// native stream instead (its effective downstream representation is
	// clamped to the upstream), so such flows never count as transcoding.
	DownscaleOnly bool

	// participants caches P(u) per user.
	participants [][]UserID
	// thetaSum caches the total number of transcoding flows Σ_u Σ_v θ_uv.
	thetaSum int

	// The compiled evaluation plan (see plan.go): flat member, pair and
	// transcoding-flow tables laid out session by session, the per-session
	// offsets into them, and each user's location in them.
	planMembers []PlanMember
	planPairs   []PlanPair
	planFlows   []PlanFlow
	thetaFlows  []Flow // planFlows' (source, destination) users
	memberStart []int32
	pairStart   []int32
	flowStart   []int32
	planRefs    []planRef

	// nearest is the nearest-agent table, built on first use; nearestMu
	// serializes its builds.
	nearest   atomic.Pointer[nearestTable]
	nearestMu sync.Mutex
}

// ScenarioOption customizes scenario semantics at construction time.
type ScenarioOption func(*Scenario)

// WithDownscaleOnly restricts transcoding to high-to-low quality conversions
// (paper §II footnote 1).
func WithDownscaleOnly() ScenarioOption {
	return func(sc *Scenario) { sc.DownscaleOnly = true }
}

// NewScenario validates the inputs and assembles a scenario. It copies
// nothing: callers hand over ownership of the slices.
func NewScenario(
	reps *RepresentationSet,
	users []User,
	sessions []Session,
	agents []Agent,
	dMS [][]float64,
	hMS [][]float64,
	dMaxMS float64,
	opts ...ScenarioOption,
) (*Scenario, error) {
	sc := &Scenario{
		Reps:     reps,
		Users:    users,
		Sessions: sessions,
		Agents:   agents,
		DMS:      dMS,
		HMS:      hMS,
		DMaxMS:   dMaxMS,
	}
	for _, opt := range opts {
		opt(sc)
	}
	if sc.DMaxMS == 0 {
		sc.DMaxMS = DefaultDMaxMS
	}
	if err := sc.validate(); err != nil {
		return nil, err
	}
	sc.buildCaches()
	return sc, nil
}

// NumUsers returns U.
func (sc *Scenario) NumUsers() int { return len(sc.Users) }

// NumSessions returns S.
func (sc *Scenario) NumSessions() int { return len(sc.Sessions) }

// NumAgents returns L.
func (sc *Scenario) NumAgents() int { return len(sc.Agents) }

// User returns the user with the given ID.
func (sc *Scenario) User(u UserID) *User { return &sc.Users[u] }

// Session returns the session with the given ID.
func (sc *Scenario) Session(s SessionID) *Session { return &sc.Sessions[s] }

// Agent returns the agent with the given ID.
func (sc *Scenario) Agent(l AgentID) *Agent { return &sc.Agents[l] }

// D returns the inter-agent delay D[l][k] in milliseconds.
func (sc *Scenario) D(l, k AgentID) float64 { return sc.DMS[l][k] }

// H returns the agent-to-user delay H[l][u] in milliseconds.
func (sc *Scenario) H(l AgentID, u UserID) float64 { return sc.HMS[l][u] }

// Theta reports θ_uv: whether the flow from source u to destination v
// requires transcoding — v's effective demand for u's stream differs from
// u's upstream representation. It is false whenever u and v are not in the
// same session or u == v.
func (sc *Scenario) Theta(u, v UserID) bool {
	p := sc.pair(u, v)
	return p != nil && p.Flow >= 0
}

// ThetaSum returns θ^sum, the total number of transcoding flows across all
// sessions (Σ_u Σ_v θ_uv). This sizes the decision space O(L^(U+θsum)).
func (sc *Scenario) ThetaSum() int { return sc.thetaSum }

// Participants returns P(u): the other members of u's session. The returned
// slice is shared; callers must not mutate it.
func (sc *Scenario) Participants(u UserID) []UserID { return sc.participants[u] }

// SessionThetaFlows returns the transcoding flows (source, destination)
// inside session s, in deterministic order.
func (sc *Scenario) SessionThetaFlows(s SessionID) []Flow {
	var flows []Flow
	plan := sc.Plan(s)
	for i, u := range sc.Sessions[s].Users {
		row := plan.Row(i)
		for jj, v := range sc.participants[u] {
			if row[jj].Flow >= 0 {
				flows = append(flows, Flow{Src: u, Dst: v})
			}
		}
	}
	return flows
}

// Flow identifies one directed stream from a source user to a destination
// user within a session.
type Flow struct {
	Src UserID
	Dst UserID
}

// Downstream returns the *effective* downstream representation of the flow
// src→dst: the destination's demand, clamped to the source's upstream when
// the scenario is DownscaleOnly (no upscaling exists, so a higher demand is
// served natively).
func (sc *Scenario) Downstream(dst, src UserID) Representation {
	if p := sc.pair(src, dst); p != nil {
		return Representation(p.Rep)
	}
	return sc.demand(dst, src)
}

// demand derives Downstream from the users' demand maps — what the plan is
// compiled from, and the answer for users that are not participants of one
// another.
func (sc *Scenario) demand(dst, src UserID) Representation {
	r := sc.Users[dst].DownstreamFrom(&sc.Users[src])
	if sc.DownscaleOnly && r > sc.Users[src].Upstream {
		return sc.Users[src].Upstream
	}
	return r
}

// DownstreamRep returns the effective downstream representation for flow
// u→v (see Downstream).
func (sc *Scenario) DownstreamRep(f Flow) Representation {
	return sc.Downstream(f.Dst, f.Src)
}

// NearestAgent returns the agent with minimal H-delay to user u. Ties break
// toward the lower agent ID, which keeps results deterministic.
func (sc *Scenario) NearestAgent(u UserID) AgentID {
	t := sc.nearestAgents(1)
	return t.agents[int(u)*t.k]
}

// AppendNearestAgents appends to dst the k agents nearest to user u by
// H-delay, nearest first (ties broken by agent ID), and returns the extended
// slice. It copies the prefix of u's row in the scenario's nearest-agent
// table — O(k), after the first request of a width built the table in
// O(L·U·k) — and allocates nothing when dst has room for k more entries. k is
// clamped to [0, NumAgents].
func (sc *Scenario) AppendNearestAgents(dst []AgentID, u UserID, k int) []AgentID {
	if k > len(sc.Agents) {
		k = len(sc.Agents)
	}
	if k <= 0 {
		return dst
	}
	t := sc.nearestAgents(k)
	return append(dst, t.agents[int(u)*t.k:][:k]...)
}

// nearestTable holds every user's t.k delay-nearest agents, nearest first
// with ties by agent ID: user u's row is agents[u·k, (u+1)·k). Its prefix of
// width j ≤ k is the table of width j.
type nearestTable struct {
	k      int
	agents []AgentID
}

// nearestAgents returns a nearest-agent table at least k wide (1 ≤ k ≤ L),
// building one on first use or when a wider one is asked for. A published
// table is never written again, so readers keep the one they loaded.
func (sc *Scenario) nearestAgents(k int) *nearestTable {
	if t := sc.nearest.Load(); t != nil && t.k >= k {
		return t
	}
	sc.nearestMu.Lock()
	defer sc.nearestMu.Unlock()
	if t := sc.nearest.Load(); t != nil && t.k >= k {
		return t
	}
	t := &nearestTable{k: k, agents: make([]AgentID, len(sc.Users)*k)}
	delays := make([]float64, len(t.agents))
	// Each user's bounded insertion over one scan of the fleet, for all users
	// at once, walking H by rows. Agents arrive in ascending ID, so on equal
	// delay the newcomer sorts after every kept agent: only a strictly
	// smaller delay displaces one.
	for l, row := range sc.HMS {
		kept := min(l, k)
		for u, d := range row {
			ag, dl := t.agents[u*k:(u+1)*k], delays[u*k:(u+1)*k]
			i := kept
			if kept == k {
				if d >= dl[k-1] {
					continue
				}
				i = k - 1
			}
			for ; i > 0 && dl[i-1] > d; i-- {
				ag[i], dl[i] = ag[i-1], dl[i-1]
			}
			ag[i], dl[i] = AgentID(l), d
		}
	}
	sc.nearest.Store(t)
	return t
}

func (sc *Scenario) validate() error {
	if sc.Reps == nil {
		return fmt.Errorf("model: scenario has no representation set")
	}
	if len(sc.Agents) == 0 {
		return fmt.Errorf("model: scenario has no agents")
	}
	if len(sc.Users) == 0 {
		return fmt.Errorf("model: scenario has no users")
	}
	for i := range sc.Sessions {
		s := &sc.Sessions[i]
		if s.ID != SessionID(i) {
			return fmt.Errorf("model: session at index %d has ID %d", i, s.ID)
		}
		if len(s.Users) == 0 {
			return fmt.Errorf("model: session %d is empty", s.ID)
		}
		seen := make(map[UserID]bool, len(s.Users))
		for _, u := range s.Users {
			if int(u) < 0 || int(u) >= len(sc.Users) {
				return fmt.Errorf("model: session %d lists unknown user %d", s.ID, u)
			}
			if seen[u] {
				return fmt.Errorf("model: session %d lists user %d twice", s.ID, u)
			}
			seen[u] = true
			if sc.Users[u].Session != s.ID {
				return fmt.Errorf("model: user %d is listed in session %d but belongs to %d",
					u, s.ID, sc.Users[u].Session)
			}
		}
	}
	for i := range sc.Users {
		u := &sc.Users[i]
		if u.ID != UserID(i) {
			return fmt.Errorf("model: user at index %d has ID %d", i, u.ID)
		}
		if err := validateUser(u, sc.Reps, sc.Sessions, sc.Users); err != nil {
			return err
		}
	}
	for i := range sc.Agents {
		a := &sc.Agents[i]
		if a.ID != AgentID(i) {
			return fmt.Errorf("model: agent at index %d has ID %d", i, a.ID)
		}
		if err := validateAgent(a, sc.Reps); err != nil {
			return err
		}
	}
	if err := validateMatrix("D", sc.DMS, len(sc.Agents), len(sc.Agents)); err != nil {
		return err
	}
	if err := validateMatrix("H", sc.HMS, len(sc.Agents), len(sc.Users)); err != nil {
		return err
	}
	for l := range sc.Agents {
		if sc.DMS[l][l] != 0 {
			return fmt.Errorf("model: D[%d][%d] must be zero", l, l)
		}
	}
	if sc.DMaxMS <= 0 {
		return fmt.Errorf("model: DMaxMS must be positive, got %v", sc.DMaxMS)
	}
	return nil
}

func validateMatrix(name string, m [][]float64, rows, cols int) error {
	if len(m) != rows {
		return fmt.Errorf("model: matrix %s has %d rows, want %d", name, len(m), rows)
	}
	for i, row := range m {
		if len(row) != cols {
			return fmt.Errorf("model: matrix %s row %d has %d cols, want %d", name, i, len(row), cols)
		}
		for j, v := range row {
			if v < 0 || math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("model: matrix %s[%d][%d] = %v is not a valid delay", name, i, j, v)
			}
		}
	}
	return nil
}

func (sc *Scenario) buildCaches() {
	sc.participants = make([][]UserID, len(sc.Users))
	for si := range sc.Sessions {
		members := sc.Sessions[si].Users
		for _, u := range members {
			peers := make([]UserID, 0, len(members)-1)
			for _, v := range members {
				if v != u {
					peers = append(peers, v)
				}
			}
			sc.participants[u] = peers
		}
	}
	sc.buildPlan()
}
