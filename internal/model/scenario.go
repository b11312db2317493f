package model

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
)

// DefaultDMaxMS is the maximum acceptable user-to-user conferencing delay in
// milliseconds per ITU-T Recommendation G.114 (§V of the paper).
const DefaultDMaxMS = 400.0

// Scenario is a complete, immutable problem instance of the user-to-agent
// assignment problem: the user/session/agent population together with the
// measured delays — the inter-agent matrix D and the agent-to-user delay H,
// held as a function plus every user's nearest-agent row.
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

	// h computes H; near holds every user's nearestWidth delay-nearest
	// agents with their delays, built at construction, and H answers from
	// it. wide is a wider table, built when AppendNearestAgents first asks
	// for more; wideMu serializes its builds.
	h      DelayFunc
	near   nearestTable
	wide   atomic.Pointer[nearestTable]
	wideMu sync.Mutex
}

// DelayFunc returns H(l, u), the one-way delay between agent l and user u in
// milliseconds. It must be a pure function of the pair, safe for concurrent
// use: a scenario calls it for every pair at construction, and again for any
// pair outside the user's nearest-agent row.
type DelayFunc func(l AgentID, u UserID) float64

// nearestWidth is the width of the nearest-agent table a scenario builds at
// construction (or L, when the fleet is smaller). Alg. 1's neighbourhood
// windows and AgRank's n_ngbr price a user only at agents within it.
const nearestWidth = 8

// ScenarioOption customizes scenario semantics at construction time.
type ScenarioOption func(*Scenario)

// WithDownscaleOnly restricts transcoding to high-to-low quality conversions
// (paper §II footnote 1).
func WithDownscaleOnly() ScenarioOption {
	return func(sc *Scenario) { sc.DownscaleOnly = true }
}

// NewScenario validates the inputs and assembles a scenario. It copies
// nothing: callers hand over ownership of the slices. h supplies H (see
// MatrixDelays for a matrix); every one of its L·U delays is checked here.
func NewScenario(
	reps *RepresentationSet,
	users []User,
	sessions []Session,
	agents []Agent,
	dMS [][]float64,
	h DelayFunc,
	dMaxMS float64,
	opts ...ScenarioOption,
) (*Scenario, error) {
	sc := &Scenario{
		Reps:     reps,
		Users:    users,
		Sessions: sessions,
		Agents:   agents,
		DMS:      dMS,
		h:        h,
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
	near, err := scanNearest(h, len(agents), len(users), min(nearestWidth, len(agents)))
	if err != nil {
		return nil, err
	}
	sc.near = *near
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

// H returns the agent-to-user delay H[l][u] in milliseconds: from u's row of
// the nearest-agent table when l is in it, from the delay function
// otherwise — the same bits either way.
func (sc *Scenario) H(l AgentID, u UserID) float64 {
	row := int(u) * sc.near.k
	for i, a := range sc.near.agents[row : row+sc.near.k] {
		if a == l {
			return sc.near.delays[row+i]
		}
	}
	return sc.h(l, u)
}

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
// table — O(k); the first request wider than the table built at construction
// builds a wider one in O(L·U·k) — and allocates nothing when dst has room
// for k more entries. k is clamped to [0, NumAgents].
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
// with ties by agent ID: user u's row is agents[u·k, (u+1)·k), and delays
// holds their H values (the construction table only). Its prefix of width
// j ≤ k is the table of width j.
type nearestTable struct {
	k      int
	agents []AgentID
	delays []float64
}

// nearestAgents returns a nearest-agent table at least k wide (1 ≤ k ≤ L):
// the construction table, or a wider one built on first use. A published
// table is never written again, so readers keep the one they loaded.
func (sc *Scenario) nearestAgents(k int) *nearestTable {
	if k <= sc.near.k {
		return &sc.near
	}
	if t := sc.wide.Load(); t != nil && t.k >= k {
		return t
	}
	sc.wideMu.Lock()
	defer sc.wideMu.Unlock()
	if t := sc.wide.Load(); t != nil && t.k >= k {
		return t
	}
	t, _ := scanNearest(sc.h, len(sc.Agents), len(sc.Users), k) // validated at construction
	t.delays = nil
	sc.wide.Store(t)
	return t
}

// scanNearest builds the nearest-agent table of width k in one scan of all
// L·U pairs of h, run in parallel over users. Each user's row is a bounded
// insertion over the agents in ascending ID, so on equal delay the newcomer
// sorts after every kept agent: only a strictly smaller delay displaces one.
// The scan rejects a negative, NaN or infinite delay, naming the first in
// (agent, user) order as a row-major matrix check would.
func scanNearest(h DelayFunc, agents, users, k int) (*nearestTable, error) {
	t := &nearestTable{k: k, agents: make([]AgentID, users*k), delays: make([]float64, users*k)}
	var mu sync.Mutex
	badL, badU, badD := agents, 0, 0.0
	parallelChunks(users, func(lo, hi int) {
		for u := lo; u < hi; u++ {
			ag, dl := t.agents[u*k:(u+1)*k], t.delays[u*k:(u+1)*k]
			for l := 0; l < agents; l++ {
				d := h(AgentID(l), UserID(u))
				if d < 0 || math.IsNaN(d) || math.IsInf(d, 0) {
					mu.Lock()
					if l < badL || l == badL && u < badU {
						badL, badU, badD = l, u, d
					}
					mu.Unlock()
					break
				}
				i := min(l, k)
				if i == k {
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
	})
	if badL < agents {
		return nil, fmt.Errorf("model: matrix H[%d][%d] = %v is not a valid delay", badL, badU, badD)
	}
	return t, nil
}

// parallelChunks calls f(lo, hi) over [0, n) in chunks of 64 on up to
// GOMAXPROCS goroutines, each taking the next unclaimed chunk.
func parallelChunks(n int, f func(lo, hi int)) {
	const chunk = 64
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := min(runtime.GOMAXPROCS(0), (n+chunk-1)/chunk); w > 0; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for lo := int(next.Add(chunk) - chunk); lo < n; lo = int(next.Add(chunk) - chunk) {
				f(lo, min(lo+chunk, n))
			}
		}()
	}
	wg.Wait()
}

// MatrixDelays checks that hMS is an L×U matrix and wraps it as a DelayFunc;
// NewScenario checks its values.
func MatrixDelays(hMS [][]float64, agents, users int) (DelayFunc, error) {
	if err := matrixShape("H", hMS, agents, users); err != nil {
		return nil, err
	}
	return func(l AgentID, u UserID) float64 { return hMS[l][u] }, nil
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
	if sc.h == nil {
		return fmt.Errorf("model: scenario has no agent-user delays")
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
	if err := matrixShape(name, m, rows, cols); err != nil {
		return err
	}
	for i, row := range m {
		for j, v := range row {
			if v < 0 || math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("model: matrix %s[%d][%d] = %v is not a valid delay", name, i, j, v)
			}
		}
	}
	return nil
}

func matrixShape(name string, m [][]float64, rows, cols int) error {
	if len(m) != rows {
		return fmt.Errorf("model: matrix %s has %d rows, want %d", name, len(m), rows)
	}
	for i, row := range m {
		if len(row) != cols {
			return fmt.Errorf("model: matrix %s row %d has %d cols, want %d", name, i, len(row), cols)
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
