// Package agrank implements AgRank (Alg. 2 of the paper): the proximity- and
// resource-aware agent ranking scheme that bootstraps the Markov
// approximation algorithm with a close-to-optimal initial assignment.
//
// Per session: (1) collect each user's n_ngbr nearest agents into the
// session's potential set N(s); (2) seed a rank vector with the agents'
// normalized residual resource quadruples; (3) iterate the rank against the
// normalized inverse inter-agent delay matrix D̂ (a PageRank-style random
// walk, which the paper cites as the design's motivation [4]); (4) subscribe
// each user to its highest-ranked candidate, with capacity-aware fallback
// down the candidate ranking; (5) place transcoding tasks by the paper's
// rule of thumb (≥ 2 same-representation destinations ⇒ source agent).
package agrank

import (
	"errors"
	"fmt"
	"iter"
	"math"
	"slices"
	"sort"

	"vconf/internal/assign"
	"vconf/internal/cost"
	"vconf/internal/model"
)

// ErrInfeasible reports that AgRank could not admit a session within its
// candidate set without violating capacity or delay constraints.
var ErrInfeasible = errors.New("agrank: session admission infeasible")

// Options tune AgRank.
type Options struct {
	// NNgbr is n_ngbr ∈ [1, L]: the number of nearest agents considered per
	// user. 1 degenerates to the nearest policy; L subscribes the whole
	// session toward the single top-ranked agent (§IV-B).
	NNgbr int
	// Damping selects the rank iteration. A value in (0,1) runs the damped
	// personalized iteration π ← d·π·D̂_rownorm + (1−d)·π[0], which keeps the
	// resource-aware seed influential (PageRank-style; see DESIGN.md for why
	// the paper's literal π ← π·D̂ forgets its seed). 0 selects the literal
	// normalized power iteration for ablation.
	Damping float64
	// Epsilon is the iteration's convergence threshold ε on ‖π[t+1]−π[t]‖₁.
	Epsilon float64
	// MaxIters bounds the iteration count (AgRank converges in
	// O(max{1, −log ε}) iterations per the paper's complexity analysis).
	MaxIters int
}

// DefaultOptions returns the paper-flavored defaults for a given n_ngbr.
func DefaultOptions(nngbr int) Options {
	return Options{
		NNgbr:    nngbr,
		Damping:  0.85,
		Epsilon:  1e-9,
		MaxIters: 200,
	}
}

func (o Options) validate(numAgents int) error {
	if o.NNgbr < 1 || o.NNgbr > numAgents {
		return fmt.Errorf("agrank: NNgbr %d outside [1, %d]", o.NNgbr, numAgents)
	}
	if o.Damping < 0 || o.Damping >= 1 {
		return fmt.Errorf("agrank: damping %v outside [0, 1)", o.Damping)
	}
	if o.Epsilon <= 0 || o.MaxIters < 1 {
		return fmt.Errorf("agrank: invalid epsilon %v or max iterations %d", o.Epsilon, o.MaxIters)
	}
	return nil
}

// Result reports what AgRank decided for one session.
type Result struct {
	// Potential is N(s): the session's candidate agents in ascending ID.
	Potential []model.AgentID
	// Rank maps each candidate agent to its converged rank π_l.
	Rank map[model.AgentID]float64
	// Candidates is N(u) per user, sorted by descending rank (the fallback
	// order used during admission).
	Candidates map[model.UserID][]model.AgentID
	// Iterations is the number of rank iterations until δ < ε.
	Iterations int
}

// BootstrapSession runs AgRank for session s: ranks agents using the
// ledger's residual capacities, assigns users and transcoding tasks, and on
// success adds the session's load to the ledger. On failure every decision
// of the session is rolled back.
//
// Every placement attempt prices the session's partial load on the sparse
// kernel and checks it on the agents it touches, so an attempt costs
// O(session), not O(fleet). The ledger alone is checked once per admission;
// the final TryAdd checks the whole ledger again, atomically with the add.
func BootstrapSession(a *assign.Assignment, s model.SessionID, p cost.Params, ledger cost.LedgerAPI, opts Options) (*Result, error) {
	sc := a.Scenario()
	if err := opts.validate(sc.NumAgents()); err != nil {
		return nil, err
	}

	res := rankSession(sc, s, ledger, opts)

	scr := cost.GetScratch()
	defer cost.PutScratch(scr)
	background := ledger.Fits(nil)
	fits := func() bool {
		return background && ledger.FitsTouched(p.SessionLoadSparse(a, s, scr))
	}
	if err := admitUsers(a, s, res, fits); err != nil {
		rollbackSession(a, s)
		return res, err
	}
	if err := placeTranscoding(a, s, res, fits); err != nil {
		rollbackSession(a, s)
		return res, err
	}
	if !cost.DelayFeasible(a, s) {
		rollbackSession(a, s)
		return res, fmt.Errorf("%w: session %d violates the delay cap", ErrInfeasible, s)
	}
	// Atomic check-then-add: with the pipelined orchestrator, admission
	// runs while worker commits mutate the ledger, so a separate
	// Fits-then-Add could validate against usage a concurrent commit then
	// grows past capacity.
	if !ledger.TryAdd(p.SessionLoadSparse(a, s, scr)) {
		rollbackSession(a, s)
		return res, fmt.Errorf("%w: session %d final load exceeds capacity", ErrInfeasible, s)
	}
	return res, nil
}

// Bootstrap runs AgRank over every session in ID order. It stops at the
// first infeasible session (callers treat any error as a failed scenario in
// success-rate experiments).
func Bootstrap(a *assign.Assignment, p cost.Params, ledger cost.LedgerAPI, opts Options) error {
	sc := a.Scenario()
	for s := 0; s < sc.NumSessions(); s++ {
		if _, err := BootstrapSession(a, model.SessionID(s), p, ledger, opts); err != nil {
			return err
		}
	}
	return nil
}

// rankSession performs steps (1)–(3): candidate collection and ranking.
func rankSession(sc *model.Scenario, s model.SessionID, ledger cost.LedgerAPI, opts Options) *Result {
	members := sc.Session(s).Users
	k := opts.NNgbr

	// N(u): top n_ngbr nearest agents per user, member m's at near[m·k:];
	// N(s): their union, ascending.
	near := make([]model.AgentID, 0, len(members)*k)
	for _, u := range members {
		near = sc.AppendNearestAgents(near, u, k)
	}
	potential := slices.Compact(slices.Sorted(slices.Values(near)))

	pi0 := seedRanks(sc, potential, ledger)
	pi, iters := iterateRanks(sc, potential, pi0, opts)

	rank := make(map[model.AgentID]float64, len(potential))
	for i, l := range potential {
		rank[l] = pi[i]
	}

	// Candidate order per user: descending rank, ties by proximity then ID.
	candidates := make(map[model.UserID][]model.AgentID, len(members))
	for m, u := range members {
		cand := near[m*k : (m+1)*k : (m+1)*k]
		uu := u
		sort.SliceStable(cand, func(i, j int) bool {
			ri, rj := rank[cand[i]], rank[cand[j]]
			if ri != rj {
				return ri > rj
			}
			hi, hj := sc.H(cand[i], uu), sc.H(cand[j], uu)
			if hi != hj {
				return hi < hj
			}
			return cand[i] < cand[j]
		})
		candidates[u] = cand
	}

	return &Result{
		Potential:  potential,
		Rank:       rank,
		Candidates: candidates,
		Iterations: iters,
	}
}

// seedRanks computes π[0]: the normalized residual quadruple of each
// candidate (Alg. 2 line 8). Upload, download and transcoding residuals are
// sum-normalized across candidates; the σ component rewards faster
// transcoders (inverse mean latency, sum-normalized), since smaller σ means
// a more capable agent.
func seedRanks(sc *model.Scenario, potential []model.AgentID, ledger cost.LedgerAPI) []float64 {
	n := len(potential)
	resUp := make([]float64, n)
	resDown := make([]float64, n)
	resTasks := make([]float64, n)
	invSigma := make([]float64, n)
	var sumUp, sumDown, sumTasks, sumInvSigma float64
	for i, l := range potential {
		ag := sc.Agent(l)
		down, up, tasks := ledger.UsageAt(l)
		resUp[i] = math.Max(0, ag.Upload-up)
		resDown[i] = math.Max(0, ag.Download-down)
		resTasks[i] = math.Max(0, float64(ag.TranscodeSlots-tasks))
		invSigma[i] = 1 / (meanOffDiagonal(ag.SigmaMS) + 1) // +1 guards σ≡0
		sumUp += resUp[i]
		sumDown += resDown[i]
		sumTasks += resTasks[i]
		sumInvSigma += invSigma[i]
	}
	pi0 := make([]float64, n)
	total := 0.0
	for i := range potential {
		v := safeDiv(resUp[i], sumUp) + safeDiv(resDown[i], sumDown) +
			safeDiv(resTasks[i], sumTasks) + safeDiv(invSigma[i], sumInvSigma)
		pi0[i] = v
		total += v
	}
	if total == 0 {
		// All residuals exhausted: fall back to uniform.
		for i := range pi0 {
			pi0[i] = 1 / float64(n)
		}
		return pi0
	}
	for i := range pi0 {
		pi0[i] /= total
	}
	return pi0
}

// iterateRanks runs the rank iteration over D̂ until ‖Δ‖₁ < ε.
func iterateRanks(sc *model.Scenario, potential []model.AgentID, pi0 []float64, opts Options) ([]float64, int) {
	n := len(potential)
	if n == 1 {
		return []float64{1}, 0
	}
	dhat := buildDhat(sc, potential, opts.Damping > 0)

	pi := append([]float64(nil), pi0...)
	next := make([]float64, n)
	iters := 0
	for ; iters < opts.MaxIters; iters++ {
		// next = pi · dhat  (left multiplication: rank mass flows along
		// low-delay edges).
		for j := 0; j < n; j++ {
			acc := 0.0
			for i, d := range dhat[j*n : j*n+n] {
				acc += pi[i] * d
			}
			next[j] = acc
		}
		if opts.Damping > 0 {
			for j := 0; j < n; j++ {
				next[j] = opts.Damping*next[j] + (1-opts.Damping)*pi0[j]
			}
		} else {
			// Literal power iteration: L1-renormalize to keep the vector
			// from vanishing/exploding (the direction is what matters).
			sum := 0.0
			for _, v := range next {
				sum += v
			}
			if sum > 0 {
				for j := range next {
					next[j] /= sum
				}
			}
		}
		delta := 0.0
		for j := 0; j < n; j++ {
			delta += math.Abs(next[j] - pi[j])
		}
		copy(pi, next)
		if delta < opts.Epsilon {
			iters++
			break
		}
	}
	return pi, iters
}

// buildDhat constructs D̂ over the candidate set: D̂[l][k] =
// min_offdiag(D)/D[l][k] with diagonal 1 (self-delay is the minimum). When
// rowNormalize is set, rows are scaled to sum to 1 so the damped iteration
// is a proper personalized random walk. D̂ is returned column by column —
// entry (i, j) at j·n + i — the order the iteration reads it in.
func buildDhat(sc *model.Scenario, potential []model.AgentID, rowNormalize bool) []float64 {
	n := len(potential)
	minD := math.Inf(1)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			if d := sc.D(potential[i], potential[j]); d < minD && d > 0 {
				minD = d
			}
		}
	}
	if math.IsInf(minD, 1) {
		minD = 1 // all off-diagonal delays are zero: degenerate uniform case
	}
	dhat := make([]float64, n*n)
	for i := 0; i < n; i++ {
		rowSum := 0.0
		for j := 0; j < n; j++ {
			var v float64
			if i == j {
				v = 1
			} else if d := sc.D(potential[i], potential[j]); d > 0 {
				v = minD / d
			} else {
				v = 1 // zero measured delay: as good as self
			}
			dhat[j*n+i] = v
			rowSum += v
		}
		if rowNormalize && rowSum > 0 {
			for j := 0; j < n; j++ {
				dhat[j*n+i] /= rowSum
			}
		}
	}
	return dhat
}

// admitUsers performs step (4): each user subscribes to its highest-ranked
// candidate, falling back down the candidate list when the partial session
// load would no longer fit the ledger or a flow among the already-admitted
// members would bust the delay cap. The delay-aware fallback keeps rank
// concentration from dragging far-away users past Dmax — without it a
// top-ranked hub can be capacity-feasible yet delay-infeasible for users on
// other continents.
func admitUsers(a *assign.Assignment, s model.SessionID, res *Result, fits func() bool) error {
	sc := a.Scenario()
	for _, u := range sc.Session(s).Users {
		admitted := false
		for _, l := range res.Candidates[u] {
			a.SetUserAgent(u, l)
			if fits() && memberDelayOK(a, u) {
				admitted = true
				break
			}
		}
		if !admitted {
			a.SetUserAgent(u, assign.Unassigned)
			return fmt.Errorf("%w: no candidate agent of user %d can absorb it", ErrInfeasible, u)
		}
	}
	return nil
}

// memberDelayOK checks constraint (8) over the flows between user u, just
// placed, and the session's other assigned members. The flows among members
// placed earlier passed when the later of their endpoints was placed and
// have not moved since, so these are the only flows u's placement decides.
func memberDelayOK(a *assign.Assignment, u model.UserID) bool {
	sc := a.Scenario()
	lu := a.UserAgent(u)
	for _, v := range sc.Participants(u) {
		lv := a.UserAgent(v)
		if lv == assign.Unassigned {
			continue
		}
		if partialFlowDelay(a, u, v, lu, lv) > sc.DMaxMS || partialFlowDelay(a, v, u, lv, lu) > sc.DMaxMS {
			return false
		}
	}
	return true
}

// partialFlowDelay is the delay of flow u → v with u at lu and v at lv. A
// transcoding flow without a transcoder yet is judged optimistically with
// the better of the two endpoint agents — placeTranscoding can always
// realize one of those placements.
func partialFlowDelay(a *assign.Assignment, u, v model.UserID, lu, lv model.AgentID) float64 {
	sc := a.Scenario()
	f := model.Flow{Src: u, Dst: v}
	if !sc.Theta(u, v) {
		return sc.H(lu, u) + sc.D(lu, lv) + sc.H(lv, v)
	}
	if m, ok := a.FlowAgent(f); ok && m != assign.Unassigned {
		return cost.FlowDelayMS(a, f)
	}
	src := sc.User(u)
	rep := sc.DownstreamRep(f)
	base := sc.H(lu, u) + sc.H(lv, v)
	atSrc := base + sc.D(lu, lv) + sc.Agent(lu).Sigma(src.Upstream, rep)
	atDst := base + sc.D(lu, lv) + sc.Agent(lv).Sigma(src.Upstream, rep)
	return math.Min(atSrc, atDst)
}

// placeTranscoding performs step (5): the paper's rule of thumb — when at
// least two destinations demand the same downstream representation of a
// source, transcode once at the source agent and fan the result out;
// otherwise transcode at the (single) destination's agent. Each placement
// falls back through the session's candidates by rank, then through all
// agents, whenever the incremental load does not fit.
func placeTranscoding(a *assign.Assignment, s model.SessionID, res *Result, fits func() bool) error {
	sc := a.Scenario()

	// Group the session's transcoding flows by (source, output rep).
	type group struct {
		flows []model.Flow
	}
	type key struct {
		src model.UserID
		r   model.Representation
	}
	groups := make(map[key]*group)
	var order []key // deterministic placement order
	for _, f := range a.SessionFlows(s) {
		k := key{src: f.Src, r: sc.DownstreamRep(f)}
		g, ok := groups[k]
		if !ok {
			g = &group{}
			groups[k] = g
			order = append(order, k)
		}
		g.flows = append(g.flows, f)
	}

	// The session's candidates by descending rank lead every fallback.
	ranked := append([]model.AgentID(nil), res.Potential...)
	sort.SliceStable(ranked, func(i, j int) bool { return res.Rank[ranked[i]] > res.Rank[ranked[j]] })

	for _, k := range order {
		g := groups[k]
		var preferred model.AgentID
		if len(g.flows) >= 2 {
			preferred = a.UserAgent(k.src)
		} else {
			preferred = a.UserAgent(g.flows[0].Dst)
		}
		placed := false
		for m := range fallback(sc.NumAgents(), preferred, ranked, res.Potential) {
			for _, f := range g.flows {
				if err := a.SetFlowAgent(f, m); err != nil {
					return err
				}
			}
			if fits() && groupDelayOK(a, g.flows) {
				placed = true
				break
			}
		}
		if !placed {
			return fmt.Errorf("%w: no agent can host transcoding of user %d to rep %d",
				ErrInfeasible, k.src, k.r)
		}
	}
	return nil
}

// fallback yields the agents a transcoding group tries, in order: the
// preferred agent, the session's candidates by descending rank (ranked), then
// every agent outside the candidate set (potential, ascending) by ID. It is
// lazy, so a group placed early never walks the fleet.
func fallback(numAgents int, preferred model.AgentID, ranked, potential []model.AgentID) iter.Seq[model.AgentID] {
	return func(yield func(model.AgentID) bool) {
		if !yield(preferred) {
			return
		}
		for _, l := range ranked {
			if l != preferred && !yield(l) {
				return
			}
		}
		for l := model.AgentID(0); int(l) < numAgents; l++ {
			if _, in := slices.BinarySearch(potential, l); in || l == preferred {
				continue
			}
			if !yield(l) {
				return
			}
		}
	}
}

// groupDelayOK checks constraint (8) for the flows of one transcoding group
// under the currently attempted placement.
func groupDelayOK(a *assign.Assignment, flows []model.Flow) bool {
	sc := a.Scenario()
	for _, f := range flows {
		if cost.FlowDelayMS(a, f) > sc.DMaxMS {
			return false
		}
	}
	return true
}

func rollbackSession(a *assign.Assignment, s model.SessionID) {
	sc := a.Scenario()
	for _, u := range sc.Session(s).Users {
		a.SetUserAgent(u, assign.Unassigned)
	}
	for _, f := range a.SessionFlows(s) {
		_ = a.SetFlowAgent(f, assign.Unassigned)
	}
}

func meanOffDiagonal(m [][]float64) float64 {
	sum, n := 0.0, 0
	for i := range m {
		for j := range m[i] {
			if i != j {
				sum += m[i][j]
				n++
			}
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

func safeDiv(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
