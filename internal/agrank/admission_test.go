package agrank

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"slices"
	"sort"
	"testing"

	"vconf/internal/assign"
	"vconf/internal/cost"
	"vconf/internal/model"
	"vconf/internal/workload"
)

// bootstrapRef is BootstrapSession as it read before admission moved onto
// a pooled scratch: every placement attempt prices a fresh SessionLoadOf and
// checks the whole ledger with it, every assigned pair's delay is re-checked
// after each user, and a transcoding group's fallback lists the whole fleet.
// (Fits is the fleet-wide check: cost's TestFitsDeltaChecksMatchDense pins it
// to the dense reference.)
func bootstrapRef(a *assign.Assignment, s model.SessionID, p cost.Params, ledger cost.LedgerAPI, opts Options) (*Result, error) {
	sc := a.Scenario()
	if err := opts.validate(sc.NumAgents()); err != nil {
		return nil, err
	}
	res := rankSessionRef(sc, s, ledger, opts)
	fits := func() bool { return ledger.Fits(p.SessionLoadOf(a, s)) }

	for _, u := range sc.Session(s).Users {
		admitted := false
		for _, l := range res.Candidates[u] {
			a.SetUserAgent(u, l)
			if fits() && partialDelayOKRef(a, s) {
				admitted = true
				break
			}
		}
		if !admitted {
			a.SetUserAgent(u, assign.Unassigned)
			rollbackSession(a, s)
			return res, fmt.Errorf("%w: no candidate agent of user %d can absorb it", ErrInfeasible, u)
		}
	}

	type key struct {
		src model.UserID
		r   model.Representation
	}
	groups := make(map[key][]model.Flow)
	var order []key
	for _, f := range a.SessionFlows(s) {
		k := key{src: f.Src, r: sc.DownstreamRep(f)}
		if _, ok := groups[k]; !ok {
			order = append(order, k)
		}
		groups[k] = append(groups[k], f)
	}
	byRank := append([]model.AgentID(nil), res.Potential...)
	sort.SliceStable(byRank, func(i, j int) bool { return res.Rank[byRank[i]] > res.Rank[byRank[j]] })
	for l := 0; l < sc.NumAgents(); l++ {
		if !slices.Contains(res.Potential, model.AgentID(l)) {
			byRank = append(byRank, model.AgentID(l))
		}
	}
	for _, k := range order {
		flows := groups[k]
		preferred := a.UserAgent(flows[0].Dst)
		if len(flows) >= 2 {
			preferred = a.UserAgent(k.src)
		}
		tries := []model.AgentID{preferred}
		for _, l := range byRank {
			if l != preferred {
				tries = append(tries, l)
			}
		}
		placed := false
		for _, m := range tries {
			for _, f := range flows {
				if err := a.SetFlowAgent(f, m); err != nil {
					return res, err
				}
			}
			if fits() && groupDelayOK(a, flows) {
				placed = true
				break
			}
		}
		if !placed {
			rollbackSession(a, s)
			return res, fmt.Errorf("%w: no agent can host transcoding of user %d to rep %d", ErrInfeasible, k.src, k.r)
		}
	}
	load := p.SessionLoadOf(a, s)
	if !cost.DelayFeasible(a, s) {
		rollbackSession(a, s)
		return res, fmt.Errorf("%w: session %d violates the delay cap", ErrInfeasible, s)
	}
	if !ledger.TryAdd(load) {
		rollbackSession(a, s)
		return res, fmt.Errorf("%w: session %d final load exceeds capacity", ErrInfeasible, s)
	}
	return res, nil
}

// rankSessionRef is rankSession with its maps and row-major D̂.
func rankSessionRef(sc *model.Scenario, s model.SessionID, ledger cost.LedgerAPI, opts Options) *Result {
	members := sc.Session(s).Users
	inSet := make(map[model.AgentID]bool)
	nearest := make(map[model.UserID][]model.AgentID, len(members))
	near := make([]model.AgentID, 0, len(members)*opts.NNgbr)
	for _, u := range members {
		near = sc.AppendNearestAgents(near, u, opts.NNgbr)
		prox := near[len(near)-opts.NNgbr:]
		nearest[u] = prox
		for _, l := range prox {
			inSet[l] = true
		}
	}
	potential := make([]model.AgentID, 0, len(inSet))
	for l := range inSet {
		potential = append(potential, l)
	}
	sort.Slice(potential, func(i, j int) bool { return potential[i] < potential[j] })

	pi0 := seedRanks(sc, potential, ledger)
	n := len(potential)
	pi, iters := []float64{1}, 0
	if n > 1 {
		minD := math.Inf(1)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if d := sc.D(potential[i], potential[j]); i != j && d < minD && d > 0 {
					minD = d
				}
			}
		}
		if math.IsInf(minD, 1) {
			minD = 1
		}
		dhat := make([][]float64, n)
		for i := 0; i < n; i++ {
			dhat[i] = make([]float64, n)
			rowSum := 0.0
			for j := 0; j < n; j++ {
				v := 1.0
				if d := sc.D(potential[i], potential[j]); i != j && d > 0 {
					v = minD / d
				}
				dhat[i][j] = v
				rowSum += v
			}
			if opts.Damping > 0 && rowSum > 0 {
				for j := 0; j < n; j++ {
					dhat[i][j] /= rowSum
				}
			}
		}
		pi = append([]float64(nil), pi0...)
		next := make([]float64, n)
		for ; iters < opts.MaxIters; iters++ {
			for j := 0; j < n; j++ {
				acc := 0.0
				for i := 0; i < n; i++ {
					acc += pi[i] * dhat[i][j]
				}
				next[j] = acc
			}
			if opts.Damping > 0 {
				for j := 0; j < n; j++ {
					next[j] = opts.Damping*next[j] + (1-opts.Damping)*pi0[j]
				}
			} else {
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
	}
	rank := make(map[model.AgentID]float64, n)
	for i, l := range potential {
		rank[l] = pi[i]
	}
	candidates := make(map[model.UserID][]model.AgentID, len(members))
	for _, u := range members {
		cand := append([]model.AgentID(nil), nearest[u]...)
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
	return &Result{Potential: potential, Rank: rank, Candidates: candidates, Iterations: iters}
}

// sameResult reports whether two rankings agree bit for bit.
func sameResult(x, y *Result) bool {
	if x.Iterations != y.Iterations || !slices.Equal(x.Potential, y.Potential) || len(x.Rank) != len(y.Rank) {
		return false
	}
	for l, r := range x.Rank {
		if math.Float64bits(r) != math.Float64bits(y.Rank[l]) {
			return false
		}
	}
	for u, c := range x.Candidates {
		if !slices.Equal(c, y.Candidates[u]) {
			return false
		}
	}
	return len(x.Candidates) == len(y.Candidates)
}

// partialDelayOKRef checks constraint (8) over every flow of the session
// whose endpoints are both assigned.
func partialDelayOKRef(a *assign.Assignment, s model.SessionID) bool {
	sc := a.Scenario()
	for _, u := range sc.Session(s).Users {
		lu := a.UserAgent(u)
		if lu == assign.Unassigned {
			continue
		}
		for _, v := range sc.Participants(u) {
			if lv := a.UserAgent(v); lv != assign.Unassigned && partialFlowDelay(a, u, v, lu, lv) > sc.DMaxMS {
				return false
			}
		}
	}
	return true
}

// TestBootstrapMatchesReference admits every session of tight regional
// fleets through BootstrapSession and through the reference, side by side on
// separate assignments and ledgers, and requires the same outcome per
// session (error text included), the same final assignment and the same
// ledger bits. The fleets make users fall back from their top candidate,
// transcoding leave its preferred agent, sessions be refused, and — after
// an agent carrying load is degraded to nothing — every admission meet an
// overloaded ledger.
func TestBootstrapMatchesReference(t *testing.T) {
	p := cost.DefaultParams()
	var admitted, refused, userFallbacks, transFallbacks, degradedRefusals int
	for seed := int64(1); seed <= 6; seed++ {
		fc := workload.DefaultFleetConfig(seed)
		fc.NumAgents = 18
		fc.NumUsers = 260
		fc.MinSessionSize = 3
		fc.MaxSessionSize = 8
		fc.Regions = 3
		fc.AgentBandwidthMbps = 200
		fc.AgentTranscodeSlots = 1
		if seed%3 == 0 {
			fc.DelayCapMS = 140
		}
		sc, _, err := workload.GenerateSyntheticFleetRegions(fc)
		if err != nil {
			t.Fatal(err)
		}
		for _, opts := range []Options{DefaultOptions(1), DefaultOptions(3), {NNgbr: 3, Damping: 0, Epsilon: 1e-9, MaxIters: 200}} {
			nngbr := opts.NNgbr
			aGot, aRef := assign.New(sc), assign.New(sc)
			gGot, gRef := cost.NewLedger(sc), cost.NewLedger(sc)
			degradeAt := sc.NumSessions() * 2 / 3
			for s := 0; s < sc.NumSessions(); s++ {
				sid := model.SessionID(s)
				if s == degradeAt {
					// Zero an agent that carries load: the ledger alone is now
					// over capacity and every later admission must be refused.
					l := aGot.UserAgent(sc.Session(0).Users[0])
					if l == assign.Unassigned {
						l = 0
					}
					for _, g := range []*cost.Ledger{gGot, gRef} {
						if err := g.SetCapacityScale(l, 0); err != nil {
							t.Fatal(err)
						}
					}
				}
				resGot, errGot := BootstrapSession(aGot, sid, p, gGot, opts)
				resRef, errRef := bootstrapRef(aRef, sid, p, gRef, opts)
				if fmt.Sprint(errGot) != fmt.Sprint(errRef) {
					t.Fatalf("seed %d nngbr %d session %d: error %v, reference %v", seed, nngbr, s, errGot, errRef)
				}
				if !sameResult(resGot, resRef) {
					t.Fatalf("seed %d nngbr %d session %d: ranking differs from the reference", seed, nngbr, s)
				}
				if errGot != nil {
					if !errors.Is(errGot, ErrInfeasible) {
						t.Fatalf("seed %d session %d: unexpected error %v", seed, s, errGot)
					}
					refused++
					if s >= degradeAt && !gGot.Fits(nil) {
						degradedRefusals++
					}
					continue
				}
				admitted++
				for _, u := range sc.Session(sid).Users {
					if aGot.UserAgent(u) != resGot.Candidates[u][0] {
						userFallbacks++
					}
				}
				for _, f := range aGot.SessionFlows(sid) {
					if m, _ := aGot.FlowAgent(f); m != aGot.UserAgent(f.Src) && m != aGot.UserAgent(f.Dst) {
						transFallbacks++
					}
				}
			}
			if !aGot.Equal(aRef) {
				t.Fatalf("seed %d nngbr %d: final assignments differ", seed, nngbr)
			}
			dG, uG, tG := gGot.Usage()
			dR, uR, tR := gRef.Usage()
			for l := range dG {
				if math.Float64bits(dG[l]) != math.Float64bits(dR[l]) ||
					math.Float64bits(uG[l]) != math.Float64bits(uR[l]) || tG[l] != tR[l] {
					t.Fatalf("seed %d nngbr %d: ledger differs at agent %d", seed, nngbr, l)
				}
			}
		}
	}
	t.Logf("admitted %d, refused %d (%d on an overloaded ledger), %d user fallbacks, %d transcoding flows off their endpoints",
		admitted, refused, degradedRefusals, userFallbacks, transFallbacks)
	if admitted == 0 || refused == degradedRefusals || degradedRefusals == 0 || userFallbacks == 0 || transFallbacks == 0 {
		t.Fatal("the fleets did not exercise every admission branch")
	}
}

// TestAdmissionBytesDoNotScaleWithFleet admits the same-shaped sessions on a
// 48- and a 768-agent fleet and compares the bytes allocated per admission:
// pricing an attempt on the sparse kernel allocates nothing sized by the
// fleet. A fresh SessionLoadOf per attempt would allocate a fleet-sized load
// (≈ 25 kB on 768 agents).
func TestAdmissionBytesDoNotScaleWithFleet(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop scratches at random")
	}
	perSession := func(agents int) float64 {
		fc := workload.DefaultFleetConfig(5)
		fc.NumAgents = agents
		fc.NumUsers = 200
		fc.MinSessionSize = 5
		fc.MaxSessionSize = 5
		sc, err := workload.GenerateSyntheticFleet(fc)
		if err != nil {
			t.Fatal(err)
		}
		p := cost.DefaultParams()
		opts := DefaultOptions(3)
		var rounds []float64
		for round := 0; round < 5; round++ {
			a, ledger := assign.New(sc), cost.NewLedger(sc)
			// Warm the pooled scratch on this scenario before measuring.
			if _, err := BootstrapSession(a, 0, p, ledger, opts); err != nil {
				t.Fatal(err)
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for s := 1; s < sc.NumSessions(); s++ {
				if _, err := BootstrapSession(a, model.SessionID(s), p, ledger, opts); err != nil {
					t.Fatal(err)
				}
			}
			runtime.ReadMemStats(&after)
			rounds = append(rounds, float64(after.TotalAlloc-before.TotalAlloc)/float64(sc.NumSessions()-1))
		}
		slices.Sort(rounds)
		return rounds[len(rounds)/2]
	}
	narrow, wide := perSession(48), perSession(768)
	t.Logf("bytes per admission: %.0f on 48 agents, %.0f on 768", narrow, wide)
	if wide > 1.5*narrow {
		t.Fatalf("admission allocates with the fleet: %.0f B on 768 agents vs %.0f B on 48", wide, narrow)
	}
}
