package assign

import "vconf/internal/model"

// This file implements candidate-window pruning for the neighbor
// enumeration of Alg. 1 line 12: instead of considering every agent for
// every variable (O(L·session) per hop), each variable only considers its k
// delay-nearest agents — the paper's N_ngbr restriction whose
// quality/effort trade-off Fig. 10 sweeps. Window 0 keeps the full scan, so
// fixed-seed outputs are unchanged unless a caller opts in.

// NeighborOptions tunes neighbor enumeration.
type NeighborOptions struct {
	// Window caps each variable's candidate agents to the k nearest by
	// H-delay (user variables: the user's window; flow variables: the union
	// of the source's and destination's windows). 0 means every agent.
	Window int
	// Index is the prebuilt proximity index backing Window > 0. nil with a
	// positive Window builds a throwaway index — correct but O(U·window) per
	// call, read from the scenario's nearest-agent table; hot paths must pass
	// a prebuilt one (core.HopScratch holds it).
	Index *ProximityIndex
}

// ProximityIndex precomputes, for every user, its window of delay-nearest
// agents in ascending agent-ID order — the order the full enumeration
// visits agents, so windowed enumeration preserves the canonical candidate
// order (a window of L agents reproduces the full scan exactly).
type ProximityIndex struct {
	sc     *model.Scenario
	window int
	// agents holds user u's window at [u·window, (u+1)·window).
	agents []model.AgentID
}

// NewProximityIndex builds the per-user windows for the scenario. window is
// clamped to [1, NumAgents].
func NewProximityIndex(sc *model.Scenario, window int) *ProximityIndex {
	l := sc.NumAgents()
	if window < 1 {
		window = 1
	}
	if window > l {
		window = l
	}
	ix := &ProximityIndex{
		sc:     sc,
		window: window,
		agents: make([]model.AgentID, 0, sc.NumUsers()*window),
	}
	for u := 0; u < sc.NumUsers(); u++ {
		ix.agents = sc.AppendNearestAgents(ix.agents, model.UserID(u), window)
		win := ix.agents[u*window:]
		// Re-sort the window ascending by agent ID (proximity order decided
		// membership; ID order drives enumeration). Insertion sort: windows
		// are small.
		for i := 1; i < len(win); i++ {
			for j := i; j > 0 && win[j-1] > win[j]; j-- {
				win[j-1], win[j] = win[j], win[j-1]
			}
		}
	}
	return ix
}

// Scenario returns the scenario the index was built for.
func (ix *ProximityIndex) Scenario() *model.Scenario { return ix.sc }

// Window returns the window size the index was built with.
func (ix *ProximityIndex) Window() int { return ix.window }

// UserWindow returns user u's candidate agents in ascending ID order.
// Shared slice; callers must not mutate.
func (ix *ProximityIndex) UserWindow(u model.UserID) []model.AgentID {
	return ix.agents[int(u)*ix.window : (int(u)+1)*ix.window]
}

// AppendSessionNeighborDecisionsOpts is AppendSessionNeighborDecisions with
// candidate-window pruning. With opts.Window == 0 (or a window covering the
// whole fleet) it produces exactly the full enumeration; otherwise each
// user variable enumerates its window and each flow variable the merged
// union of its endpoints' windows, both in ascending agent order with the
// current agent skipped — the same shape the full scan yields, restricted.
func (a *Assignment) AppendSessionNeighborDecisionsOpts(dst []Decision, s model.SessionID, opts NeighborOptions) []Decision {
	if opts.Window <= 0 || opts.Window >= a.sc.NumAgents() {
		return a.AppendSessionNeighborDecisions(dst, s)
	}
	ix := opts.Index
	if ix == nil || ix.window != opts.Window || ix.sc != a.sc {
		ix = NewProximityIndex(a.sc, opts.Window)
	}
	for _, u := range a.sc.Session(s).Users {
		cur := a.userAgent[u]
		for _, l := range ix.UserWindow(u) {
			if l == cur {
				continue
			}
			dst = append(dst, Decision{Kind: UserMove, User: u, To: l})
		}
	}
	start, end := a.flowStart[s], a.flowStart[s+1]
	for i := start; i < end; i++ {
		f := a.flows[i]
		cur := a.flowAgent[i]
		// Merge the two ascending windows, deduplicating, skipping cur.
		src, dstWin := ix.UserWindow(f.Src), ix.UserWindow(f.Dst)
		si, di := 0, 0
		for si < len(src) || di < len(dstWin) {
			var l model.AgentID
			switch {
			case di >= len(dstWin) || (si < len(src) && src[si] < dstWin[di]):
				l = src[si]
				si++
			case si >= len(src) || dstWin[di] < src[si]:
				l = dstWin[di]
				di++
			default: // equal
				l = src[si]
				si++
				di++
			}
			if l == cur {
				continue
			}
			dst = append(dst, Decision{Kind: FlowMove, Flow: f, To: l})
		}
	}
	return dst
}
