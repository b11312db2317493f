package model

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"
)

// columnScan is the per-user column scan the nearest-agent table replaced,
// kept as the reference: one bounded insertion over all L agents of H's
// column u, read from the delay function itself.
func columnScan(sc *Scenario, dst []AgentID, u UserID, k int) []AgentID {
	if k > len(sc.Agents) {
		k = len(sc.Agents)
	}
	if k <= 0 {
		return dst
	}
	base := len(dst)
	for l := range sc.Agents {
		d := sc.h(AgentID(l), u)
		if len(dst)-base == k {
			if d >= sc.h(dst[len(dst)-1], u) {
				continue
			}
		} else {
			dst = append(dst, 0)
		}
		i := len(dst) - 1
		for ; i > base && sc.h(dst[i-1], u) > d; i-- {
			dst[i] = dst[i-1]
		}
		dst[i] = AgentID(l)
	}
	return dst
}

// tiedScenario builds L agents and U users (sessions of up to four) whose
// H-delays take only levels distinct values, so most rows hold ties.
func tiedScenario(t *testing.T, rng *rand.Rand, agents, users, levels int) *Scenario {
	t.Helper()
	b := NewBuilder(nil)
	for i := 0; i < agents; i++ {
		b.AddAgent(Agent{Upload: 1, Download: 1})
	}
	var s SessionID
	for u := 0; u < users; u++ {
		if u%4 == 0 {
			s = b.AddSession("s")
		}
		b.AddUser("u", s, 0, nil)
	}
	h := make([][]float64, agents)
	for l := range h {
		h[l] = make([]float64, users)
		for u := range h[l] {
			h[l][u] = float64(rng.Intn(levels)) * 2.5
		}
	}
	b.SetAgentUserDelays(h)
	sc, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return sc
}

// checkAgainstScan compares AppendNearestAgents and NearestAgent with the
// column scan for every user at width k.
func checkAgainstScan(t *testing.T, sc *Scenario, k int) {
	t.Helper()
	for u := 0; u < sc.NumUsers(); u++ {
		uid := UserID(u)
		want := columnScan(sc, []AgentID{9}, uid, k)
		if got := sc.AppendNearestAgents([]AgentID{9}, uid, k); !slices.Equal(got, want) {
			t.Fatalf("k=%d user %d: AppendNearestAgents = %v, column scan %v", k, u, got, want)
		}
		if got, want := sc.NearestAgent(uid), columnScan(sc, nil, uid, 1)[0]; got != want {
			t.Fatalf("user %d: NearestAgent = %d, column scan %d", u, got, want)
		}
	}
}

// TestNearestTableMatchesScan: every row equals the column scan at every
// width 1..L, whether the table was built at exactly that width or is the
// prefix of a wider one, on delays quantised so ties are common.
func TestNearestTableMatchesScan(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, shape := range []struct{ agents, users, levels int }{
		{1, 5, 1}, {2, 9, 2}, {5, 30, 3}, {17, 40, 4}, {33, 25, 40},
	} {
		t.Run(fmt.Sprintf("L=%d", shape.agents), func(t *testing.T) {
			for k := 1; k <= shape.agents; k++ {
				checkAgainstScan(t, tiedScenario(t, rng, shape.agents, shape.users, shape.levels), k)
			}
			wide := tiedScenario(t, rng, shape.agents, shape.users, shape.levels)
			checkAgainstScan(t, wide, shape.agents)
			for k := shape.agents + 1; k >= 0; k-- {
				checkAgainstScan(t, wide, k)
			}
		})
	}
}

// TestNearestTableWidens: a request within the construction table reads
// its prefix, a wider one replaces the wide table, a narrower one reads the
// prefix of the one it finds.
func TestNearestTableWidens(t *testing.T) {
	sc := tiedScenario(t, rand.New(rand.NewSource(3)), 12, 20, 3)
	for _, step := range []struct{ k, width int }{
		{2, nearestWidth}, {10, 10}, {9, 10}, {12, 12}, {3, nearestWidth},
	} {
		checkAgainstScan(t, sc, step.k)
		if got := sc.nearestAgents(step.k).k; got != step.width {
			t.Fatalf("after a width-%d request the table is %d wide, want %d", step.k, got, step.width)
		}
	}
}

// TestNearestTableConcurrentFirstUse: eight goroutines asking for mixed
// widths at once all read rows equal to the column scan (run under -race).
func TestNearestTableConcurrentFirstUse(t *testing.T) {
	for rep := 0; rep < 20; rep++ {
		sc := tiedScenario(t, rand.New(rand.NewSource(int64(rep))), 12, 40, 4)
		want := make([][]AgentID, sc.NumUsers())
		for u := range want {
			want[u] = columnScan(sc, nil, UserID(u), sc.NumAgents())
		}
		var start, done sync.WaitGroup
		start.Add(1)
		errs := make(chan error, 8)
		for g := 0; g < 8; g++ {
			done.Add(1)
			go func(k int) {
				defer done.Done()
				start.Wait()
				for u := range want {
					got := sc.AppendNearestAgents(nil, UserID(u), k)
					if !slices.Equal(got, want[u][:k]) {
						errs <- fmt.Errorf("k=%d user %d: %v, column scan %v", k, u, got, want[u][:k])
						return
					}
				}
			}(1 + (g*5+rep)%sc.NumAgents())
		}
		start.Done()
		done.Wait()
		close(errs)
		for err := range errs {
			t.Fatal(err)
		}
	}
}
