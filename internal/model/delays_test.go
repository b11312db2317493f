package model

import (
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"
)

// delayBuilder is a builder of L agents and U users (sessions of up to
// four) with no delays set yet.
func delayBuilder(agents, users int) *Builder {
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
	return b
}

// smoothDelay is a valid delay function.
func smoothDelay(l AgentID, u UserID) float64 {
	return 1 + math.Abs(math.Sin(float64(l)*1.7+float64(u)*0.31))*100
}

// TestDelayFuncValidation: a delay function that returns NaN, a negative
// delay or ±Inf at a single pair fails Build with the matrix check's
// message, naming that pair; with several bad pairs in different scan
// chunks, the first in (agent, user) order is named. Shape errors of
// SetAgentUserDelays keep their messages.
func TestDelayFuncValidation(t *testing.T) {
	const agents, users = 12, 300
	for _, tc := range []struct {
		name string
		bad  map[[2]int]float64
		want string
	}{
		{"NaN", map[[2]int]float64{{3, 7}: math.NaN()}, "model: matrix H[3][7] = NaN is not a valid delay"},
		{"negative", map[[2]int]float64{{0, 0}: -1}, "model: matrix H[0][0] = -1 is not a valid delay"},
		{"+Inf", map[[2]int]float64{{11, 299}: math.Inf(1)}, "model: matrix H[11][299] = +Inf is not a valid delay"},
		{"-Inf", map[[2]int]float64{{5, 130}: math.Inf(-1)}, "model: matrix H[5][130] = -Inf is not a valid delay"},
		{"first of several", map[[2]int]float64{{3, 1}: -2, {1, 200}: math.NaN(), {1, 250}: -1},
			"model: matrix H[1][200] = NaN is not a valid delay"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for _, asMatrix := range []bool{false, true} {
				h := func(l AgentID, u UserID) float64 {
					if v, ok := tc.bad[[2]int{int(l), int(u)}]; ok {
						return v
					}
					return smoothDelay(l, u)
				}
				b := delayBuilder(agents, users)
				if asMatrix {
					m := make([][]float64, agents)
					for l := range m {
						m[l] = make([]float64, users)
						for u := range m[l] {
							m[l][u] = h(AgentID(l), UserID(u))
						}
					}
					b.SetAgentUserDelays(m)
				} else {
					b.SetAgentUserDelayFunc(h)
				}
				_, err := b.Build()
				if err == nil || err.Error() != tc.want {
					t.Fatalf("matrix=%v: Build() error = %v, want %q", asMatrix, err, tc.want)
				}
			}
		})
	}

	for _, tc := range []struct {
		name string
		m    [][]float64
		want string
	}{
		{"rows", make([][]float64, 2), "model: matrix H has 2 rows, want 3"},
		{"cols", [][]float64{make([]float64, 5), make([]float64, 4), make([]float64, 5)},
			"model: matrix H row 1 has 4 cols, want 5"},
	} {
		_, err := delayBuilder(3, 5).SetAgentUserDelays(tc.m).Build()
		if err == nil || err.Error() != tc.want {
			t.Fatalf("%s: Build() error = %v, want %q", tc.name, err, tc.want)
		}
	}
	if _, err := delayBuilder(3, 5).SetAgentUserDelayFunc(smoothDelay).Build(); err != nil {
		t.Fatalf("valid delay function: %v", err)
	}
	if _, err := delayBuilder(3, 5).Build(); err != nil {
		t.Fatalf("no delays set: %v", err)
	}
}

// TestHReadsAllocateNothing pins Scenario.H at zero allocations, both for a
// pair in the user's nearest row and for one recomputed by the function.
func TestHReadsAllocateNothing(t *testing.T) {
	sc, err := delayBuilder(20, 8).SetAgentUserDelayFunc(smoothDelay).Build()
	if err != nil {
		t.Fatal(err)
	}
	const u = UserID(5)
	row := sc.AppendNearestAgents(nil, u, nearestWidth)
	in, out := row[0], AgentID(-1)
	for l := AgentID(0); l < 20 && out < 0; l++ {
		if !slices.Contains(row, l) {
			out = l
		}
	}
	for name, l := range map[string]AgentID{"row": in, "fallback": out} {
		var sink float64
		if allocs := testing.AllocsPerRun(1000, func() { sink += sc.H(l, u) }); allocs != 0 {
			t.Fatalf("%s read: %v allocations, want 0", name, allocs)
		}
		if got, want := sc.H(l, u), smoothDelay(l, u); got != want {
			t.Fatalf("%s read: H = %v, want %v", name, got, want)
		}
	}
}

// TestDelayTableRaceStorm: on fresh scenarios, eight goroutines read every
// H while others widen the nearest-agent table; every read returns the
// function's bits and every row the column scan (run under -race).
func TestDelayTableRaceStorm(t *testing.T) {
	const agents, users = 24, 90
	for rep := 0; rep < 10; rep++ {
		rng := rand.New(rand.NewSource(int64(rep)))
		offset := rng.Float64()
		h := func(l AgentID, u UserID) float64 {
			return math.Floor(smoothDelay(l, u)/10+offset) * 10 // quantised: rows tie
		}
		sc, err := delayBuilder(agents, users).SetAgentUserDelayFunc(h).Build()
		if err != nil {
			t.Fatal(err)
		}
		var start, done sync.WaitGroup
		start.Add(1)
		errs := make(chan string, 12)
		for g := 0; g < 8; g++ {
			done.Add(1)
			go func() {
				defer done.Done()
				start.Wait()
				for u := 0; u < users; u++ {
					for l := 0; l < agents; l++ {
						if got, want := sc.H(AgentID(l), UserID(u)), h(AgentID(l), UserID(u)); got != want {
							errs <- "H read differs from the delay function"
							return
						}
					}
				}
			}()
		}
		for g := 0; g < 4; g++ {
			done.Add(1)
			go func(k int) {
				defer done.Done()
				start.Wait()
				for u := 0; u < users; u++ {
					want := columnScan(sc, nil, UserID(u), k)
					if got := sc.AppendNearestAgents(nil, UserID(u), k); !slices.Equal(got, want) {
						errs <- "widened row differs from the column scan"
						return
					}
				}
			}(nearestWidth + 1 + g*5)
		}
		start.Done()
		done.Wait()
		close(errs)
		for err := range errs {
			t.Fatal(err)
		}
	}
}
