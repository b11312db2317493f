package anneal

import (
	"fmt"
	"math"
	"testing"
)

// TestAnnealChainsPinned replays simulated annealing on three seeds and the
// greedy descent and compares each end state with one recorded when every
// candidate was applied before it was priced: the best Φ's bits, the
// accepted and proposed move counts, and the final assignment. Pricing a
// neighbour by its decision, and applying only the move that is kept, must
// walk the same chains.
func TestAnnealChainsPinned(t *testing.T) {
	type pin struct {
		phi                  uint64
		accepted, iterations int
		assignment           string
	}
	check := func(name string, res *Result, want pin) {
		t.Helper()
		got := pin{math.Float64bits(res.BestPhi), res.Accepted, res.Iterations, res.Assignment.Encode()}
		if got != want {
			t.Errorf("%s: end state (phi %#016x, accepted %d, iterations %d, %s), recorded (phi %#016x, accepted %d, iterations %d, %s)",
				name, got.phi, got.accepted, got.iterations, got.assignment,
				want.phi, want.accepted, want.iterations, want.assignment)
		}
	}
	anneal := map[int64]pin{
		1: {0x408b2cec84bd8306, 372, 4000, "3,5,3,0,5,5,5,6,5,3,3,5,3,5,3,3,3,0,3,5|3,3,3,3,3,3,3,5,5,5,5,5,3,0,0,5,6,6,6,5,3,3"},
		2: {0x40891275d74bbf8a, 300, 4000, "5,5,5,4,1,5,4,1,5,4,4,4,5,1,1,5,1,3,4,4|5,5,3,5,3,4,4,4,4,4,5,5"},
		3: {0x408e4579d6439c0b, 439, 4000, "3,5,1,1,0,1,1,0,3,0,0,1,5,0,3,0,0,1,1,4|1,1,0,0,0,4,3,4,0,3,1,3,3,1,5,5,5,5,5,1,1,1,1,1"},
	}
	for seed := int64(1); seed <= 3; seed++ {
		ev, start := smallScenario(t, seed)
		cfg := DefaultAnnealConfig(seed)
		cfg.Iterations = 4000
		res, err := SimulatedAnnealing(ev, start, cfg)
		if err != nil {
			t.Fatal(err)
		}
		check(fmt.Sprintf("anneal seed %d", seed), res, anneal[seed])
	}

	ev, start := smallScenario(t, 2)
	res, err := GreedyDescent(ev, start, DefaultGreedyConfig())
	if err != nil {
		t.Fatal(err)
	}
	check("greedy", res, pin{0x4088aa850914a3d3, 9, 960, "5,5,5,4,1,0,5,1,5,6,5,4,5,1,1,5,1,1,6,6|5,5,1,5,1,6,4,6,0,0,0,5"})
}
