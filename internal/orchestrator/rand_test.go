package orchestrator

import (
	"math"
	"math/rand"
	"testing"

	"vconf/internal/model"
)

// TestLazySourceMatchesStdlib: reseeded again and again, as the workers do,
// the lazy source must yield rand.NewSource's stream draw for draw — across
// the edge cases of the standard seed normalization, a generation stamp
// about to wrap, and task seeds — through mixed Float64, NormFloat64,
// ExpFloat64, Intn and Int63 calls well past the register's 607 words.
func TestLazySourceMatchesStdlib(t *testing.T) {
	src := &lazySource{}
	lazy := rand.New(src)
	same := func(t *testing.T, seed int64, draws int) {
		t.Helper()
		want := rand.New(rand.NewSource(seed))
		lazy.Seed(seed)
		for i := range draws {
			var got, exp float64
			switch i % 5 {
			case 0:
				got, exp = lazy.Float64(), want.Float64()
			case 1:
				got, exp = lazy.NormFloat64(), want.NormFloat64()
			case 2:
				got, exp = lazy.ExpFloat64(), want.ExpFloat64()
			case 3:
				got, exp = float64(lazy.Intn(1000)), float64(want.Intn(1000))
			default:
				g, w := lazy.Int63(), want.Int63()
				if g != w {
					t.Fatalf("seed %d draw %d: Int63 %d, want %d", seed, i, g, w)
				}
				continue
			}
			if math.Float64bits(got) != math.Float64bits(exp) {
				t.Fatalf("seed %d draw %d: %v, want %v", seed, i, got, exp)
			}
		}
	}
	for _, tc := range []struct {
		name string
		seed int64
	}{
		{"zero", 0},
		{"one", 1},
		{"minus-one", -1},
		{"zero's substitute", 89482311},
		{"modulus-1", rngMod - 1},
		{"modulus", rngMod},
		{"modulus+1", rngMod + 1},
		{"minus-modulus", -rngMod},
		{"two-to-31", 1 << 31},
		{"max-int64", math.MaxInt64},
		{"min-int64", math.MinInt64},
		{"min-int64+1", math.MinInt64 + 1},
	} {
		t.Run(tc.name, func(t *testing.T) { same(t, tc.seed, 3000) })
	}
	t.Run("stamp-wrap", func(t *testing.T) {
		src.gen = math.MaxUint32 - 1
		for _, seed := range []int64{7, 8, 9} {
			same(t, seed, 1300)
		}
	})
	t.Run("task-seeds", func(t *testing.T) {
		for i := range 20000 {
			same(t, taskSeed(int64(i%5), model.SessionID(i%97), i), 40)
		}
	})
}
