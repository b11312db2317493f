package orchestrator

import "math/rand"

// lazySource is the generator rand.NewSource returns — math/rand's additive
// lagged Fibonacci source — draw for draw, with an O(1) Seed. The standard
// Seed fills all 607 words of the register (about 1 840 steps of its seeding
// generator) although a task's walk reads a few dozen. Here word i is
// computed on its first read, straight from the seed: the seeding generator
// x ← 48271·x mod (2³¹−1) reaches its n-th value as x₀·48271ⁿ mod (2³¹−1),
// and word i mixes the values at n = 21+3i, 22+3i and 23+3i into
// rngCooked[i] as Seed does. A per-seed generation stamp marks the words
// computed. Seed before the first draw.
type lazySource struct {
	tap, feed int
	x0        uint64
	gen       uint32
	vec       [rngLen]int64
	stamp     [rngLen]uint32
}

const (
	rngLen  = 607
	rngTap  = 273
	rngMod  = 1<<31 - 1
	rngMult = 48271
)

// rngPow[i][j] is 48271^(21+3i+j) mod (2³¹−1); rngCooked is the standard
// source's seeding table.
var rngPow, rngCooked = rngTables()

// rngTables computes the powers and recovers rngCooked from the first 607
// outputs of rand.NewSource(1): output n is the new value of word
// f = (334−n) mod 607, the old value plus word (−n) mod 607, which output
// n−273 has already replaced when n > 273 and which still holds its seeded
// value otherwise.
func rngTables() (pow [rngLen][3]uint64, cooked [rngLen]int64) {
	p := uint64(1)
	for n := 1; n < 21+3*rngLen; n++ {
		p = p * rngMult % rngMod
		if n >= 21 {
			pow[(n-21)/3][(n-21)%3] = p
		}
	}
	src := rand.NewSource(1).(rand.Source64)
	var out [rngLen + 1]int64
	for n := 1; n <= rngLen; n++ {
		out[n] = int64(src.Uint64())
	}
	feed := func(n int) int { return (334 - n + rngLen) % rngLen }
	for n := rngTap + 1; n <= rngLen; n++ {
		cooked[feed(n)] = out[n] - out[n-rngTap]
	}
	for n := 1; n <= rngTap; n++ {
		cooked[feed(n)] = out[n] - cooked[rngLen-n]
	}
	// cooked now holds the register Seed(1) leaves; take the seed out.
	for i := range cooked {
		cooked[i] ^= seedWord(1, &pow[i])
	}
	return pow, cooked
}

// seedWord is the seed's contribution to a register word with powers p.
func seedWord(x0 uint64, p *[3]uint64) int64 {
	return int64(x0*p[0]%rngMod)<<40 ^ int64(x0*p[1]%rngMod)<<20 ^ int64(x0*p[2]%rngMod)
}

// Seed prepares the stream rand.NewSource(seed) yields.
func (s *lazySource) Seed(seed int64) {
	seed %= rngMod
	if seed < 0 {
		seed += rngMod
	}
	if seed == 0 {
		seed = 89482311
	}
	s.x0 = uint64(seed)
	s.tap, s.feed = 0, rngLen-rngTap
	if s.gen++; s.gen == 0 {
		s.stamp = [rngLen]uint32{}
		s.gen = 1
	}
}

func (s *lazySource) word(i int) int64 {
	if s.stamp[i] != s.gen {
		s.vec[i] = rngCooked[i] ^ seedWord(s.x0, &rngPow[i])
		s.stamp[i] = s.gen
	}
	return s.vec[i]
}

func (s *lazySource) Uint64() uint64 {
	if s.tap--; s.tap < 0 {
		s.tap += rngLen
	}
	if s.feed--; s.feed < 0 {
		s.feed += rngLen
	}
	x := s.word(s.feed) + s.word(s.tap)
	s.vec[s.feed] = x
	return uint64(x)
}

func (s *lazySource) Int63() int64 { return int64(s.Uint64() & (1<<63 - 1)) }
