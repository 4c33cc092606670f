package sim

import (
	"math/rand"
	"sync"
)

// The register geometry and seeding constants of math/rand's generator.
const (
	rngLen   = 607
	rngTap   = 273
	int32max = 1<<31 - 1
	seedMul  = 48271 // the seeding LCG: x[n+1] = 48271·x[n] mod (2^31-1)
)

// Source is a rand.Source64 that produces exactly the stream of
// rand.NewSource with the same seed. math/rand fills all 607 register
// words when seeded; Source fills each word on first use, so Seed is O(1)
// and a simulation that draws a few numbers pays for a few words.
type Source struct {
	tap, feed int
	x0        uint64 // the seed reduced into [1, 2^31-1)
	// seeded has bit i set once vec[i] holds its seeded value.
	seeded [(rngLen + 63) / 64]uint64
	vec    [rngLen]int64
}

// NewSource returns a Source seeded with seed.
func NewSource(seed int64) *Source {
	s := new(Source)
	s.Seed(seed)
	return s
}

// Seed resets the source to the state rand.NewSource(seed) starts in.
func (s *Source) Seed(seed int64) {
	s.tap = 0
	s.feed = rngLen - rngTap
	seed %= int32max
	if seed < 0 {
		seed += int32max
	}
	if seed == 0 {
		seed = 89482311
	}
	s.x0 = uint64(seed)
	s.seeded = [len(s.seeded)]uint64{}
}

// Int63 returns a non-negative pseudo-random 63-bit integer.
func (s *Source) Int63() int64 {
	return int64(s.Uint64() & (1<<63 - 1))
}

// Uint64 returns a pseudo-random 64-bit integer.
func (s *Source) Uint64() uint64 {
	s.tap--
	if s.tap < 0 {
		s.tap += rngLen
	}
	s.feed--
	if s.feed < 0 {
		s.feed += rngLen
	}
	x := s.word(s.feed) + s.word(s.tap)
	s.vec[s.feed] = x
	return uint64(x)
}

// word returns register word i, seeding it first if it is still unset.
func (s *Source) word(i int) int64 {
	if bit := uint64(1) << (i & 63); s.seeded[i>>6]&bit == 0 {
		s.seeded[i>>6] |= bit
		s.vec[i] = cooked()[i] ^ s.mix(i)
	}
	return s.vec[i]
}

// mix returns the seed-dependent half of register word i. math/rand's
// seeding loop steps the LCG 20 times, then 3 times per word, so word i
// mixes the LCG's states 21+3i, 22+3i and 23+3i.
func (s *Source) mix(i int) int64 {
	x := s.x0 * powMod(seedMul, uint64(21+3*i)) % int32max
	u := int64(x) << 40
	x = x * seedMul % int32max
	u ^= int64(x) << 20
	x = x * seedMul % int32max
	return u ^ int64(x)
}

// powMod returns b^e mod 2^31-1 for b < 2^31-1.
func powMod(b, e uint64) uint64 {
	r := uint64(1)
	for ; e > 0; e >>= 1 {
		if e&1 == 1 {
			r = r * b % int32max
		}
		b = b * b % int32max
	}
	return r
}

// cooked returns math/rand's table of seed-independent register words,
// recovered on first use: binaries that link this package only for its
// time conversions never pay for it.
var cooked = sync.OnceValue(recoverCooked)

// recoverCooked reads the table back out of one rand.NewSource stream.
// Draw j (from 1) adds word 607-j (mod 607) into word 334-j and returns
// the sum, so the first 607 draws overwrite every word exactly once: the
// register after them is the output, and undoing the draws in reverse
// gives the seeded register. Unmixing it leaves the table.
func recoverCooked() *[rngLen]int64 {
	const seed = 1
	src := rand.NewSource(seed).(rand.Source64)
	feed := func(j int) int { return (rngLen - rngTap - j + rngLen) % rngLen }
	var vec [rngLen]int64
	for j := 1; j <= rngLen; j++ {
		vec[feed(j)] = int64(src.Uint64())
	}
	for j := rngLen; j >= 1; j-- {
		vec[feed(j)] -= vec[(rngLen-j)%rngLen]
	}
	s := NewSource(seed)
	for i := range vec {
		vec[i] ^= s.mix(i)
	}
	return &vec
}
