package fault

import "math/rand"

// math/rand's default generator (rngSource) is an additive lagged
// Fibonacci generator over a 607-word register with tap 273. Seeding
// it fills every word from a Lehmer LCG, x ← 48271·x mod (2³¹−1): word
// i packs the LCG states after 21+3i, 22+3i and 23+3i steps and is
// XORed with a fixed table (rngCooked). Seeding therefore costs 1841
// LCG steps, while a campaign iteration draws only a handful of
// numbers that read a handful of words. lazySource yields exactly the
// same stream but computes each word on its first read, in O(1) from
// a precomputed multiplier table, so reseeding is O(1).
const (
	rngLen  = 607
	rngTap  = 273
	rngMask = 1<<63 - 1
	lcgMod  = 1<<31 - 1
	lcgMul  = 48271
	// lcgZeroSeed replaces seeds ≡ 0 (mod lcgMod), which would stall
	// the LCG; math/rand uses the same constant.
	lcgZeroSeed = 89482311
)

var (
	// wordMul[i] is lcgMul^(21+3i) mod lcgMod: it takes the seed to
	// the first of the three LCG states word i is built from.
	wordMul [rngLen]int64
	// rngCooked is math/rand's table of per-word XOR masks.
	rngCooked [rngLen]int64
)

func init() {
	m := int64(1)
	for k := 0; k < 21; k++ {
		m = m * lcgMul % lcgMod
	}
	const mul3 = lcgMul * lcgMul % lcgMod * lcgMul % lcgMod
	for i := range wordMul {
		wordMul[i] = m
		m = m * mul3 % lcgMod
	}
	recoverCooked()
}

// recoverCooked reads rngCooked back out of the standard library's own
// generator instead of copying 607 constants: it inverts the first
// rngLen draws of a fixed seed into the seeded register, then strips
// the LCG part of each word.
//
// Draw d (0-based) adds register word tap = rngLen-1-d to word
// feed = (rngLen-rngTap-1-d) mod rngLen and writes the sum back to
// feed, so each word is written exactly once in rngLen draws. From
// draw rngTap on, the tap word was written by draw d-rngTap, so the
// seeded feed word is out[d] - out[d-rngTap]. The words found that way
// are the taps that draws 0..rngTap-1 read before any write, so those
// draws give up their seeded feed words by subtraction too.
func recoverCooked() {
	const probe = 1
	std := rand.NewSource(probe).(rand.Source64)
	var out, seeded [rngLen]int64
	for d := range out {
		out[d] = int64(std.Uint64())
	}
	for k := rngTap; k < rngTap+rngLen; k++ {
		d := k % rngLen
		tap := rngLen - 1 - d
		feed := (2*rngLen - rngTap - 1 - d) % rngLen
		tapVal := seeded[tap]
		if d >= rngTap {
			tapVal = out[d-rngTap]
		}
		seeded[feed] = out[d] - tapVal
	}
	x0 := lcgSeed(probe)
	for i := range rngCooked {
		rngCooked[i] = seeded[i] ^ lcgWord(x0, i)
	}
}

// lcgSeed maps a seed to the LCG start state exactly as math/rand does.
func lcgSeed(seed int64) int64 {
	seed %= lcgMod
	if seed < 0 {
		seed += lcgMod
	}
	if seed == 0 {
		seed = lcgZeroSeed
	}
	return seed
}

// lcgWord is register word i before the rngCooked mask, for LCG start
// state x0.
func lcgWord(x0 int64, i int) int64 {
	a := x0 * wordMul[i] % lcgMod
	b := a * lcgMul % lcgMod
	c := b * lcgMul % lcgMod
	return a<<40 ^ b<<20 ^ c
}

// lazySource is a rand.Source64 whose stream is identical to
// rand.NewSource(seed)'s. Seed is O(1): it only bumps a generation
// stamp, and a register word is computed when a draw first reads it
// in that generation. One source is reused across reseeds, so neither
// seeding nor the 5 KB register is paid per stream.
type lazySource struct {
	x0        int64 // LCG start state of the current seed
	gen       uint32
	tap, feed int
	stamp     [rngLen]uint32 // generation word i was last computed or written in
	vec       [rngLen]int64
}

func newLazySource(seed int64) *lazySource {
	s := &lazySource{}
	s.Seed(seed)
	return s
}

// Seed resets the source to the stream rand.NewSource(seed) yields.
func (s *lazySource) Seed(seed int64) {
	s.x0 = lcgSeed(seed)
	s.tap, s.feed = 0, rngLen-rngTap
	s.gen++
	if s.gen == 0 { // stamps from 2³² generations ago could alias
		s.stamp = [rngLen]uint32{}
		s.gen = 1
	}
}

func (s *lazySource) word(i int) int64 {
	if s.stamp[i] != s.gen {
		s.stamp[i] = s.gen
		s.vec[i] = lcgWord(s.x0, i) ^ rngCooked[i]
	}
	return s.vec[i]
}

// Uint64 returns the next value of the stream.
func (s *lazySource) Uint64() uint64 {
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

// Int63 returns the next value of the stream with the sign bit cleared.
func (s *lazySource) Int63() int64 {
	return int64(s.Uint64() & rngMask)
}
