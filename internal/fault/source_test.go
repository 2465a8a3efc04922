package fault

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
)

// exactnessSeeds are the seeds whose streams must match math/rand's:
// the LCG's edge cases (0 and every multiple of 2³¹−1 fall back to
// lcgZeroSeed; negatives wrap), the int64 extremes, and seeds of the
// kind campaigns actually use (SubSeed outputs).
func exactnessSeeds() []int64 {
	seeds := []int64{0, 1, -1, lcgMod, -lcgMod, 2 * lcgMod, 7 * lcgMod, lcgMod - 1, lcgMod + 1,
		lcgZeroSeed, math.MinInt64, math.MaxInt64, 20160523}
	for iter := 0; iter < 4; iter++ {
		seeds = append(seeds, SubSeed(7, iter), SubSeed(SubSeed(20160523, 3), iter))
	}
	return seeds
}

// TestLazySourceMatchesStdlib compares raw draws, through both Int63
// and Uint64, over more than two full register cycles.
func TestLazySourceMatchesStdlib(t *testing.T) {
	const draws = 3 * rngLen
	for _, seed := range exactnessSeeds() {
		std := rand.NewSource(seed).(rand.Source64)
		lazy := newLazySource(seed)
		for d := 0; d < draws; d++ {
			if d%2 == 0 {
				if got, want := lazy.Int63(), std.Int63(); got != want {
					t.Fatalf("seed %d draw %d: Int63 %d, want %d", seed, d, got, want)
				}
			} else if got, want := lazy.Uint64(), std.Uint64(); got != want {
				t.Fatalf("seed %d draw %d: Uint64 %d, want %d", seed, d, got, want)
			}
		}
	}
}

// TestLazySourceThroughRand drives both sources through *rand.Rand's
// derived draws — the ones campaigns make — and reseeds one lazy
// source per seed, as Campaign does per iteration.
func TestLazySourceThroughRand(t *testing.T) {
	lazy := rand.New(newLazySource(0))
	for _, seed := range exactnessSeeds() {
		std := rand.New(rand.NewSource(seed))
		lazy.Seed(seed)
		// A round draws 39 values or more (Float64, Intn, Perm(37)), so
		// 40 rounds cover more than two register cycles.
		for round := 0; round < 40; round++ {
			if got, want := lazy.Float64(), std.Float64(); got != want {
				t.Fatalf("seed %d round %d: Float64 %v, want %v", seed, round, got, want)
			}
			n := 1 + round%97
			if got, want := lazy.Intn(n), std.Intn(n); got != want {
				t.Fatalf("seed %d round %d: Intn(%d) %d, want %d", seed, round, n, got, want)
			}
			if got, want := lazy.Perm(37), std.Perm(37); !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d round %d: Perm %v, want %v", seed, round, got, want)
			}
		}
	}
}

// TestLazySourceGenerationWrap forces the generation counter through
// its wrap: words stamped long ago must not pass for fresh ones.
func TestLazySourceGenerationWrap(t *testing.T) {
	s := newLazySource(5) // generation 1
	for d := 0; d < rngLen; d++ {
		s.Uint64() // stamp every word with generation 1
	}
	s.gen = math.MaxUint32
	s.Seed(7) // the counter wraps here
	s.Seed(9) // a wrap that kept the stamps would reuse generation 1 here
	std := rand.NewSource(9).(rand.Source64)
	for d := 0; d < 2*rngLen; d++ {
		if got, want := s.Uint64(), std.Uint64(); got != want {
			t.Fatalf("after wrap, draw %d: %d, want %d", d, got, want)
		}
	}
}

// FuzzLazySourceMatchesStdlib extends the exactness check to arbitrary
// seeds and stream lengths.
func FuzzLazySourceMatchesStdlib(f *testing.F) {
	f.Add(int64(0), uint16(2*rngLen))
	f.Add(int64(math.MinInt64), uint16(3*rngLen))
	f.Add(int64(lcgMod), uint16(rngLen+1))
	f.Add(SubSeed(7, 1), uint16(5))
	f.Fuzz(func(t *testing.T, seed int64, draws uint16) {
		std := rand.NewSource(seed).(rand.Source64)
		lazy := newLazySource(seed)
		for d := 0; d < int(draws); d++ {
			if got, want := lazy.Uint64(), std.Uint64(); got != want {
				t.Fatalf("seed %d draw %d: %d, want %d", seed, d, got, want)
			}
		}
	})
}
