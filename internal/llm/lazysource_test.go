package llm

import (
	"math"
	"math/rand"
	"testing"
)

// TestLazySourceMatchesMathRand: lazySource draws what rand.NewSource
// draws, bit for bit, on 10,000+ seeds — the reduction edge cases (0,
// negatives, multiples of 2³¹−1, the int64 extremes) and a spread of
// others — at least 8 draws each, and every 50th seed 2,000 draws, past
// the 607-word ring. One lazySource is re-seeded for every seed, so a
// word left from an earlier seed would show.
func TestLazySourceMatchesMathRand(t *testing.T) {
	seeds := []int64{
		0, 1, -1, 2, -2, int32max, -int32max, 2 * int32max, -3 * int32max,
		int32max - 1, int32max + 1, 89482311, -89482311,
		math.MaxInt64, math.MinInt64, math.MinInt64 + 1,
		math.MaxInt64 / int32max * int32max, math.MinInt64 / int32max * int32max,
	}
	gen := rand.New(rand.NewSource(20251018))
	for len(seeds) < 10000 {
		seeds = append(seeds, int64(gen.Uint64()))
	}
	var lazy lazySource
	for i, seed := range seeds {
		draws := 8
		if i%50 == 0 {
			draws = 2000
		}
		ref := rand.NewSource(seed).(rand.Source64)
		lazy.Seed(seed)
		for d := 0; d < draws; d++ {
			if d%2 == 0 {
				if got, want := lazy.Int63(), ref.Int63(); got != want {
					t.Fatalf("seed %d draw %d: Int63 %d, math/rand %d", seed, d, got, want)
				}
			} else if got, want := lazy.Uint64(), ref.Uint64(); got != want {
				t.Fatalf("seed %d draw %d: Uint64 %d, math/rand %d", seed, d, got, want)
			}
		}
	}
}

// BenchmarkSeed compares seeding plus the five draws of a typical
// simulated completion.
func BenchmarkSeed(b *testing.B) {
	b.Run("lazy", func(b *testing.B) {
		seed := int64(0)
		for b.Loop() {
			s := new(lazySource)
			s.Seed(seed)
			for d := 0; d < 5; d++ {
				s.Int63()
			}
			seed++
		}
	})
	b.Run("math/rand", func(b *testing.B) {
		seed := int64(0)
		for b.Loop() {
			s := rand.NewSource(seed)
			for d := 0; d < 5; d++ {
				s.Int63()
			}
			seed++
		}
	})
}
