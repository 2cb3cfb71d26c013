package llm

import "math/rand"

// The constants of math/rand's additive lagged-Fibonacci generator
// (x[n] = x[n-607] + x[n-273] mod 2⁶⁴) and of the Lehmer generator
// (x[k+1] = 48271·x[k] mod 2³¹−1) that seeds its ring.
const (
	rngLen   = 607
	rngTap   = 273
	int32max = 1<<31 - 1
	lcgMul   = 48271
)

// rand.NewSource(seed) fills ring word i from three consecutive Lehmer
// states after 20 discarded ones, x[21+3i], x[22+3i] and x[23+3i], and
// XORs in a fixed "cooked" constant. Since x[k] = seed·48271ᵏ mod 2³¹−1,
// any word can be built straight from the seed: lcgPow holds the three
// powers of word i, rngCooked its constant.
var (
	lcgPow    [rngLen][3]int64
	rngCooked [rngLen]int64
)

func init() {
	p := int64(1)
	for k := 1; k <= 20+3*rngLen; k++ {
		p = p * lcgMul % int32max
		if k > 20 {
			lcgPow[(k-21)/3][(k-21)%3] = p
		}
	}
	// Recover the cooked constants from math/rand itself: one generator
	// drawn once around the ring leaves every word holding a known draw;
	// undoing the draws backwards (feed -= tap) gives the seeded ring,
	// and XOR with the Lehmer part of seed 1 leaves the constants.
	src := rand.NewSource(1).(rand.Source64)
	var vec [rngLen]int64
	tap, feed := 0, rngLen-rngTap
	for n := 0; n < rngLen; n++ {
		tap, feed = ringDec(tap), ringDec(feed)
		vec[feed] = int64(src.Uint64())
	}
	for n := 0; n < rngLen; n++ {
		vec[feed] -= vec[tap]
		tap, feed = ringInc(tap), ringInc(feed)
	}
	for i := range vec {
		rngCooked[i] = vec[i] ^ lcgWord(1, i)
	}
}

func ringDec(i int) int {
	if i == 0 {
		return rngLen - 1
	}
	return i - 1
}

func ringInc(i int) int {
	if i == rngLen-1 {
		return 0
	}
	return i + 1
}

// lcgWord is ring word i of a generator seeded with seed, before the
// cooked constant, exactly as rand's seeding loop assembles it.
func lcgWord(seed int64, i int) int64 {
	p := &lcgPow[i]
	return (seed*p[0]%int32max)<<40 ^ (seed*p[1]%int32max)<<20 ^ seed*p[2]%int32max
}

// lazySource draws the same Uint64/Int63 stream as rand.NewSource(seed),
// bit for bit, but builds each ring word the first time a draw reads it
// rather than all 607 (1,841 Lehmer steps) up front: a completion draws a
// handful of values. Draw n reads word 334−n as feed (n ≤ 334) and word
// 607−n as tap (n ≤ 273) for the first time; every later read finds a
// word already built.
type lazySource struct {
	seed      int64 // reduced into [1, 2³¹−2] as rand's Seed does
	n         int   // draws so far
	tap, feed int
	vec       [rngLen]int64
}

// Seed positions s at the first draw of rand.NewSource(seed).
func (s *lazySource) Seed(seed int64) {
	seed %= int32max
	if seed < 0 {
		seed += int32max
	}
	if seed == 0 {
		seed = 89482311
	}
	// The ring keeps its old words: each is rebuilt before it is read.
	s.seed, s.n, s.tap, s.feed = seed, 0, 0, rngLen-rngTap
}

func (s *lazySource) Uint64() uint64 {
	s.n++
	s.tap, s.feed = ringDec(s.tap), ringDec(s.feed)
	if s.n <= rngLen-rngTap {
		s.vec[s.feed] = lcgWord(s.seed, s.feed) ^ rngCooked[s.feed]
		if s.n <= rngTap {
			s.vec[s.tap] = lcgWord(s.seed, s.tap) ^ rngCooked[s.tap]
		}
	}
	x := s.vec[s.feed] + s.vec[s.tap]
	s.vec[s.feed] = x
	return uint64(x)
}

func (s *lazySource) Int63() int64 { return int64(s.Uint64() & (1<<63 - 1)) }
