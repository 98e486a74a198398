// Package rng is a seeded pseudo-random stream that keeps no state
// until its 607th draw. Source returns exactly what
// rand.New(rand.NewSource(seed)) from math/rand returns, value for value,
// from Uint64, Int63 and Float64.
//
// math/rand's source is an additive lagged-Fibonacci generator,
// x_j = x_{j-607} + x_{j-273}, over a 607-word vector it fills at seeding
// time: 4.9 KB per stream before the first draw. The simulator keeps a
// stream per directed link and most links draw a handful of values, so
// on a large ring those vectors would be the largest item on the heap.
// Each entry of the initial vector is a function of the seed and its own
// index, and each of the first 606 draws is a sum of at most four such
// entries, so Source computes a draw from the seed and its index and
// keeps only a count. At the 607th draw it builds math/rand's vector
// once, by running math/rand's update over the initial one, and from
// then on runs that update.
package rng

import "math/rand"

const (
	rngLen  = 607
	rngTap  = 273
	rngFeed = rngLen - rngTap // 334
	rngMask = 1<<63 - 1

	seedA = 48271     // multiplier of math/rand's seeding LCG
	seedM = 1<<31 - 1 // its modulus
)

// Source is one stream. The zero value is not a stream; use Make. A
// Source is a value: embed it where the stream is used. A copy made
// before the 607th draw is an independent stream from that point; a copy
// made after shares the vector, so the two draw from one state.
type Source struct {
	// vec is math/rand's vector from the 607th draw on, nil before.
	vec *[rngLen]int64
	x0  int32 // the reduced seed
	// n counts the draws while vec is nil; from then on it is
	// math/rand's tap, and its feed is tap+rngFeed.
	n int32
}

var (
	// power[i][k] = seedA^(21+3i+k) mod seedM: the seeding LCG's three
	// states at entry i of the vector are x0·power[i][k], each computed
	// on its own rather than one from the next.
	power [rngLen][3]int64
	// cooked is math/rand's rngCooked table, XORed into every entry.
	cooked [rngLen]int64
)

func init() {
	p := int64(1)
	for i := 0; i < 21; i++ {
		p = p * seedA % seedM
	}
	for i := range power {
		for k := range power[i] {
			power[i][k] = p
			p = p * seedA % seedM
		}
	}

	// Recover rngCooked from seed 1's first rngLen outputs x_1..x_607.
	// Draw j adds vec0[(334-j) mod 607] to x_{j-273}, or, for j <= 273,
	// to vec0[607-j]; solve for vec0, then XOR out seed 1's LCG part.
	src := rand.NewSource(1).(rand.Source64)
	var x [rngLen + 1]int64
	for j := 1; j <= rngLen; j++ {
		x[j] = int64(src.Uint64())
	}
	var vec0 [rngLen]int64
	for j := rngTap + 1; j <= rngLen; j++ {
		vec0[(rngFeed-j+rngLen)%rngLen] = x[j] - x[j-rngTap]
	}
	for j := 1; j <= rngTap; j++ {
		vec0[rngFeed-j] = x[j] - vec0[rngLen-j]
	}
	for i := range cooked {
		cooked[i] = vec0[i] ^ lcgPart(1, i)
	}
}

// lcgPart is what math/rand's seeding LCG contributes to entry i of the
// initial vector for reduced seed x0.
func lcgPart(x0 int32, i int) int64 {
	p := &power[i]
	a := int64(x0) * p[0] % seedM
	b := int64(x0) * p[1] % seedM
	c := int64(x0) * p[2] % seedM
	return a<<40 ^ b<<20 ^ c
}

// Make returns the stream math/rand.NewSource(seed) would give. It
// allocates nothing.
func Make(seed int64) Source {
	seed %= seedM
	if seed < 0 {
		seed += seedM
	}
	if seed == 0 {
		seed = 89482311
	}
	return Source{x0: int32(seed)}
}

func (s *Source) vec0(i int) int64 { return lcgPart(s.x0, i) ^ cooked[i] }

// Uint64 returns the next 64-bit value, as math/rand's Source64 does.
func (s *Source) Uint64() uint64 {
	if vec := s.vec; vec != nil {
		tap := int(s.n) - 1
		if tap < 0 {
			tap += rngLen
		}
		s.n = int32(tap)
		feed := tap + rngFeed
		if feed >= rngLen {
			feed -= rngLen
		}
		x := vec[feed] + vec[tap]
		vec[feed] = x
		return uint64(x)
	}
	return s.early()
}

// early makes draw j = n+1 from the initial vector alone: draw j adds
// vec0[(334-j) mod 607] to x_{j-273}, or, for j <= 273, to vec0[607-j],
// and x_{j-273} unfolds the same way. Draw 607 builds the vector
// instead, math/rand's state after 606 draws with its tap at 1, and
// makes the draw from it.
func (s *Source) early() uint64 {
	s.n++
	j := int(s.n)
	if j == rngLen {
		vec := new([rngLen]int64)
		for i := range vec {
			vec[i] = s.vec0(i)
		}
		for k := 1; k < rngLen; k++ {
			vec[(rngFeed-k+rngLen)%rngLen] += vec[rngLen-k]
		}
		s.vec, s.n = vec, 1
		return s.Uint64()
	}
	var x int64
	for ; j > rngTap; j -= rngTap {
		x += s.vec0((rngFeed - j + rngLen) % rngLen)
	}
	return uint64(x + s.vec0(rngFeed-j) + s.vec0(rngLen-j))
}

// Int63 returns a non-negative 63-bit value, as math/rand's Int63 does.
func (s *Source) Int63() int64 { return int64(s.Uint64() & rngMask) }

// Float64 returns a value in [0, 1), as math/rand's Float64 does:
// Int63()/2^63, drawing again when that rounds to 1.
func (s *Source) Float64() float64 {
	for {
		if f := float64(s.Int63()) / (1 << 63); f < 1 {
			return f
		}
	}
}
