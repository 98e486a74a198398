// Package rng is a seeded pseudo-random stream whose state grows with
// the draws it makes. Source returns exactly what
// rand.New(rand.NewSource(seed)) from math/rand returns, value for value,
// from Uint64, Int63 and Float64.
//
// math/rand's source is an additive lagged-Fibonacci generator,
// x_j = x_{j-607} + x_{j-273}, over a 607-word vector it fills at seeding
// time: 4.9 KB per stream before the first draw. The simulator keeps a
// stream per directed link and most links draw a handful of values, so
// on a large ring those vectors would be the largest item on the heap.
// Each entry of the initial vector is a function of the seed and its own
// index, so Source computes an entry when a draw first reads it and
// keeps only the outputs so far. After 607 draws those outputs are,
// reordered, math/rand's vector, and Source runs math/rand's update on
// them.
package rng

import (
	"math/rand"
	"slices"
)

const (
	rngLen  = 607
	rngTap  = 273
	rngFeed = rngLen - rngTap // 334
	rngMask = 1<<63 - 1

	seedA = 48271     // multiplier of math/rand's seeding LCG
	seedM = 1<<31 - 1 // its modulus
)

// Source is one stream. The zero value is not a stream; use Make. A
// Source is a value: embed it where the stream is used, and do not copy
// one that has drawn (the copies would share their outputs).
type Source struct {
	// out holds the draws so far while fewer than rngLen have been made;
	// from then on it is math/rand's vector, read at tap and tap+rngFeed.
	out []int64
	x0  int32 // the reduced seed
	tap int32
}

var (
	// power[i] = seedA^(21+3i) mod seedM: the seeding LCG's state at
	// entry i of the vector is x0·power[i].
	power [rngLen]int64
	// cooked is math/rand's rngCooked table, XORed into every entry.
	cooked [rngLen]int64
)

func init() {
	p := int64(1)
	for i := 0; i < 21; i++ {
		p = p * seedA % seedM
	}
	for i := range power {
		power[i] = p
		p = p * seedA % seedM * seedA % seedM * seedA % seedM
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
	a := int64(x0) * power[i] % seedM
	b := a * seedA % seedM
	c := b * seedA % seedM
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
	if vec := s.out; len(vec) == rngLen {
		tap := int(s.tap) - 1
		if tap < 0 {
			tap += rngLen
		}
		s.tap = int32(tap)
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

// early makes draw j <= rngLen from the initial vector and the draws
// before it.
func (s *Source) early() uint64 {
	j := len(s.out) + 1
	x := s.vec0((rngFeed - j + rngLen) % rngLen)
	if j > rngTap {
		x += s.out[j-rngTap-1]
	} else {
		x += s.vec0(rngLen - j)
	}
	if len(s.out) == cap(s.out) {
		s.out = append(make([]int64, 0, min(max(2*cap(s.out), 8), rngLen)), s.out...)
	}
	s.out = append(s.out, x)
	if j == rngLen {
		// Draw j was written to vec[(334-j) mod 607], so out[k] belongs
		// at vec[(333-k) mod 607]: two reversals put it there, and
		// math/rand's tap and feed are now 0 and 334.
		slices.Reverse(s.out[:rngFeed])
		slices.Reverse(s.out[rngFeed:])
		s.tap = 0
	}
	return uint64(x)
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
