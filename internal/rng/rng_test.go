package rng

import (
	"math/rand"
	"testing"
)

// testSeeds covers the seed reduction's edges: zero and the modulus
// (both reduce to 0, which math/rand replaces), negatives (wrapped),
// seeds past 32 bits, and 200 random ones.
func testSeeds() []int64 {
	seeds := []int64{0, 1, -1, seedM, -seedM, 89482311, 1 << 40, -7777777777}
	r := rand.New(rand.NewSource(20061))
	for i := 0; i < 200; i++ {
		seeds = append(seeds, int64(r.Uint64()))
	}
	return seeds
}

// draws is how many values each stream is compared for: well past the
// switch from computed to stored state at draw 607.
const draws = 3000

// TestMatchesMathRand: Float64 and Uint64, each on a stream of its own,
// return math/rand's values for every test seed.
func TestMatchesMathRand(t *testing.T) {
	for _, seed := range testSeeds() {
		want, got := rand.New(rand.NewSource(seed)), Make(seed)
		for i := 0; i < draws; i++ {
			if w, g := want.Uint64(), got.Uint64(); w != g {
				t.Fatalf("seed %d: Uint64 draw %d = %#x, math/rand %#x", seed, i+1, g, w)
			}
		}
		want, got = rand.New(rand.NewSource(seed)), Make(seed)
		for i := 0; i < draws; i++ {
			if w, g := want.Float64(), got.Float64(); w != g {
				t.Fatalf("seed %d: Float64 draw %d = %v, math/rand %v", seed, i+1, g, w)
			}
		}
	}
}

// FuzzStream: any seed, n draws interleaving Uint64, Int63 and Float64.
func FuzzStream(f *testing.F) {
	for _, seed := range testSeeds()[:8] {
		f.Add(seed, uint16(draws))
	}
	// Stream lengths at the edges of the computed draws: the last draw
	// of two vec0 terms and the first of three (273, 274), of three and
	// four (546, 547), the last computed draw, the switch and the first
	// draw after it.
	for i, n := range []uint16{273, 274, 546, 547, 606, 607, 608} {
		f.Add(int64(i+2), n)
	}
	f.Fuzz(func(t *testing.T, seed int64, n uint16) {
		want, got := rand.New(rand.NewSource(seed)), Make(seed)
		for i := 0; i < int(n); i++ {
			var w, g any
			switch i % 3 {
			case 0:
				w, g = want.Uint64(), got.Uint64()
			case 1:
				w, g = want.Int63(), got.Int63()
			default:
				w, g = want.Float64(), got.Float64()
			}
			if w != g {
				t.Fatalf("seed %d: draw %d = %v, math/rand %v", seed, i+1, g, w)
			}
		}
	})
}

var sink float64

// BenchmarkFloat64 sets Source beside math/rand on the two shapes the
// simulator's links have, fresh8, a new stream and eight draws (the
// median link of a 1 000-host cold join), and steady, one draw from a
// stream past its 607th, and on first607, a new stream's draws up to
// and including the switch, the one-time cost of a busy link.
func BenchmarkFloat64(b *testing.B) {
	b.Run("fresh8/rng", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			s := Make(int64(i))
			for k := 0; k < 8; k++ {
				sink += s.Float64()
			}
		}
	})
	b.Run("fresh8/math-rand", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			r := rand.New(rand.NewSource(int64(i)))
			for k := 0; k < 8; k++ {
				sink += r.Float64()
			}
		}
	})
	b.Run("first607/rng", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			s := Make(int64(i))
			for k := 0; k < rngLen; k++ {
				sink += s.Float64()
			}
		}
	})
	b.Run("first607/math-rand", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			r := rand.New(rand.NewSource(int64(i)))
			for k := 0; k < rngLen; k++ {
				sink += r.Float64()
			}
		}
	})
	b.Run("steady/rng", func(b *testing.B) {
		s := Make(42)
		for k := 0; k < rngLen; k++ {
			s.Uint64()
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			sink += s.Float64()
		}
	})
	b.Run("steady/math-rand", func(b *testing.B) {
		r := rand.New(rand.NewSource(42))
		for k := 0; k < rngLen; k++ {
			r.Uint64()
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			sink += r.Float64()
		}
	})
}
