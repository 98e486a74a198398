package overlog

import (
	"slices"
	"testing"

	"p2go/internal/tuple"
)

// BenchmarkCompiled evaluates the expressions Chord's lookup rules run
// once per finger row, compiled against a three-slot layout.
func BenchmarkCompiled(b *testing.B) {
	names := []string{"NID", "K", "FID"}
	env := []tuple.Value{tuple.ID(0x1000), tuple.ID(1 << 63), tuple.ID(1 << 40)}
	slotOf := func(name string) int { return slices.Index(names, name) }
	for _, c := range []struct{ name, src string }{
		{"range", `FID in (NID, K)`},
		{"distance", `K - FID - 1`},
		{"f_now", `f_now()`},
	} {
		prog, err := Parse(`x@N(V) :- y@N(NID, K, FID), V := ` + c.src + `.`)
		if err != nil {
			b.Fatal(err)
		}
		eval := Compile(prog.Rules()[0].Body[1].(*Assign).Expr, slotOf)
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := eval(env, testCtx{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
