package tuple

import (
	"math"
	"slices"
	"testing"
)

var (
	benchFields []Value
	benchOK     bool
	benchHash   uint64
)

// BenchmarkRow times the table layer's per-row work on one row of
// Chord's finger table, finger@N(I, FID, FAddr): clone copies its fields
// the way Table.Insert stores a row, equal compares it with the same row
// decoded apart (Insert's refresh check), and hashFieldsAt hashes all
// four fields the way an index keys a row.
func BenchmarkRow(b *testing.B) {
	row := []Value{Str("n1"), Int(7), ID(7*(math.MaxUint64/160) + 0x2000), Str("n12")}
	twin, _, err := Unmarshal(Marshal(nil, New("finger", row...)))
	if err != nil {
		b.Fatal(err)
	}
	positions := []int{0, 1, 2, 3}
	b.Run("clone", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			benchFields = slices.Clone(row)
		}
	})
	b.Run("equal", func(b *testing.B) {
		b.ReportAllocs()
		tp := New("finger", row...)
		for i := 0; i < b.N; i++ {
			benchOK = tp.Equal(twin)
		}
	})
	b.Run("hashFieldsAt", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			benchHash = HashFieldsAt(row, positions)
		}
	})
}
