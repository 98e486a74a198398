package tracestore

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"math"
	"reflect"
	"slices"
	"testing"
)

// recordsFromSeed derives a deterministic record mix from fuzz bytes: a
// tiny interpreter where each byte chooses the record kind and
// perturbs the running IDs/times, so the corpus explores record
// orderings, ID regressions, negative deltas, and odd floats without
// the fuzzer needing to construct valid encodings.
func recordsFromSeed(seed []byte) *segment {
	seg := &segment{window: 0}
	if len(seg.execs) == 0 && len(seed) > 0 {
		seg.window = int64(int8(seed[0]))
	}
	rules := []string{"r1", "lookup", "", "a-much-longer-rule-name"}
	nodes := []string{"n1", "n2", "n17", ""}
	ops := []string{"arrive", "insert", "delete", "restart"}
	id := uint64(1)
	tm := 0.0
	for i, b := range seed {
		switch b % 5 {
		case 0:
			id += uint64(b >> 3)
			tm += float64(b) * 0.01
			seg.execs = append(seg.execs, Exec{
				Rule: rules[int(b>>2)%len(rules)],
				InID: id, OutID: id + uint64(b%7),
				InT: tm, OutT: tm + float64(b%3)*0.001,
				IsEvent: b%2 == 0,
			})
		case 1:
			// ID regression: deltas go negative.
			if id > uint64(b) {
				id -= uint64(b)
			}
			seg.hops = append(seg.hops, Hop{
				ID: id, Src: nodes[int(b>>2)%len(nodes)], SrcID: id * 3,
				Dst: nodes[int(b>>4)%len(nodes)], T: tm,
			})
		case 2:
			tm = -tm // negative and sign-flipping times
			seg.events = append(seg.events, Event{
				Op: ops[int(b>>2)%len(ops)], Name: rules[i%len(rules)],
				ID: id, T: tm,
			})
		case 3:
			id += 1 << (b % 60) // huge deltas
		case 4:
			tm = math.Float64frombits(uint64(b)<<52 | id) // weird bit patterns
			if math.IsNaN(tm) {
				tm = 0
			}
			seg.events = append(seg.events, Event{Op: "arrive", Name: "x", ID: id, T: tm})
		}
	}
	return seg
}

// FuzzSegmentRoundTrip: encode→decode→deep-equal for arbitrary record
// mixes, the same bytes from a scratch that has already encoded other
// segments (every earlier input of this process, and this one) as from a
// fresh one, and decode must never panic on the mutated encodings the
// fuzzer derives. Block lookups must find what the whole decode and its
// index find, and a changed directory must not go unnoticed.
func FuzzSegmentRoundTrip(f *testing.F) {
	var reused sealScratch
	f.Add([]byte{})
	f.Add([]byte{0, 1, 2, 3, 4, 5, 250, 251, 252, 253, 254, 255})
	f.Add([]byte("the quick brown fox jumps over the lazy dog"))
	// Several blocks, every OutID equal.
	f.Add(bytes.Repeat([]byte{0}, 300))
	// Runs of three equal OutIDs, one run straddling each block edge.
	f.Add(bytes.Repeat([]byte{35, 0, 0}, 100))
	// Runs of three equal hop IDs, one run straddling each block edge.
	f.Add(bytes.Repeat([]byte{10, 251, 251, 251}, 60))
	f.Fuzz(func(t *testing.T, seed []byte) {
		seg := recordsFromSeed(seed)
		enc := new(sealScratch).encodeSegment(seg)
		for pass := 1; pass <= 2; pass++ {
			if again := reused.encodeSegment(seg); !bytes.Equal(again, enc) {
				t.Fatalf("pass %d through a reused scratch encodes\n %x\na fresh one\n %x", pass, again, enc)
			}
		}
		dec, err := decodeSegment(enc)
		if err != nil {
			t.Fatalf("decode of own encoding failed: %v", err)
		}
		if dec.window != seg.window ||
			!reflect.DeepEqual(dec.execs, seg.execs) ||
			!reflect.DeepEqual(dec.hops, seg.hops) ||
			!reflect.DeepEqual(dec.events, seg.events) {
			t.Fatalf("round trip mismatch:\n in  %+v\n out %+v", seg, dec)
		}
		checkBlockLookups(t, seg, enc, dec)
		checkMutatedDirectory(t, seed, enc)
		// Arbitrary bytes (the seed itself) must decode or error, never
		// panic or over-allocate.
		_, _ = decodeSegment(seed)
	})
}

// checkBlockLookups holds the block reads of a sealed segment to its
// whole decode searched through idIndex: for every exec OutID and hop ID
// it holds, and the absent IDs beside them, the same rows in the same
// order, every field and every float bit equal. The seal's flags must
// say exactly which columns are nondecreasing.
func checkBlockLookups(t *testing.T, seg *segment, enc []byte, dec *segment) {
	t.Helper()
	ref := segRef{data: enc}
	v := &View{}
	outCol := func(i int) uint64 { return dec.execs[i].OutID }
	hopCol := func(i int) uint64 { return dec.hops[i].ID }
	outBlocks, err := v.blocks(&ref, outSorted)
	if err != nil {
		t.Fatal(err)
	}
	hopBlocks, err := v.blocks(&ref, hopSorted)
	if err != nil {
		t.Fatal(err)
	}
	if sorted := sortedColumn(len(dec.execs), outCol) == nil; sorted != (outBlocks != nil) {
		t.Fatalf("OutID column nondecreasing %v, sealed flag says %v", sorted, outBlocks != nil)
	}
	if sorted := sortedColumn(len(dec.hops), hopCol) == nil; sorted != (hopBlocks != nil) {
		t.Fatalf("hop ID column nondecreasing %v, sealed flag says %v", sorted, hopBlocks != nil)
	}
	ids := []uint64{0, math.MaxUint64}
	for _, e := range seg.execs {
		ids = append(ids, e.OutID-1, e.OutID, e.OutID+1)
	}
	for _, h := range seg.hops {
		ids = append(ids, h.ID-1, h.ID, h.ID+1)
	}
	slices.Sort(ids)
	ids = slices.Compact(ids)
	var outIx, hopIx idIndex
	for _, id := range ids {
		if outBlocks != nil {
			var got, want []Exec
			if err := outBlocks.out.each(v, outBlocks, id, false, func(e *Exec) bool { got = append(got, *e); return true }); err != nil {
				t.Fatalf("exec lookup of %d: %v", id, err)
			}
			lo, hi := outIx.find(len(dec.execs), outCol, id)
			for p := lo; p < hi; p++ {
				want = append(want, dec.execs[outIx.row(p)])
			}
			if !sameBits(got, want) {
				t.Fatalf("execs with OutID %d: blocks read\n %+v\nthe whole decode\n %+v", id, got, want)
			}
		}
		if hopBlocks != nil {
			var got, want []Hop
			if err := hopBlocks.hop.each(v, hopBlocks, id, true, func(h *Hop) bool { got = append(got, *h); return true }); err != nil {
				t.Fatalf("hop lookup of %d: %v", id, err)
			}
			lo, hi := hopIx.find(len(dec.hops), hopCol, id)
			for p := hi - 1; p >= lo; p-- {
				want = append(want, dec.hops[hopIx.row(p)])
			}
			if !sameBits(got, want) {
				t.Fatalf("hops with ID %d, newest first: blocks read\n %+v\nthe whole decode\n %+v", id, got, want)
			}
		}
	}
	// Every lookup again reads nothing new.
	before := v.decoded
	for _, id := range ids {
		if outBlocks != nil {
			_ = outBlocks.out.each(v, outBlocks, id, false, func(*Exec) bool { return true })
		}
		if hopBlocks != nil {
			_ = hopBlocks.hop.each(v, hopBlocks, id, true, func(*Hop) bool { return true })
		}
	}
	if v.decoded != before {
		t.Fatalf("repeated lookups decoded %+v, after the first round %+v", v.decoded, before)
	}
}

// sameBits compares records field by field, floats by their bits.
func sameBits[T Exec | Hop](a, b []T) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		switch x := any(a[i]).(type) {
		case Exec:
			y := any(b[i]).(Exec)
			if x.Rule != y.Rule || x.InID != y.InID || x.OutID != y.OutID || x.IsEvent != y.IsEvent ||
				math.Float64bits(x.InT) != math.Float64bits(y.InT) || math.Float64bits(x.OutT) != math.Float64bits(y.OutT) {
				return false
			}
		case Hop:
			y := any(b[i]).(Hop)
			if x.ID != y.ID || x.Src != y.Src || x.SrcID != y.SrcID || x.Dst != y.Dst ||
				math.Float64bits(x.T) != math.Float64bits(y.T) {
				return false
			}
		}
	}
	return true
}

// checkMutatedDirectory changes one directory byte of a good encoding,
// at a place and by a value the seed picks. Both decoders must refuse
// it on its checksum. With the checksum made to match, as an encoder bug
// would, the whole decode must still refuse it, and block lookups must
// answer or fail but never panic or read outside the bytes.
func checkMutatedDirectory(t *testing.T, seed, enc []byte) {
	t.Helper()
	h, err := parseHeader(enc)
	if err != nil {
		t.Fatal(err)
	}
	dirLen := h.dict - 4 - h.execDir
	if dirLen == 0 {
		return
	}
	var pick uint64
	for _, b := range seed {
		pick = pick*31 + uint64(b)
	}
	mut := bytes.Clone(enc)
	at := h.execDir + int(pick%uint64(dirLen))
	mut[at] ^= byte(1 + pick%255)
	if _, err := parseHeader(mut); err == nil {
		t.Fatalf("directory byte %d changed, header parsed without error", at)
	}
	if _, err := decodeSegment(mut); err == nil {
		t.Fatalf("directory byte %d changed, segment decoded without error", at)
	}
	binary.LittleEndian.PutUint32(mut[h.dict-4:], crc32.ChecksumIEEE(mut[:h.dict-4]))
	if _, err := decodeSegment(mut); err == nil {
		t.Fatalf("directory byte %d changed under a matching checksum, segment decoded without error", at)
	}
	ref := segRef{data: mut[:len(mut):len(mut)]}
	v := &View{}
	if _, err := v.blocks(&ref, 0); err != nil {
		t.Fatal(err)
	}
	b := ref.blk // read both columns by block, whatever the flags say
	for _, id := range []uint64{0, 1, pick, math.MaxUint64} {
		_ = b.out.each(v, b, id, false, func(*Exec) bool { return true })
		_ = b.hop.each(v, b, id, true, func(*Hop) bool { return true })
	}
}
