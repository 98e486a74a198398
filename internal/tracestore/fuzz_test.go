package tracestore

import (
	"bytes"
	"math"
	"reflect"
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
// fuzzer derives.
func FuzzSegmentRoundTrip(f *testing.F) {
	var reused sealScratch
	f.Add([]byte{})
	f.Add([]byte{0, 1, 2, 3, 4, 5, 250, 251, 252, 253, 254, 255})
	f.Add([]byte("the quick brown fox jumps over the lazy dog"))
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
		// Arbitrary bytes (the seed itself) must decode or error, never
		// panic or over-allocate.
		_, _ = decodeSegment(seed)
	})
}
