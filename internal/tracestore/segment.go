// Package tracestore is the durable side of the §2.1 tracer: an
// append-only, time-window-partitioned log of everything the tracer
// observes — rule executions, cross-node tuple hops, and system events
// — kept compact enough to answer "what happened in the last 6 hours?"
// long after the tracer's ref-counted memo evicted the live rows.
//
// The store is organized as one in-memory *active* segment receiving
// O(1) appends plus a bounded list of *sealed* segments. When an append
// crosses a virtual-time window boundary the active segment is sealed:
// encoded once (O(segment), never O(history)) into a delta-encoded
// columnar byte block — strings interned into a per-segment dictionary,
// tuple IDs zigzag-delta varints, timestamps XOR-delta varints of their
// IEEE-754 bits (lossless) — and appended to the sealed list, which a
// retention budget (segment count and encoded bytes) trims from the
// oldest end. On top sits a query layer (query.go) answering causal
// lineage questions across windows and across nodes.
//
// The package has no dependency on the engine or tracer: records are
// plain structs, so trace writes through without an import cycle.
package tracestore

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Exec is one causal rule-execution edge, mirroring a ruleExec row:
// rule consumed tuple InID (observed at InT) and produced OutID at
// OutT; IsEvent distinguishes the triggering-event link from
// precondition links.
type Exec struct {
	Rule      string
	InID      uint64
	OutID     uint64
	InT, OutT float64
	IsEvent   bool
}

// Hop is one cross-node provenance edge, mirroring a remote-sourced
// tupleTable row: local tuple ID arrived from node Src where it was
// known as SrcID, destined for Dst, registered at T.
type Hop struct {
	ID    uint64
	Src   string
	SrcID uint64
	Dst   string
	T     float64
}

// Event is one tupleLog-style system event: Op is "arrive", "insert",
// "delete", "watchTable", or "restart"; Name and ID identify the tuple.
type Event struct {
	Op   string
	Name string
	ID   uint64
	T    float64
}

// segment is the raw (active) form of one time window of records.
// Appends are plain slice appends; order is append order, which on a
// node is nondecreasing in time.
type segment struct {
	window int64
	execs  []Exec
	hops   []Hop
	events []Event
}

func (s *segment) records() int { return len(s.execs) + len(s.hops) + len(s.events) }

// dict interns strings in first-appearance order, which makes the
// encoding deterministic for equal record sequences.
type dict struct {
	idx  map[string]uint64
	strs []string
}

// reset empties the dictionary, keeping its map and slice for the next
// segment.
func (d *dict) reset() {
	if d.idx == nil {
		d.idx = make(map[string]uint64)
	}
	clear(d.idx)
	d.strs = d.strs[:0]
}

func (d *dict) id(s string) uint64 {
	if i, ok := d.idx[s]; ok {
		return i
	}
	i := uint64(len(d.strs))
	d.idx[s] = i
	d.strs = append(d.strs, s)
	return i
}

// sealScratch is what a seal works with and nothing keeps: the segment's
// dictionary and the buffer its encoding grows in. A Store owns one, so a
// seal allocates neither (a run seals hundreds of segments a node).
type sealScratch struct {
	dict dict
	buf  []byte
}

// encodeSegment serializes a segment into its sealed columnar form:
//
//	window | dictionary | counts | exec cols | hop cols | event cols
//
// Columns are delta chains: uint64 IDs as zigzag varints against the
// previous value in the same column, float64 timestamps as uvarints of
// their bits XORed with the previous value's bits (adjacent virtual
// times share high bits, so the XOR is small), booleans as a packed
// bitset. Encoding is lossless — decodeSegment inverts it exactly.
//
// The encoding is built in the scratch, which every call empties first:
// the result is only good until the next call, and a caller that keeps it
// copies it (Store.seal). The zero sealScratch is ready to use.
func (sc *sealScratch) encodeSegment(seg *segment) []byte {
	d := &sc.dict
	d.reset()
	for i := range seg.execs {
		d.id(seg.execs[i].Rule)
	}
	for i := range seg.hops {
		d.id(seg.hops[i].Src)
		d.id(seg.hops[i].Dst)
	}
	for i := range seg.events {
		d.id(seg.events[i].Op)
		d.id(seg.events[i].Name)
	}

	b := binary.AppendVarint(sc.buf[:0], seg.window)
	b = binary.AppendUvarint(b, uint64(len(d.strs)))
	for _, s := range d.strs {
		b = binary.AppendUvarint(b, uint64(len(s)))
		b = append(b, s...)
	}
	b = binary.AppendUvarint(b, uint64(len(seg.execs)))
	b = binary.AppendUvarint(b, uint64(len(seg.hops)))
	b = binary.AppendUvarint(b, uint64(len(seg.events)))

	// Exec columns.
	for i := range seg.execs {
		b = binary.AppendUvarint(b, d.idx[seg.execs[i].Rule])
	}
	var prev uint64
	for i := range seg.execs {
		b = binary.AppendVarint(b, int64(seg.execs[i].InID-prev))
		prev = seg.execs[i].InID
	}
	prev = 0
	for i := range seg.execs {
		b = binary.AppendVarint(b, int64(seg.execs[i].OutID-prev))
		prev = seg.execs[i].OutID
	}
	var prevBits uint64
	for i := range seg.execs {
		bits := math.Float64bits(seg.execs[i].InT)
		b = binary.AppendUvarint(b, bits^prevBits)
		prevBits = bits
	}
	// OutT is XORed against the same record's InT (an activation's end
	// is even closer to its own start than to the previous end).
	for i := range seg.execs {
		b = binary.AppendUvarint(b,
			math.Float64bits(seg.execs[i].OutT)^math.Float64bits(seg.execs[i].InT))
	}
	b = appendBitset(b, len(seg.execs), func(i int) bool { return seg.execs[i].IsEvent })

	// Hop columns.
	prev = 0
	for i := range seg.hops {
		b = binary.AppendVarint(b, int64(seg.hops[i].ID-prev))
		prev = seg.hops[i].ID
	}
	for i := range seg.hops {
		b = binary.AppendUvarint(b, d.idx[seg.hops[i].Src])
	}
	prev = 0
	for i := range seg.hops {
		b = binary.AppendVarint(b, int64(seg.hops[i].SrcID-prev))
		prev = seg.hops[i].SrcID
	}
	for i := range seg.hops {
		b = binary.AppendUvarint(b, d.idx[seg.hops[i].Dst])
	}
	prevBits = 0
	for i := range seg.hops {
		bits := math.Float64bits(seg.hops[i].T)
		b = binary.AppendUvarint(b, bits^prevBits)
		prevBits = bits
	}

	// Event columns.
	for i := range seg.events {
		b = binary.AppendUvarint(b, d.idx[seg.events[i].Op])
	}
	for i := range seg.events {
		b = binary.AppendUvarint(b, d.idx[seg.events[i].Name])
	}
	prev = 0
	for i := range seg.events {
		b = binary.AppendVarint(b, int64(seg.events[i].ID-prev))
		prev = seg.events[i].ID
	}
	prevBits = 0
	for i := range seg.events {
		bits := math.Float64bits(seg.events[i].T)
		b = binary.AppendUvarint(b, bits^prevBits)
		prevBits = bits
	}
	sc.buf = b
	return b
}

func appendBitset(b []byte, n int, bit func(int) bool) []byte {
	var cur byte
	for i := 0; i < n; i++ {
		if bit(i) {
			cur |= 1 << (i % 8)
		}
		if i%8 == 7 {
			b = append(b, cur)
			cur = 0
		}
	}
	if n%8 != 0 {
		b = append(b, cur)
	}
	return b
}

// reader is a bounds-checked cursor over an encoded segment; every read
// reports malformed input as an error instead of panicking, so decode
// is safe on arbitrary bytes.
type reader struct {
	b   []byte
	off int
}

func (r *reader) uvarint() (uint64, error) {
	v, n := binary.Uvarint(r.b[r.off:])
	if n <= 0 {
		return 0, fmt.Errorf("tracestore: truncated uvarint at offset %d", r.off)
	}
	r.off += n
	return v, nil
}

func (r *reader) varint() (int64, error) {
	v, n := binary.Varint(r.b[r.off:])
	if n <= 0 {
		return 0, fmt.Errorf("tracestore: truncated varint at offset %d", r.off)
	}
	r.off += n
	return v, nil
}

func (r *reader) bytes(n int) ([]byte, error) {
	if n < 0 || r.off+n > len(r.b) {
		return nil, fmt.Errorf("tracestore: truncated %d-byte field at offset %d", n, r.off)
	}
	s := r.b[r.off : r.off+n]
	r.off += n
	return s, nil
}

// count reads the number of strings or records that follow. Each takes
// at least a byte of what is left, so a corrupt header cannot provoke an
// allocation larger than a multiple of its own input.
func (r *reader) count() (int, error) {
	v, err := r.uvarint()
	if err != nil {
		return 0, err
	}
	if v > uint64(len(r.b)-r.off) {
		return 0, fmt.Errorf("tracestore: implausible count %d with %d bytes left", v, len(r.b)-r.off)
	}
	return int(v), nil
}

// decodeSegment inverts encodeSegment. For every well-formed input
// decode(encode(seg)) is deep-equal to seg; malformed input returns an
// error.
func decodeSegment(b []byte) (*segment, error) {
	r := &reader{b: b}
	window, err := r.varint()
	if err != nil {
		return nil, err
	}
	nStrs, err := r.count()
	if err != nil {
		return nil, err
	}
	strs := make([]string, nStrs)
	for i := range strs {
		n, err := r.count()
		if err != nil {
			return nil, err
		}
		s, err := r.bytes(n)
		if err != nil {
			return nil, err
		}
		strs[i] = string(s)
	}
	str := func(idx uint64) (string, error) {
		if idx >= uint64(len(strs)) {
			return "", fmt.Errorf("tracestore: dictionary index %d out of range (%d strings)", idx, len(strs))
		}
		return strs[idx], nil
	}
	nExecs, err := r.count()
	if err != nil {
		return nil, err
	}
	nHops, err := r.count()
	if err != nil {
		return nil, err
	}
	nEvents, err := r.count()
	if err != nil {
		return nil, err
	}
	seg := &segment{window: window}
	if nExecs > 0 {
		seg.execs = make([]Exec, nExecs)
	}
	if nHops > 0 {
		seg.hops = make([]Hop, nHops)
	}
	if nEvents > 0 {
		seg.events = make([]Event, nEvents)
	}

	// Exec columns.
	for i := range seg.execs {
		idx, err := r.uvarint()
		if err != nil {
			return nil, err
		}
		if seg.execs[i].Rule, err = str(idx); err != nil {
			return nil, err
		}
	}
	var prev uint64
	for i := range seg.execs {
		d, err := r.varint()
		if err != nil {
			return nil, err
		}
		prev += uint64(d)
		seg.execs[i].InID = prev
	}
	prev = 0
	for i := range seg.execs {
		d, err := r.varint()
		if err != nil {
			return nil, err
		}
		prev += uint64(d)
		seg.execs[i].OutID = prev
	}
	var prevBits uint64
	for i := range seg.execs {
		x, err := r.uvarint()
		if err != nil {
			return nil, err
		}
		prevBits ^= x
		seg.execs[i].InT = math.Float64frombits(prevBits)
	}
	for i := range seg.execs {
		x, err := r.uvarint()
		if err != nil {
			return nil, err
		}
		seg.execs[i].OutT = math.Float64frombits(math.Float64bits(seg.execs[i].InT) ^ x)
	}
	bits, err := r.bytes((nExecs + 7) / 8)
	if err != nil {
		return nil, err
	}
	for i := range seg.execs {
		seg.execs[i].IsEvent = bits[i/8]&(1<<(i%8)) != 0
	}

	// Hop columns.
	prev = 0
	for i := range seg.hops {
		d, err := r.varint()
		if err != nil {
			return nil, err
		}
		prev += uint64(d)
		seg.hops[i].ID = prev
	}
	for i := range seg.hops {
		idx, err := r.uvarint()
		if err != nil {
			return nil, err
		}
		if seg.hops[i].Src, err = str(idx); err != nil {
			return nil, err
		}
	}
	prev = 0
	for i := range seg.hops {
		d, err := r.varint()
		if err != nil {
			return nil, err
		}
		prev += uint64(d)
		seg.hops[i].SrcID = prev
	}
	for i := range seg.hops {
		idx, err := r.uvarint()
		if err != nil {
			return nil, err
		}
		if seg.hops[i].Dst, err = str(idx); err != nil {
			return nil, err
		}
	}
	prevBits = 0
	for i := range seg.hops {
		x, err := r.uvarint()
		if err != nil {
			return nil, err
		}
		prevBits ^= x
		seg.hops[i].T = math.Float64frombits(prevBits)
	}

	// Event columns.
	for i := range seg.events {
		idx, err := r.uvarint()
		if err != nil {
			return nil, err
		}
		if seg.events[i].Op, err = str(idx); err != nil {
			return nil, err
		}
	}
	for i := range seg.events {
		idx, err := r.uvarint()
		if err != nil {
			return nil, err
		}
		if seg.events[i].Name, err = str(idx); err != nil {
			return nil, err
		}
	}
	prev = 0
	for i := range seg.events {
		d, err := r.varint()
		if err != nil {
			return nil, err
		}
		prev += uint64(d)
		seg.events[i].ID = prev
	}
	prevBits = 0
	for i := range seg.events {
		x, err := r.uvarint()
		if err != nil {
			return nil, err
		}
		prevBits ^= x
		seg.events[i].T = math.Float64frombits(prevBits)
	}
	return seg, nil
}
