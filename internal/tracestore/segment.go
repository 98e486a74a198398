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
// IEEE-754 bits (lossless), execs and hops in 64-row blocks that a
// lookup can find through a directory and decode alone — and appended
// to the sealed list, which a retention budget (segment count and
// encoded bytes) trims from the oldest end. On top sits a query layer
// (query.go) answering causal lineage questions across windows and
// across nodes.
//
// The package has no dependency on the engine or tracer: records are
// plain structs, so trace writes through without an import cycle.
package tracestore

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"slices"
	"unsafe"
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

// Dict numbers strings from 0 in first-appearance order, which makes a
// seal's encoding deterministic; the tracer numbers its records' strings
// with one too. The zero Dict is ready to use. The strings a node hands
// the tracer, and the tracer the store, are the plan's, the codec intern
// table's and the tracer's own, the same bytes every time: seen
// remembers where recently numbered strings' bytes are, so most lookups
// compare a pointer instead of hashing the string. It is a two-way
// set-associative cache, each set's more recently used entry first, so
// two strings whose addresses share a set do not evict each other. Equal
// bytes and length are an equal string: the entry's pointer keeps those
// bytes alive.
type Dict struct {
	idx  map[string]uint32
	strs []string
	seen [64][2]seenStr
}

type seenStr struct {
	p *byte
	n uint32
	i uint32
}

// Reset empties the dictionary, keeping its map and slice for reuse.
func (d *Dict) Reset() {
	clear(d.idx)
	d.strs = d.strs[:0]
	clear(d.seen[:])
}

// ID returns s's number, numbering it if it is new. It checks the set's
// first entry, so a hit there costs what a direct-mapped hit did; miss
// does the rest.
func (d *Dict) ID(s string) uint32 {
	p := unsafe.StringData(s)
	set := &d.seen[(uint64(uintptr(unsafe.Pointer(p)))+uint64(len(s)))*0x9e3779b97f4a7c15>>58] // Fibonacci hashing onto 64 sets
	if set[0].p == p && int(set[0].n) == len(s) && p != nil {
		return set[0].i
	}
	return d.miss(s, set)
}

// miss checks the set's second entry, and then numbers s through the
// map; either way s's entry becomes the set's first.
func (d *Dict) miss(s string, set *[2]seenStr) uint32 {
	p := unsafe.StringData(s)
	if set[1].p == p && int(set[1].n) == len(s) && p != nil {
		set[0], set[1] = set[1], set[0]
		return set[0].i
	}
	i, ok := d.idx[s]
	if !ok {
		if d.idx == nil {
			d.idx = make(map[string]uint32)
		}
		i = uint32(len(d.strs))
		d.strs = append(d.strs, s)
		d.idx[s] = i
	}
	if uint64(len(s)) <= math.MaxUint32 {
		set[0], set[1] = seenStr{p, uint32(len(s)), i}, set[0]
	}
	return i
}

// Lookup returns s's number without numbering it.
func (d *Dict) Lookup(s string) (uint32, bool) {
	i, ok := d.idx[s]
	return i, ok
}

// Str returns the string numbered i.
func (d *Dict) Str(i uint32) string { return d.strs[i] }

// sealScratch is what a seal works with and nothing keeps: the segment's
// dictionary, the numbers of its records' strings, and the buffer its
// encoding grows in. A Store owns one, so a seal allocates none of them
// (a run seals hundreds of segments a node).
type sealScratch struct {
	dict Dict
	ids  []uint32
	buf  []byte
}

// blockRows is how many exec or hop records one sealed block holds. A
// block restarts its columns' delta and XOR chains, so a lookup decodes
// the blocks that can hold its ID and none before them.
const blockRows = 64

func numBlocks(rows int) int { return (rows + blockRows - 1) / blockRows }

// Header flags. A lookup binary-searches an ID column's block heads
// only when the seal saw the column nondecreasing; a restart inside the
// window, which re-issues IDs from 1, clears its flag.
const (
	outSorted byte = 1 << iota // exec OutID
	hopSorted                  // hop ID
)

// encodeSegment serializes a segment into its sealed columnar form:
//
//	header | dictionary | exec blocks | hop blocks | event cols
//	header = window | counts | flags | exec directory | hop directory | CRC-32
//
// Execs and hops are sealed in blocks of blockRows records, each block
// its own set of columns, the searched ID column first (exec OutID, hop
// ID). A directory holds one little-endian uint32 per block: the offset
// of its first byte. The CRC covers the header, so a read that trusts
// the directory to skip everything before a block reads offsets the
// seal wrote. Events, which no lookup searches, stay one set of columns.
//
// Columns are delta chains: uint64 IDs as zigzag varints against the
// previous value in the same column, float64 timestamps as uvarints of
// their bits XORed with the previous value's bits (adjacent virtual
// times share high bits, so the XOR is small), booleans as a packed
// bitset. Every block starts its chains from zero. Encoding is lossless
// — decodeSegment inverts it exactly.
//
// The encoding is built in the scratch, which every call empties first:
// the result is only good until the next call, and a caller that keeps it
// copies it (Store.seal). The zero sealScratch is ready to use.
func (sc *sealScratch) encodeSegment(seg *segment) []byte {
	// Number every string field once, in the order the dictionary lists
	// them: the exec rules, each hop's Src and Dst, each event's Op and
	// Name. The blocks below read the numbers from ids.
	d, ids := &sc.dict, slices.Grow(sc.ids[:0], len(seg.execs)+2*len(seg.hops)+2*len(seg.events))
	d.Reset()
	flags := outSorted | hopSorted
	for i := range seg.execs {
		ids = append(ids, d.ID(seg.execs[i].Rule))
		if i > 0 && seg.execs[i].OutID < seg.execs[i-1].OutID {
			flags &^= outSorted
		}
	}
	for i := range seg.hops {
		ids = append(ids, d.ID(seg.hops[i].Src), d.ID(seg.hops[i].Dst))
		if i > 0 && seg.hops[i].ID < seg.hops[i-1].ID {
			flags &^= hopSorted
		}
	}
	for i := range seg.events {
		ids = append(ids, d.ID(seg.events[i].Op), d.ID(seg.events[i].Name))
	}
	sc.ids = ids
	nx, nh, ne := len(seg.execs), len(seg.hops), len(seg.events)
	rules, hopStrs, evStrs := ids[:nx], ids[nx:nx+2*nh], ids[nx+2*nh:]

	b := binary.AppendVarint(sc.buf[:0], seg.window)
	b = binary.AppendUvarint(b, uint64(nx))
	b = binary.AppendUvarint(b, uint64(nh))
	b = binary.AppendUvarint(b, uint64(ne))
	b = append(b, flags)
	execDir := len(b)
	b = append(b, make([]byte, 4*numBlocks(nx))...)
	hopDir := len(b)
	b = append(b, make([]byte, 4*numBlocks(nh))...)
	crcAt := len(b)
	b = append(b, 0, 0, 0, 0)
	b = binary.AppendUvarint(b, uint64(len(d.strs)))
	for _, s := range d.strs {
		b = binary.AppendUvarint(b, uint64(len(s)))
		b = append(b, s...)
	}
	for k := 0; k*blockRows < nx; k++ {
		lo, hi := k*blockRows, min((k+1)*blockRows, nx)
		putOffset(b[execDir+4*k:], len(b))
		b = appendExecBlock(b, seg.execs[lo:hi], rules[lo:hi])
	}
	for k := 0; k*blockRows < nh; k++ {
		lo, hi := k*blockRows, min((k+1)*blockRows, nh)
		putOffset(b[hopDir+4*k:], len(b))
		b = appendHopBlock(b, seg.hops[lo:hi], hopStrs[2*lo:2*hi])
	}
	binary.LittleEndian.PutUint32(b[crcAt:], crc32.ChecksumIEEE(b[:crcAt]))

	// Event columns.
	for i := range seg.events {
		b = binary.AppendUvarint(b, uint64(evStrs[2*i]))
	}
	for i := range seg.events {
		b = binary.AppendUvarint(b, uint64(evStrs[2*i+1]))
	}
	var prev uint64
	for i := range seg.events {
		b = binary.AppendVarint(b, int64(seg.events[i].ID-prev))
		prev = seg.events[i].ID
	}
	var prevBits uint64
	for i := range seg.events {
		bits := math.Float64bits(seg.events[i].T)
		b = binary.AppendUvarint(b, bits^prevBits)
		prevBits = bits
	}
	sc.buf = b
	return b
}

// putOffset writes a directory entry. A window is sealed from records
// held in memory at ~50 bytes each, so its encoding reaching 4 GiB would
// mean a window of tens of gigabytes.
func putOffset(entry []byte, off int) {
	if uint64(off) > math.MaxUint32 {
		panic("tracestore: a sealed segment outgrew its uint32 block directory")
	}
	binary.LittleEndian.PutUint32(entry, uint32(off))
}

// appendExecBlock appends one block of exec columns: OutID, Rule, InID,
// InT, OutT, IsEvent. rules[i] numbers rows[i].Rule.
func appendExecBlock(b []byte, rows []Exec, rules []uint32) []byte {
	var prev uint64
	for i := range rows {
		b = binary.AppendVarint(b, int64(rows[i].OutID-prev))
		prev = rows[i].OutID
	}
	for _, r := range rules {
		b = binary.AppendUvarint(b, uint64(r))
	}
	prev = 0
	for i := range rows {
		b = binary.AppendVarint(b, int64(rows[i].InID-prev))
		prev = rows[i].InID
	}
	var prevBits uint64
	for i := range rows {
		bits := math.Float64bits(rows[i].InT)
		b = binary.AppendUvarint(b, bits^prevBits)
		prevBits = bits
	}
	// OutT is XORed against the same record's InT (an activation's end
	// is even closer to its own start than to the previous end).
	for i := range rows {
		b = binary.AppendUvarint(b, math.Float64bits(rows[i].OutT)^math.Float64bits(rows[i].InT))
	}
	return appendBitset(b, len(rows), func(i int) bool { return rows[i].IsEvent })
}

// appendHopBlock appends one block of hop columns: ID, Src, SrcID, Dst,
// T. strs[2i] and strs[2i+1] number rows[i].Src and rows[i].Dst.
func appendHopBlock(b []byte, rows []Hop, strs []uint32) []byte {
	var prev uint64
	for i := range rows {
		b = binary.AppendVarint(b, int64(rows[i].ID-prev))
		prev = rows[i].ID
	}
	for i := range rows {
		b = binary.AppendUvarint(b, uint64(strs[2*i]))
	}
	prev = 0
	for i := range rows {
		b = binary.AppendVarint(b, int64(rows[i].SrcID-prev))
		prev = rows[i].SrcID
	}
	for i := range rows {
		b = binary.AppendUvarint(b, uint64(strs[2*i+1]))
	}
	var prevBits uint64
	for i := range rows {
		bits := math.Float64bits(rows[i].T)
		b = binary.AppendUvarint(b, bits^prevBits)
		prevBits = bits
	}
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

// header is what an encoded segment says before its dictionary: the
// counts, the flags, and where every exec and hop block starts.
type header struct {
	window                 int64
	nExecs, nHops, nEvents int
	flags                  byte
	execDir, hopDir        int // offsets of the block directories
	dict                   int // offset of the dictionary, which the blocks follow
}

// parseHeader reads and checks an encoding's header; the directories
// are only located, their entries are read by block.
func parseHeader(b []byte) (header, error) {
	r := &reader{b: b}
	var h header
	var err error
	if h.window, err = r.varint(); err != nil {
		return h, err
	}
	if h.nExecs, err = r.count(); err != nil {
		return h, err
	}
	if h.nHops, err = r.count(); err != nil {
		return h, err
	}
	if h.nEvents, err = r.count(); err != nil {
		return h, err
	}
	flags, err := r.bytes(1)
	if err != nil {
		return h, err
	}
	h.flags = flags[0]
	h.execDir = r.off
	if _, err := r.bytes(4 * numBlocks(h.nExecs)); err != nil {
		return h, err
	}
	h.hopDir = r.off
	if _, err := r.bytes(4 * numBlocks(h.nHops)); err != nil {
		return h, err
	}
	sum, err := r.bytes(4)
	if err != nil {
		return h, err
	}
	if want := crc32.ChecksumIEEE(b[:r.off-4]); binary.LittleEndian.Uint32(sum) != want {
		return h, fmt.Errorf("tracestore: header checksum %08x, want %08x", binary.LittleEndian.Uint32(sum), want)
	}
	h.dict = r.off
	return h, nil
}

// block returns the offset of block k of the column whose directory
// starts at dir; parseHeader has checked that the entry is inside b.
func (h *header) block(b []byte, dir, k int) (int, error) {
	off := int(binary.LittleEndian.Uint32(b[dir+4*k:]))
	if off < h.dict || off >= len(b) {
		return 0, fmt.Errorf("tracestore: block %d at offset %d, outside [%d, %d)", k, off, h.dict, len(b))
	}
	return off, nil
}

func (r *reader) dictionary() ([]string, error) {
	n, err := r.count()
	if err != nil {
		return nil, err
	}
	strs := make([]string, n)
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
	return strs, nil
}

func (r *reader) str(strs []string) (string, error) {
	idx, err := r.uvarint()
	if err != nil {
		return "", err
	}
	if idx >= uint64(len(strs)) {
		return "", fmt.Errorf("tracestore: dictionary index %d out of range (%d strings)", idx, len(strs))
	}
	return strs[idx], nil
}

// ids decodes a block's ID column, its first, into ids.
func (r *reader) ids(ids []uint64) error {
	var prev uint64
	for i := range ids {
		d, err := r.varint()
		if err != nil {
			return err
		}
		prev += uint64(d)
		ids[i] = prev
	}
	return nil
}

// execRows decodes the columns of an exec block that follow its OutIDs
// (already decoded into ids) into rows.
func (r *reader) execRows(rows []Exec, ids []uint64, strs []string) error {
	var err error
	for i := range rows {
		rows[i].OutID = ids[i]
		if rows[i].Rule, err = r.str(strs); err != nil {
			return err
		}
	}
	var prev uint64
	for i := range rows {
		d, err := r.varint()
		if err != nil {
			return err
		}
		prev += uint64(d)
		rows[i].InID = prev
	}
	var prevBits uint64
	for i := range rows {
		x, err := r.uvarint()
		if err != nil {
			return err
		}
		prevBits ^= x
		rows[i].InT = math.Float64frombits(prevBits)
	}
	for i := range rows {
		x, err := r.uvarint()
		if err != nil {
			return err
		}
		rows[i].OutT = math.Float64frombits(math.Float64bits(rows[i].InT) ^ x)
	}
	bits, err := r.bytes((len(rows) + 7) / 8)
	if err != nil {
		return err
	}
	for i := range rows {
		rows[i].IsEvent = bits[i/8]&(1<<(i%8)) != 0
	}
	return nil
}

// hopRows decodes the columns of a hop block that follow its IDs
// (already decoded into ids) into rows.
func (r *reader) hopRows(rows []Hop, ids []uint64, strs []string) error {
	var err error
	for i := range rows {
		rows[i].ID = ids[i]
		if rows[i].Src, err = r.str(strs); err != nil {
			return err
		}
	}
	var prev uint64
	for i := range rows {
		d, err := r.varint()
		if err != nil {
			return err
		}
		prev += uint64(d)
		rows[i].SrcID = prev
	}
	for i := range rows {
		if rows[i].Dst, err = r.str(strs); err != nil {
			return err
		}
	}
	var prevBits uint64
	for i := range rows {
		x, err := r.uvarint()
		if err != nil {
			return err
		}
		prevBits ^= x
		rows[i].T = math.Float64frombits(prevBits)
	}
	return nil
}

// decodeSegment inverts encodeSegment. For every well-formed input
// decode(encode(seg)) is deep-equal to seg; malformed input returns an
// error, and so does a directory entry that is not where its block is.
func decodeSegment(b []byte) (*segment, error) {
	h, err := parseHeader(b)
	if err != nil {
		return nil, err
	}
	r := &reader{b: b, off: h.dict}
	strs, err := r.dictionary()
	if err != nil {
		return nil, err
	}
	seg := &segment{window: h.window}
	if h.nExecs > 0 {
		seg.execs = make([]Exec, h.nExecs)
	}
	if h.nHops > 0 {
		seg.hops = make([]Hop, h.nHops)
	}
	if h.nEvents > 0 {
		seg.events = make([]Event, h.nEvents)
	}
	// at checks that block k of a directory starts where the last block
	// ended.
	at := func(dir, k int) error {
		off, err := h.block(b, dir, k)
		if err == nil && off != r.off {
			err = fmt.Errorf("tracestore: directory puts block %d at offset %d, it starts at %d", k, off, r.off)
		}
		return err
	}
	var ids [blockRows]uint64
	for k := 0; k*blockRows < h.nExecs; k++ {
		rows := seg.execs[k*blockRows : min((k+1)*blockRows, h.nExecs)]
		if err := at(h.execDir, k); err != nil {
			return nil, err
		}
		if err := r.ids(ids[:len(rows)]); err != nil {
			return nil, err
		}
		if err := r.execRows(rows, ids[:len(rows)], strs); err != nil {
			return nil, err
		}
	}
	for k := 0; k*blockRows < h.nHops; k++ {
		rows := seg.hops[k*blockRows : min((k+1)*blockRows, h.nHops)]
		if err := at(h.hopDir, k); err != nil {
			return nil, err
		}
		if err := r.ids(ids[:len(rows)]); err != nil {
			return nil, err
		}
		if err := r.hopRows(rows, ids[:len(rows)], strs); err != nil {
			return nil, err
		}
	}

	// Event columns.
	for i := range seg.events {
		if seg.events[i].Op, err = r.str(strs); err != nil {
			return nil, err
		}
	}
	for i := range seg.events {
		if seg.events[i].Name, err = r.str(strs); err != nil {
			return nil, err
		}
	}
	var prev uint64
	for i := range seg.events {
		d, err := r.varint()
		if err != nil {
			return nil, err
		}
		prev += uint64(d)
		seg.events[i].ID = prev
	}
	var prevBits uint64
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
