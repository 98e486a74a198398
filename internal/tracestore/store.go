package tracestore

import "math"

// Config tunes one node's trace store. Callers pass a *Config, and a
// nil one is the kill switch: threading it through engine/simnet/chord
// configs is free until someone opts in.
type Config struct {
	// WindowSeconds is the virtual-time width of one segment window
	// (default 60). The active segment is sealed when an append's
	// timestamp crosses into a later window.
	WindowSeconds float64
	// MaxSegments bounds how many sealed segments are retained
	// (default 360 — six hours of one-minute windows). Oldest evicted
	// first.
	MaxSegments int
	// MaxBytes bounds the total encoded bytes of sealed segments
	// (default 8 MiB per node). Oldest evicted first.
	MaxBytes int64
}

// DefaultConfig returns the default budget: one-minute windows retained
// for six hours within 8 MiB.
func DefaultConfig() Config {
	return Config{WindowSeconds: 60, MaxSegments: 360, MaxBytes: 8 << 20}
}

func (c Config) withDefaults() Config {
	if c.WindowSeconds <= 0 {
		c.WindowSeconds = 60
	}
	if c.MaxSegments <= 0 {
		c.MaxSegments = 360
	}
	if c.MaxBytes <= 0 {
		c.MaxBytes = 8 << 20
	}
	return c
}

// Stats counts a store's lifetime activity. Bytes/record ratios come
// from TotalEncodedBytes / SealedRecords.
type Stats struct {
	// Execs/Hops/Events count records ever appended.
	Execs, Hops, Events int64
	// Sealed counts segments ever sealed; Evicted how many of those the
	// retention budget has since dropped.
	Sealed, Evicted int64
	// SealedRecords counts records ever encoded into sealed segments.
	SealedRecords int64
	// EncodedBytes is the currently retained sealed payload;
	// TotalEncodedBytes the lifetime total.
	EncodedBytes, TotalEncodedBytes int64
}

// Appended returns the total records ever appended.
func (s Stats) Appended() int64 { return s.Execs + s.Hops + s.Events }

// BytesPerRecord is the lifetime encoded-size ratio, 0 before the
// first seal.
func (s Stats) BytesPerRecord() float64 {
	if s.SealedRecords == 0 {
		return 0
	}
	return float64(s.TotalEncodedBytes) / float64(s.SealedRecords)
}

// idRange is a closed interval of tuple IDs. Ranges start from
// emptyRange, which contains nothing.
type idRange struct{ min, max uint64 }

var emptyRange = idRange{min: math.MaxUint64}

func (r *idRange) add(id uint64) {
	r.min = min(r.min, id)
	r.max = max(r.max, id)
}

func (r idRange) has(id uint64) bool { return r.min <= id && id <= r.max }

// segMeta is what a view needs to know about a segment to decide,
// without decoding it, whether it can hold a record: the ID ranges of
// the three columns lineage walks search, and the span of record times.
// A node assigns tuple IDs from one counter that a restart does not
// reset, so the out and hop ranges of a node's segments are
// near-disjoint and a lookup decodes one or two segments, not the
// horizon.
type segMeta struct {
	out, in, hop idRange // exec OutID, exec InID, hop ID
	tmin, tmax   float64 // exec OutT, hop T, event T
}

var emptyMeta = segMeta{out: emptyRange, in: emptyRange, hop: emptyRange, tmin: math.Inf(1), tmax: math.Inf(-1)}

func (m *segMeta) addT(t float64) { m.tmin, m.tmax = min(m.tmin, t), max(m.tmax, t) }

// outside reports whether no record can fall inside [since, until].
func (m *segMeta) outside(since, until float64) bool {
	return m.tmax < since || m.tmin > until
}

// Sealed is one encoded, immutable segment.
type Sealed struct {
	// Window is the segment's window index: it covers virtual times
	// [Window*W, (Window+1)*W) for window width W.
	Window int64
	// Execs/Hops/Events are the record counts inside.
	Execs, Hops, Events int
	meta                segMeta
	data                []byte
}

// Bytes returns the encoded size.
func (s *Sealed) Bytes() int { return len(s.data) }

// SegmentInfo describes one segment for inspection (Segments).
type SegmentInfo struct {
	Window              int64
	Execs, Hops, Events int
	Bytes               int
	SealedSeg           bool
}

// Store is one node's append-only trace log. Like the engine node that
// owns it, it is single-threaded: the node's executor is the only
// writer, and queries run while the node is quiescent (a View decodes
// sealed segments without mutating the store).
type Store struct {
	local  string
	cfg    Config
	active *segment
	// meta is the active segment's, kept current by every append: a View
	// and the seal read it without a pass over the segment.
	meta   segMeta
	sealed []*Sealed
	stats  Stats
	enc    sealScratch
}

// New creates a store for a node. The config's zero bounds are
// defaulted; whether to have a store is the caller's concern (an engine
// only calls New when its Config.TraceStore is set).
func New(local string, cfg Config) *Store {
	return &Store{local: local, cfg: cfg.withDefaults()}
}

// Local returns the owning node's address.
func (st *Store) Local() string { return st.local }

// Stats returns a snapshot of the lifetime counters.
func (st *Store) Stats() Stats { return st.stats }

// WindowSeconds returns the configured window width.
func (st *Store) WindowSeconds() float64 { return st.cfg.WindowSeconds }

func (st *Store) windowOf(t float64) int64 {
	return int64(math.Floor(t / st.cfg.WindowSeconds))
}

// rotate seals the active segment if t falls in a later window and
// returns the number of records encoded by that seal (0 when no seal
// happened) — the caller's hook for metering seal cost. A t before the
// active window (the driver's clock never regresses, but the store does
// not rely on it) lands in the active segment.
func (st *Store) rotate(t float64) int {
	w := st.windowOf(t)
	if st.active == nil {
		st.active, st.meta = &segment{window: w}, emptyMeta
		return 0
	}
	if w <= st.active.window {
		return 0
	}
	// Traffic changes little from one window to the next: start the new
	// window's columns at the size the last ones reached instead of
	// regrowing them by doubling. New arrays, not the old ones emptied:
	// an open View may still read the sealed window's (refs).
	prev := st.active
	n := st.seal()
	st.active = &segment{
		window: w,
		execs:  make([]Exec, 0, len(prev.execs)),
		hops:   make([]Hop, 0, len(prev.hops)),
		events: make([]Event, 0, len(prev.events)),
	}
	st.meta = emptyMeta
	return n
}

// seal encodes the active segment and applies the retention budget.
// O(active segment): history is never touched beyond dropping whole
// segments from the head of the sealed list.
func (st *Store) seal() int {
	seg := st.active
	if seg == nil || seg.records() == 0 {
		return 0
	}
	// The scratch is the next seal's too: the segment keeps an exact-size
	// copy, with none of the slack append left behind it.
	enc := st.enc.encodeSegment(seg)
	data := make([]byte, len(enc))
	copy(data, enc)
	st.sealed = append(st.sealed, &Sealed{
		Window: seg.window,
		Execs:  len(seg.execs), Hops: len(seg.hops), Events: len(seg.events),
		meta: st.meta, data: data,
	})
	st.stats.Sealed++
	st.stats.SealedRecords += int64(seg.records())
	st.stats.EncodedBytes += int64(len(data))
	st.stats.TotalEncodedBytes += int64(len(data))
	for len(st.sealed) > 1 &&
		(len(st.sealed) > st.cfg.MaxSegments || st.stats.EncodedBytes > st.cfg.MaxBytes) {
		st.stats.EncodedBytes -= int64(len(st.sealed[0].data))
		st.stats.Evicted++
		st.sealed[0] = nil // or the backing array keeps the evicted bytes alive
		st.sealed = st.sealed[1:]
	}
	return seg.records()
}

// AppendExec appends one rule-execution edge, keyed by its emission
// time. Returns the records sealed by a window rotation this append
// triggered (0 normally), so the caller can meter the amortized seal
// cost.
func (st *Store) AppendExec(e Exec) int {
	st.stats.Execs++
	n := st.rotate(e.OutT)
	st.active.execs = append(st.active.execs, e)
	st.meta.out.add(e.OutID)
	st.meta.in.add(e.InID)
	st.meta.addT(e.OutT)
	return n
}

// AppendHop appends one cross-node provenance edge.
func (st *Store) AppendHop(h Hop) int {
	st.stats.Hops++
	n := st.rotate(h.T)
	st.active.hops = append(st.active.hops, h)
	st.meta.hop.add(h.ID)
	st.meta.addT(h.T)
	return n
}

// AppendEvent appends one system event.
func (st *Store) AppendEvent(ev Event) int {
	st.stats.Events++
	n := st.rotate(ev.T)
	st.active.events = append(st.active.events, ev)
	st.meta.addT(ev.T)
	return n
}

// Segments lists the retained segments oldest-first, the active
// segment last. Inspection only — the bench and tests use it.
func (st *Store) Segments() []SegmentInfo {
	out := make([]SegmentInfo, 0, len(st.sealed)+1)
	for _, s := range st.sealed {
		out = append(out, SegmentInfo{
			Window: s.Window, Execs: s.Execs, Hops: s.Hops, Events: s.Events,
			Bytes: len(s.data), SealedSeg: true,
		})
	}
	if st.active != nil && st.active.records() > 0 {
		out = append(out, SegmentInfo{
			Window: st.active.window,
			Execs:  len(st.active.execs), Hops: len(st.active.hops), Events: len(st.active.events),
		})
	}
	return out
}

// segRef is a view's handle on one retained segment: its pruning
// metadata up front, then either single blocks, read by lookups on a
// nondecreasing ID column, or the whole segment, decoded for a scan or
// any other lookup, with one lookup index per searched ID column built
// on first search.
type segRef struct {
	segMeta
	data               []byte   // sealed encoding; nil for the active segment
	blk                *blocks  // nil until a lookup reads a block
	seg                *segment // nil until a scan or a lookup needs every record
	outIx, inIx, hopIx idIndex
}

// refs returns handles on the segments that can hold a record inside
// [since, until], oldest first, none of them decoded. Sealed data is
// immutable; the active segment is a shallow copy, which pins the slice
// headers so later appends to the store do not invalidate an open View.
func (st *Store) refs(since, until float64) []segRef {
	// Segments are sealed in time order, so the ones before the horizon
	// are a prefix; skipping it sizes the list to the horizon, not to
	// retention.
	old := 0
	for old < len(st.sealed) && st.sealed[old].meta.outside(since, until) {
		old++
	}
	out := make([]segRef, 0, len(st.sealed)-old+1)
	for _, s := range st.sealed[old:] {
		if !s.meta.outside(since, until) {
			out = append(out, segRef{segMeta: s.meta, data: s.data})
		}
	}
	if st.active != nil && st.active.records() > 0 {
		if !st.meta.outside(since, until) {
			cp := *st.active
			out = append(out, segRef{segMeta: st.meta, seg: &cp})
		}
	}
	return out
}
