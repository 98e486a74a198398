package tracestore

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"testing"
)

func exec(rule string, in, out uint64, inT, outT float64, ev bool) Exec {
	return Exec{Rule: rule, InID: in, OutID: out, InT: inT, OutT: outT, IsEvent: ev}
}

// TestRotationOnWindowBoundary pins the rotation contract: appends
// strictly inside a window stay in the active segment; the first append
// at or past the boundary seals it.
func TestRotationOnWindowBoundary(t *testing.T) {
	st := New("n1", Config{WindowSeconds: 60})
	st.AppendExec(exec("r1", 1, 2, 0.5, 1.0, true))
	if n := st.AppendExec(exec("r1", 2, 3, 59.0, 59.999999, true)); n != 0 {
		t.Fatalf("append inside window sealed %d records, want 0", n)
	}
	if got := len(st.Segments()); got != 1 {
		t.Fatalf("segments before boundary = %d, want 1 (active only)", got)
	}
	// Exactly on the boundary: window floor(60/60)=1, so the active
	// window-0 segment seals.
	if n := st.AppendExec(exec("r1", 3, 4, 59.5, 60.0, true)); n != 2 {
		t.Fatalf("boundary append sealed %d records, want 2", n)
	}
	segs := st.Segments()
	if len(segs) != 2 || !segs[0].SealedSeg || segs[0].Window != 0 || segs[1].SealedSeg || segs[1].Window != 1 {
		t.Fatalf("segments after boundary = %+v", segs)
	}
	if st.Stats().Sealed != 1 || st.Stats().SealedRecords != 2 {
		t.Fatalf("stats after seal = %+v", st.Stats())
	}
}

// TestRotationSizesNextWindow: a new window's columns start at the size
// the last window's reached, so steady traffic appends without regrowing
// them — in arrays of their own: a View opened on the old window while it
// was active still reads the old ones.
func TestRotationSizesNextWindow(t *testing.T) {
	st := New("n1", Config{WindowSeconds: 60})
	for i := 0; i < 100; i++ {
		st.AppendExec(exec("r1", uint64(i), uint64(i+1), 1, 2, true))
		st.AppendEvent(Event{Op: "insert", Name: "succ", ID: uint64(i), T: 2})
	}
	v := NewView(map[string]*Store{"n1": st}, 0)
	before, err := v.Execs(ExecFilter{Node: "n1"})
	if err != nil || len(before) != 100 {
		t.Fatalf("view of the active window: %d edges, %v", len(before), err)
	}
	old := &st.active.execs[0]
	st.AppendHop(Hop{ID: 7, Src: "n2", SrcID: 3, Dst: "n1", T: 61}) // rotates
	a := st.active
	if cap(a.execs) != 100 || cap(a.events) != 100 || cap(a.hops) != 1 || len(a.execs) != 0 {
		t.Fatalf("fresh window: cap execs/events/hops = %d/%d/%d, len execs %d; want 100/100/1 (the hop just added), 0",
			cap(a.execs), cap(a.events), cap(a.hops), len(a.execs))
	}
	for i := 0; i < 100; i++ {
		st.AppendExec(exec("r2", 1, 2, 61, 62, false))
	}
	if cap(a.execs) != 100 {
		t.Errorf("refilling the window to last window's size regrew the column to %d", cap(a.execs))
	}
	if &a.execs[0] == old {
		t.Fatal("the new window reuses the sealed window's array")
	}
	after, err := v.Execs(ExecFilter{Node: "n1"})
	if err != nil || !reflect.DeepEqual(before, after) {
		t.Fatalf("open view changed under rotation: %d edges then %d, %v", len(before), len(after), err)
	}
}

// TestRotationSkipsEmptyWindows: a long quiet gap produces no empty
// sealed segments.
func TestRotationSkipsEmptyWindows(t *testing.T) {
	st := New("n1", Config{WindowSeconds: 10})
	st.AppendEvent(Event{Op: "arrive", Name: "a", ID: 1, T: 5})
	st.AppendEvent(Event{Op: "arrive", Name: "b", ID: 2, T: 995}) // 98 windows later
	segs := st.Segments()
	if len(segs) != 2 {
		t.Fatalf("segments = %+v, want sealed window 0 + active window 99", segs)
	}
	if segs[0].Window != 0 || segs[1].Window != 99 {
		t.Fatalf("windows = %d, %d; want 0, 99", segs[0].Window, segs[1].Window)
	}
}

// TestRetentionEvictionOrder: the budget drops whole segments oldest
// first, and the stats ledger stays consistent.
func TestRetentionEvictionOrder(t *testing.T) {
	st := New("n1", Config{WindowSeconds: 10, MaxSegments: 2})
	for w := 0; w < 5; w++ {
		st.AppendExec(exec("r1", uint64(w), uint64(w+100), float64(w*10), float64(w*10)+1, true))
	}
	// Windows 0..3 sealed (4 seals), retention keeps the newest 2.
	segs := st.Segments()
	if len(segs) != 3 {
		t.Fatalf("segments = %+v, want 2 sealed + active", segs)
	}
	if segs[0].Window != 2 || segs[1].Window != 3 || segs[2].Window != 4 {
		t.Fatalf("retained windows = %d,%d,%d; want 2,3,4 (oldest evicted first)", segs[0].Window, segs[1].Window, segs[2].Window)
	}
	s := st.Stats()
	if s.Sealed != 4 || s.Evicted != 2 {
		t.Fatalf("stats = %+v, want 4 sealed, 2 evicted", s)
	}
	var retained int64
	for _, seg := range st.sealed {
		retained += int64(len(seg.data))
	}
	if s.EncodedBytes != retained {
		t.Fatalf("EncodedBytes ledger %d != actual retained %d", s.EncodedBytes, retained)
	}
	if s.TotalEncodedBytes <= s.EncodedBytes {
		t.Fatalf("TotalEncodedBytes %d should exceed retained %d after evictions", s.TotalEncodedBytes, s.EncodedBytes)
	}
}

// TestRetentionByBytes: the byte budget evicts too, but never the
// newest sealed segment (the store always retains at least one).
func TestRetentionByBytes(t *testing.T) {
	st := New("n1", Config{WindowSeconds: 1, MaxBytes: 1})
	for w := 0; w < 4; w++ {
		st.AppendExec(exec("rule-with-a-long-name", uint64(w), uint64(w+100), float64(w), float64(w)+0.5, true))
	}
	segs := st.Segments()
	// Every seal exceeds 1 byte, so only the newest sealed segment and
	// the active one survive.
	if len(segs) != 2 || segs[0].Window != 2 || !segs[0].SealedSeg {
		t.Fatalf("segments = %+v, want newest sealed (window 2) + active", segs)
	}
}

// TestSealRoundTrip: what was appended is what a View reads back, in
// order, across several sealed windows plus the active segment.
func TestSealRoundTrip(t *testing.T) {
	st := New("n1", Config{WindowSeconds: 10})
	var want []Exec
	for i := 0; i < 35; i++ {
		e := exec("r1", uint64(i), uint64(i+1000), float64(i), float64(i)+0.25, i%2 == 0)
		want = append(want, e)
		st.AppendExec(e)
	}
	v := NewView(map[string]*Store{"n1": st}, 0)
	got, err := v.Execs(ExecFilter{Node: "n1"})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("execs = %d, want %d", len(got), len(want))
	}
	for i, e := range got {
		w := Edge{Node: "n1", Rule: want[i].Rule, InID: want[i].InID, OutID: want[i].OutID,
			InT: want[i].InT, OutT: want[i].OutT, IsEvent: want[i].IsEvent}
		if e != w {
			t.Fatalf("exec[%d] = %+v, want %+v", i, e, w)
		}
	}
}

// TestViewHorizonSkipsOldWindows: a since-horizon view does not decode
// windows that ended before the horizon.
func TestViewHorizonSkipsOldWindows(t *testing.T) {
	st := New("n1", Config{WindowSeconds: 10})
	for i := 0; i < 50; i++ {
		st.AppendEvent(Event{Op: "arrive", Name: "x", ID: uint64(i + 1), T: float64(i)})
	}
	v := NewView(map[string]*Store{"n1": st}, 35)
	evs, err := v.Events(EventFilter{Node: "n1"})
	if err != nil {
		t.Fatal(err)
	}
	for _, ev := range evs {
		if ev.T < 35 {
			t.Fatalf("event %+v leaked past the since=35 horizon", ev)
		}
	}
	if len(evs) != 15 {
		t.Fatalf("events past horizon = %d, want 15", len(evs))
	}
}

// TestEncodedCompactness: the whole point of delta/columnar encoding —
// a realistic segment (one rule name, clustered IDs and times) must
// encode far below the naive 41+ bytes/record of the raw struct.
func TestEncodedCompactness(t *testing.T) {
	st := New("n1", Config{WindowSeconds: 100})
	for i := 0; i < 1000; i++ {
		tm := float64(i) * 0.05
		st.AppendExec(exec("lookupRule", uint64(2*i+1), uint64(2*i+2), tm, tm+0.001, true))
	}
	st.AppendExec(exec("x", 9999, 10000, 200, 200.1, true)) // force seal
	s := st.Stats()
	if s.Sealed != 1 {
		t.Fatalf("sealed = %d, want 1", s.Sealed)
	}
	bpr := s.BytesPerRecord()
	if bpr <= 0 || bpr > 24 {
		t.Fatalf("bytes/record = %.1f, want (0, 24]", bpr)
	}
}

// TestDecodeRejectsCorruptInput: decode must fail cleanly, never
// panic, on malformed bytes.
func TestDecodeRejectsCorruptInput(t *testing.T) {
	seg := &segment{window: 3,
		execs:  []Exec{exec("r", 1, 2, 1, 2, true)},
		hops:   []Hop{{ID: 2, Src: "n2", SrcID: 9, Dst: "n1", T: 1.5}},
		events: []Event{{Op: "arrive", Name: "t", ID: 2, T: 1.5}},
	}
	good := new(sealScratch).encodeSegment(seg)
	if _, err := decodeSegment(good); err != nil {
		t.Fatalf("round trip failed: %v", err)
	}
	for cut := 0; cut < len(good); cut++ {
		if _, err := decodeSegment(good[:cut]); err == nil {
			// A truncation that still parses must at least not panic;
			// most prefixes must error.
			if cut < len(good)-1 {
				t.Fatalf("truncation to %d bytes decoded without error", cut)
			}
		}
	}
	if _, err := decodeSegment([]byte{0x00, 0xff, 0xff, 0xff, 0xff, 0x7f}); err == nil {
		t.Fatal("implausible record count decoded without error")
	}
	// A record count the input is too short to hold is refused before it
	// sizes an array (2^27 execs would be 6 GB): the fuzzer feeds decode
	// arbitrary bytes.
	huge := binary.AppendUvarint([]byte{0x00}, 1<<27) // window 0, 2^27 execs
	huge = append(huge, 0x00, 0x00, 0x00)             // no hops, no events, no flags
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := decodeSegment(huge)
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("a 2^27-record header over 8 bytes decoded without error")
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > 1<<20 {
		t.Fatalf("decoding an 8-byte corrupt header allocated %d bytes", got)
	}
}

// TestTimestampLossless: XOR-delta float encoding is bit-exact,
// including awkward values.
func TestTimestampLossless(t *testing.T) {
	times := []float64{0, 1e-9, 123.456789, math.Pi * 1e6, 0.1 + 0.2}
	seg := &segment{window: 0}
	for i, tm := range times {
		seg.events = append(seg.events, Event{Op: "arrive", Name: "x", ID: uint64(i + 1), T: tm})
	}
	dec, err := decodeSegment(new(sealScratch).encodeSegment(seg))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(seg.events, dec.events) {
		t.Fatalf("events round trip:\n got %+v\nwant %+v", dec.events, seg.events)
	}
}

// TestSealScratchIsClean: a store seals every segment through one
// dictionary and one buffer. Two different segments sealed back to back
// must each be, byte for byte, what a fresh encoder makes of the same
// records — the second has fewer strings and fewer bytes than the first,
// so a dictionary entry or a buffer tail left over would show — and own
// exactly their bytes. A View opened before a rotation keeps reading the
// window it pinned.
func TestSealScratchIsClean(t *testing.T) {
	st := New("n1", Config{WindowSeconds: 10})
	windows := []*segment{{window: 0}, {window: 1}, {window: 2}}
	for i := 0; i < 40; i++ { // many strings, all three kinds
		tm := float64(i) * 0.2
		windows[0].execs = append(windows[0].execs, exec(fmt.Sprint("rule", i%13), uint64(i), uint64(i+100), tm, tm+0.01, i%3 == 0))
		windows[0].hops = append(windows[0].hops, Hop{ID: uint64(i + 100), Src: fmt.Sprint("n", 2+i%5), SrcID: uint64(7 * i), Dst: "n1", T: tm})
		windows[0].events = append(windows[0].events, Event{Op: "insert", Name: fmt.Sprint("tbl", i%7), ID: uint64(i), T: tm})
	}
	for i := 0; i < 5; i++ { // few, and strings the first never had
		tm := 10 + float64(i)
		windows[1].execs = append(windows[1].execs, exec("other", uint64(i+500), uint64(i+600), tm, tm, true))
		windows[1].events = append(windows[1].events, Event{Op: "delete", Name: "tbl3", ID: uint64(i + 500), T: tm})
	}
	windows[2].execs = []Exec{exec("rule0", 900, 901, 20, 20.5, false)}

	var pinned *View
	for _, w := range windows {
		if w.window == 1 {
			// Opened, and n1 read (which is what pins), with window 0
			// active and whole, before anything seals.
			pinned = NewView(map[string]*Store{"n1": st}, 0)
			if evs, err := pinned.Events(EventFilter{Node: "n1"}); err != nil || len(evs) != len(windows[0].events) {
				t.Fatalf("view of the active window reads %d events (%v), want %d", len(evs), err, len(windows[0].events))
			}
		}
		// A node's appends are in time order across the three kinds.
		for i := range max(len(w.execs), len(w.hops), len(w.events)) {
			if i < len(w.execs) {
				st.AppendExec(w.execs[i])
			}
			if i < len(w.hops) {
				st.AppendHop(w.hops[i])
			}
			if i < len(w.events) {
				st.AppendEvent(w.events[i])
			}
		}
	}
	if len(st.sealed) != 2 {
		t.Fatalf("sealed segments = %d, want 2", len(st.sealed))
	}
	for i, s := range st.sealed {
		want := new(sealScratch).encodeSegment(windows[i])
		if !bytes.Equal(s.data, want) {
			t.Errorf("sealed window %d is not a fresh encoding of its records:\n got %x\nwant %x", i, s.data, want)
		}
		if cap(s.data) != len(s.data) {
			t.Errorf("sealed window %d keeps %d bytes for %d of encoding", i, cap(s.data), len(s.data))
		}
		dec, err := decodeSegment(s.data)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(dec, windows[i]) {
			t.Errorf("sealed window %d decodes to\n %+v\nwant\n %+v", i, dec, windows[i])
		}
	}
	if len(st.sealed[1].data) >= len(st.sealed[0].data) {
		t.Fatalf("the second segment (%d B) must be smaller than the first (%d B) for a stale tail to show",
			len(st.sealed[1].data), len(st.sealed[0].data))
	}
	// The pinned view has what window 0 held and nothing appended since,
	// though its arrays' window has been sealed and the scratch reused twice.
	got, err := pinned.Execs(ExecFilter{Node: "n1"})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(windows[0].execs) {
		t.Fatalf("pinned view reads %d execs, want window 0's %d", len(got), len(windows[0].execs))
	}
	for i, e := range got {
		if w := windows[0].execs[i].edge("n1", 0); e != w {
			t.Fatalf("pinned view exec[%d] = %+v, want %+v", i, e, w)
		}
	}
}

// metaOf computes a segment's metadata in one pass over it, as the seal
// did before appends kept the active segment's current.
func metaOf(s *segment) segMeta {
	m := emptyMeta
	for _, e := range s.execs {
		m.out.add(e.OutID)
		m.in.add(e.InID)
		m.addT(e.OutT)
	}
	for _, h := range s.hops {
		m.hop.add(h.ID)
		m.addT(h.T)
	}
	for _, e := range s.events {
		m.addT(e.T)
	}
	return m
}

// TestAppendsKeepMetaCurrent: the metadata the appends keep for the
// active segment, and hand its sealed form, is what a pass over the
// segment computes, over records in no order of ID or time, and across
// rotations.
func TestAppendsKeepMetaCurrent(t *testing.T) {
	st := New("n1", Config{WindowSeconds: 10, MaxSegments: 1 << 10})
	x := uint64(12345)
	next := func(n uint64) uint64 { x = x*6364136223846793005 + 1442695040888963407; return x >> 33 % n }
	check := func(i int) {
		t.Helper()
		if got, want := st.meta, metaOf(st.active); got != want {
			t.Fatalf("after %d appends: active meta %+v, a pass over the segment %+v", i, got, want)
		}
	}
	for i := 0; i < 3000; i++ {
		tm := float64(i/100*10) + float64(next(1000))/100 // mostly inside the window, sometimes before it
		switch next(3) {
		case 0:
			st.AppendExec(exec("r", next(1<<20), next(1<<20), tm-1, tm, i%2 == 0))
		case 1:
			st.AppendHop(Hop{ID: next(1 << 20), Src: "n2", SrcID: next(99), Dst: "n1", T: tm})
		default:
			st.AppendEvent(Event{Op: "insert", Name: "succ", ID: next(1 << 20), T: tm})
		}
		check(i)
	}
	if len(st.sealed) < 20 {
		t.Fatalf("%d sealed segments, want the run to rotate through 30 windows", len(st.sealed))
	}
	for k, s := range st.sealed {
		seg, err := decodeSegment(s.data)
		if err != nil {
			t.Fatal(err)
		}
		if want := metaOf(seg); s.meta != want {
			t.Errorf("sealed segment %d: meta %+v, a pass over it %+v", k, s.meta, want)
		}
	}
}

// BenchmarkSeal is one steady-state seal, in ns and allocs per record: a
// window of 500 execs, 120 hops and 260 events, about the records a
// traced Chord node appends in one minute, with a rule, address and name
// variety like its (40 rule IDs, 21 addresses, 16 predicate names, 3
// ops), encoded and kept by a store that retains four segments. As on
// the tracer's write path, every record holds a string of a few shared
// ones.
func BenchmarkSeal(b *testing.B) {
	pool := func(prefix string, n int) []string {
		s := make([]string, n)
		for i := range s {
			s[i] = fmt.Sprint(prefix, i)
		}
		return s
	}
	rules, addrs, names, ops := pool("rule", 40), pool("10.0.0.", 21), pool("pred", 16), []string{"arrive", "insert", "delete"}
	seg := &segment{}
	for i := 0; i < 500; i++ {
		id, tm := uint64(1000+2*i), float64(i)*0.1
		seg.execs = append(seg.execs, exec(rules[i*7%len(rules)], id-uint64(i%5), id, tm-0.01, tm, i%3 == 0))
	}
	for i := 0; i < 120; i++ {
		seg.hops = append(seg.hops, Hop{ID: uint64(1000 + 8*i), Src: addrs[i%len(addrs)], SrcID: uint64(5000 + 3*i), Dst: addrs[0], T: float64(i) * 0.4})
	}
	for i := 0; i < 260; i++ {
		seg.events = append(seg.events, Event{Op: ops[i%3], Name: names[i%len(names)], ID: uint64(1000 + 4*i), T: float64(i) * 0.2})
	}
	st := New("n1", Config{WindowSeconds: 60, MaxSegments: 4})
	meta := metaOf(seg)
	seal := func() {
		st.active, st.meta = seg, meta
		st.seal()
	}
	seal() // the scratch grows
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		seal()
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	records := float64(b.N * seg.records())
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/records, "ns/record")
	b.ReportMetric(float64(after.Mallocs-before.Mallocs)/records, "allocs/record")
}

// TestDictNumbersByContent: a Dict numbers strings by their bytes in
// first-appearance order, whichever pointer they come through and
// whatever its cache holds: copies of one string, prefixes sharing its
// first byte (a long string's 300 prefixes fill both ways of every set
// with one pointer), the empty string, and more strings than the cache
// has entries, looked up in an order that evicts and refills its sets.
func TestDictNumbersByContent(t *testing.T) {
	base := make([]string, 400)
	for i := range base {
		base[i] = fmt.Sprintf("name-%03d-%s", i, "xyz"[:i%4])
	}
	long := string(bytes.Repeat([]byte("abcdefg"), 50))
	var keys []string
	for round := 0; round < 3; round++ {
		for k := 1; k <= 300; k++ {
			keys = append(keys, long[:(k*37+round)%300+1])
		}
		for i, s := range base {
			keys = append(keys, s, s[:len(s)-1], string([]byte(s)), "")
			if i%7 == round {
				keys = append(keys, base[(i*31+round)%len(base)])
			}
		}
	}
	var d Dict
	ref := map[string]uint32{}
	for k, s := range keys {
		want, ok := ref[s]
		if !ok {
			want = uint32(len(ref))
			ref[s] = want
		}
		if got := d.ID(s); got != want {
			t.Fatalf("lookup %d: ID(%q) = %d, want %d", k, s, got, want)
		}
		if got := d.Str(want); got != s {
			t.Fatalf("Str(%d) = %q, want %q", want, got, s)
		}
	}
	d.Reset()
	if got := d.ID(keys[5]); got != 0 {
		t.Errorf("after Reset, ID(%q) = %d, want 0", keys[5], got)
	}
}
