package metrics

import (
	"math"
	"strings"
	"testing"
)

// TestBucketBoundaries pins the log-bucket function: exact powers of
// two land on their bucket's upper bound (inclusive), everything at or
// below HistBase in bucket 0, everything huge in the last bucket.
func TestBucketBoundaries(t *testing.T) {
	cases := []struct {
		v    float64
		want int
	}{
		{0, 0},
		{-1, 0},
		{math.NaN(), 0},
		{HistBase / 2, 0},
		{HistBase, 0},          // upper bound of bucket 0, inclusive
		{HistBase * 1.5, 1},    // (1µs, 2µs]
		{HistBase * 2, 1},      // exact power of two: inclusive upper bound
		{HistBase * 2.0001, 2}, // just past it
		{HistBase * 4, 2},
		{1.0, 20}, // 1 s = 2^20 µs exactly → bucket 20 upper bound
		{math.MaxFloat64, HistBuckets - 1},
		{math.Inf(1), HistBuckets - 1},
	}
	for _, c := range cases {
		if got := bucketOf(c.v); got != c.want {
			t.Errorf("bucketOf(%v) = %d, want %d", c.v, got, c.want)
		}
	}
	// Every finite bucket bound must map into its own bucket (inclusive
	// upper bound), and one ulp above must map to the next.
	for i := 0; i < HistBuckets-1; i++ {
		b := BucketBound(i)
		if got := bucketOf(b); got != i {
			t.Errorf("bucketOf(BucketBound(%d)=%v) = %d, want %d", i, b, got, i)
		}
		if got := bucketOf(math.Nextafter(b, math.Inf(1))); got != i+1 {
			t.Errorf("bucketOf(just above bound %d) = %d, want %d", i, got, i+1)
		}
	}
	if !math.IsInf(BucketBound(HistBuckets-1), 1) {
		t.Error("last bucket bound must be +Inf")
	}
}

func TestHistogramObserveQuantile(t *testing.T) {
	var h Histogram
	if got := h.Quantile(0.5); got != 0 {
		t.Errorf("empty quantile = %v, want 0", got)
	}
	// 100 observations of 3 µs (bucket 2: (2µs, 4µs]) and 100 of ~1 ms
	// (bucket 10: (512µs, 1024µs]).
	for i := 0; i < 100; i++ {
		h.Observe(3e-6)
		h.Observe(1e-3)
	}
	if h.Count() != 200 {
		t.Fatalf("count = %d", h.Count())
	}
	if want := 100*3e-6 + 100*1e-3; math.Abs(h.Sum()-want) > 1e-12 {
		t.Errorf("sum = %v, want %v", h.Sum(), want)
	}
	if got, want := h.Quantile(0.25), BucketBound(2); got != want {
		t.Errorf("p25 = %v, want bucket-2 bound %v", got, want)
	}
	if got, want := h.Quantile(0.99), BucketBound(10); got != want {
		t.Errorf("p99 = %v, want bucket-10 bound %v", got, want)
	}
	if got := h.Mean(); math.Abs(got-h.Sum()/200) > 1e-15 {
		t.Errorf("mean = %v", got)
	}
}

// TestHistogramQuantileEdgeCases pins the clamping contract: q outside
// (0, 1] resolves to the first/last recorded observation and the result
// is always finite — a q marginally above 1 (accumulated float error in
// callers) used to walk past every bucket and report +Inf.
func TestHistogramQuantileEdgeCases(t *testing.T) {
	single := func(v float64, n int) Histogram {
		var h Histogram
		for i := 0; i < n; i++ {
			h.Observe(v)
		}
		return h
	}
	two := single(3e-6, 50)
	for i := 0; i < 50; i++ {
		two.Observe(1e-3)
	}
	lastLower := HistBase * math.Ldexp(1, HistBuckets-2)
	cases := []struct {
		name string
		h    Histogram
		q    float64
		want float64
	}{
		{"empty q=0", Histogram{}, 0, 0},
		{"empty q=1", Histogram{}, 1, 0},
		{"empty q=NaN", Histogram{}, math.NaN(), 0},
		{"single-bucket q=0", single(3e-6, 9), 0, BucketBound(2)},
		{"single-bucket q=0.5", single(3e-6, 9), 0.5, BucketBound(2)},
		{"single-bucket q=1", single(3e-6, 9), 1, BucketBound(2)},
		{"single-observation q=1", single(1e-3, 1), 1, BucketBound(10)},
		{"q below zero clamps to first", two, -0.5, BucketBound(2)},
		{"q=NaN clamps to first", two, math.NaN(), BucketBound(2)},
		{"q above one clamps to last", two, 1.0000001, BucketBound(10)},
		{"two-bucket q=0.5 boundary", two, 0.5, BucketBound(2)},
		{"two-bucket q just past half", two, 0.51, BucketBound(10)},
		// The unbounded last bucket reports its finite lower bound, never
		// +Inf — even for q=1 and beyond.
		{"last bucket q=1", single(math.Inf(1), 3), 1, lastLower},
		{"last bucket q=2", single(math.Inf(1), 3), 2, lastLower},
	}
	for _, tc := range cases {
		got := tc.h.Quantile(tc.q)
		if math.IsInf(got, 0) || got != tc.want {
			t.Errorf("%s: Quantile(%v) = %v, want %v", tc.name, tc.q, got, tc.want)
		}
	}
}

// TestHistogramMergeEdgeCases: merging empty histograms in either
// direction is the identity, and quantiles of a merge agree with the
// merged population.
func TestHistogramMergeEdgeCases(t *testing.T) {
	var empty, h Histogram
	for i := 0; i < 4; i++ {
		h.Observe(3e-6)
	}
	snap := h
	h.Merge(empty)
	if h.Count() != snap.Count() || h.Sum() != snap.Sum() || h.Encode() != snap.Encode() {
		t.Errorf("merge of empty changed histogram: %s vs %s", h.Encode(), snap.Encode())
	}
	empty.Merge(h)
	if empty.Encode() != h.Encode() {
		t.Errorf("merge into empty differs: %s vs %s", empty.Encode(), h.Encode())
	}
	var a, b Histogram
	for i := 0; i < 10; i++ {
		a.Observe(3e-6) // bucket 2
	}
	b.Observe(1e-3) // bucket 10
	a.Merge(b)
	if got, want := a.Quantile(1), BucketBound(10); got != want {
		t.Errorf("post-merge max quantile = %v, want %v", got, want)
	}
	if got, want := a.Quantile(0.5), BucketBound(2); got != want {
		t.Errorf("post-merge median = %v, want %v", got, want)
	}
}

func TestHistogramMergeSub(t *testing.T) {
	var a, b Histogram
	for i := 0; i < 10; i++ {
		a.Observe(5e-6)
	}
	for i := 0; i < 7; i++ {
		b.Observe(1e-3)
	}
	snap := a // value copy is a snapshot
	a.Merge(b)
	if a.Count() != 17 {
		t.Errorf("merged count = %d, want 17", a.Count())
	}
	d := a.Sub(snap)
	if d.Count() != 7 || math.Abs(d.Sum()-7e-3) > 1e-12 {
		t.Errorf("delta count=%d sum=%v, want 7 / 7e-3", d.Count(), d.Sum())
	}
	if snap.Count() != 10 {
		t.Error("snapshot mutated by Merge")
	}
	// Windowed delta of an untouched histogram is empty.
	z := a.Sub(a)
	if z.Count() != 0 || z.Sum() != 0 {
		t.Errorf("self-delta = %d/%v, want empty", z.Count(), z.Sum())
	}
	for i := 0; i < HistBuckets; i++ {
		if z.BucketCount(i) != 0 {
			t.Fatalf("self-delta bucket %d = %d", i, z.BucketCount(i))
		}
	}
}

func TestHistogramEncodeDeterministic(t *testing.T) {
	var h Histogram
	h.Observe(3e-6)
	h.Observe(3e-6)
	h.Observe(1.0)
	enc := h.Encode()
	if !strings.HasPrefix(enc, "3 ") {
		t.Errorf("encode = %q, want count prefix", enc)
	}
	if !strings.Contains(enc, "b2:2") || !strings.Contains(enc, "b20:1") {
		t.Errorf("encode = %q, want b2:2 and b20:1", enc)
	}
	var h2 Histogram
	h2.Observe(1.0)
	h2.Observe(3e-6)
	h2.Observe(3e-6)
	if h2.Encode() != enc {
		t.Errorf("encoding depends on observation order: %q vs %q", h2.Encode(), enc)
	}
}

func TestNodeHistsMergeSub(t *testing.T) {
	var a, b NodeHists
	a.HopLatency.Observe(0.01)
	a.StrandCost.Observe(1e-4)
	b.HopLatency.Observe(0.02)
	b.QueueDepth.Observe(3)
	snap := a
	a.Merge(b)
	if a.HopLatency.Count() != 2 || a.QueueDepth.Count() != 1 {
		t.Errorf("merge: hop=%d depth=%d", a.HopLatency.Count(), a.QueueDepth.Count())
	}
	d := a.Sub(snap)
	if d.HopLatency.Count() != 1 || d.StrandCost.Count() != 0 {
		t.Errorf("sub: hop=%d strand=%d", d.HopLatency.Count(), d.StrandCost.Count())
	}
}

func TestCountersEnumeration(t *testing.T) {
	n := Node{BusySeconds: 1.25, MsgsSent: 3, TimerFires: 9}
	cs := n.Counters()
	if len(cs) != 12 {
		t.Fatalf("node counters = %d, want 12", len(cs))
	}
	byName := map[string]Counter{}
	for _, c := range cs {
		byName[c.Name] = c
	}
	if c := byName["BusySeconds"]; !c.IsFloat || c.Float() != 1.25 {
		t.Errorf("BusySeconds counter = %+v", c)
	}
	if c := byName["MsgsSent"]; c.IsFloat || c.Float() != 3 {
		t.Errorf("MsgsSent counter = %+v", c)
	}
	q := Query{BusySeconds: 0.5, RuleFires: 2}
	qs := q.Counters()
	if len(qs) != 4 {
		t.Fatalf("query counters = %d, want 4", len(qs))
	}
	if qs[0].Name != "BusySeconds" || qs[0].Float() != 0.5 {
		t.Errorf("query counter order broken: %+v", qs[0])
	}
}

func TestQuerySubRoundTrip(t *testing.T) {
	var q Query
	q.BusySeconds, q.RuleFires = 2.5, 10
	prev := q.Snapshot()
	q.BusySeconds, q.RuleFires, q.TimerFires = 4.0, 13, 2
	d := q.Sub(prev)
	if d.BusySeconds != 1.5 || d.RuleFires != 3 || d.TimerFires != 2 {
		t.Errorf("delta = %+v", d)
	}
	if prev.RuleFires != 10 {
		t.Error("snapshot mutated")
	}
}
