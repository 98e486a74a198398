package metrics

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Log-bucketed histogram: power-of-two buckets starting at HistBase
// seconds. Bucket i covers (HistBase·2^(i-1), HistBase·2^i]; bucket 0
// additionally absorbs everything at or below HistBase, and the last
// bucket absorbs everything above the penultimate bound. With HistBase
// = 1 µs and 40 buckets the range reaches past 5·10^5 s, which covers
// every latency and cost this engine can produce — and, reused as a
// dimensionless scale, queue depths up to ~5·10^11 tasks.
const (
	// HistBase is the upper bound of bucket 0 in seconds (1 µs).
	HistBase = 1e-6
	// HistBuckets is the number of buckets.
	HistBuckets = 40
)

// Histogram is a fixed-shape log-bucketed histogram. The zero value is
// ready to use. It is a plain value: copying it snapshots it, and the
// deterministic bucket function (exact power-of-two arithmetic via
// Frexp, no logarithms) makes runs bit-reproducible.
type Histogram struct {
	counts [HistBuckets]int64
	count  int64
	sum    float64
}

// bucketOf maps a value to its bucket index without floating-point
// logarithms: Frexp decomposes v/HistBase exactly, so equal inputs land
// in equal buckets on every platform.
func bucketOf(v float64) int {
	if v <= HistBase || math.IsNaN(v) {
		return 0
	}
	q := v / HistBase
	if math.IsInf(q, 1) {
		// +Inf input, or a value so large the division overflowed
		// (Frexp(+Inf) reports exponent 0, which would land in bucket 0).
		return HistBuckets - 1
	}
	frac, exp := math.Frexp(q)
	i := exp
	if frac == 0.5 {
		i-- // exact power of two sits on its bucket's upper bound
	}
	if i >= HistBuckets {
		i = HistBuckets - 1
	}
	return i
}

// BucketBound returns the inclusive upper bound of bucket i in seconds;
// the last bucket is unbounded (+Inf).
func BucketBound(i int) float64 {
	if i >= HistBuckets-1 {
		return math.Inf(1)
	}
	return HistBase * math.Ldexp(1, i)
}

// Observe records one value. Negative values count into bucket 0 but
// contribute their true (negative) amount to Sum.
func (h *Histogram) Observe(v float64) {
	h.counts[bucketOf(v)]++
	h.count++
	h.sum += v
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return h.sum }

// Mean returns the average observed value (0 when empty).
func (h *Histogram) Mean() float64 {
	if h.count == 0 {
		return 0
	}
	return h.sum / float64(h.count)
}

// BucketCount returns the count in bucket i.
func (h *Histogram) BucketCount(i int) int64 { return h.counts[i] }

// Merge accumulates other into h (cross-node aggregation).
func (h *Histogram) Merge(other Histogram) {
	for i := range h.counts {
		h.counts[i] += other.counts[i]
	}
	h.count += other.count
	h.sum += other.sum
}

// Sub returns the windowed delta h - prev (both taken from the same
// monotonically growing histogram).
func (h Histogram) Sub(prev Histogram) Histogram {
	out := h
	for i := range out.counts {
		out.counts[i] -= prev.counts[i]
	}
	out.count -= prev.count
	out.sum -= prev.sum
	return out
}

// Quantile returns an upper bound for the q-quantile: the upper bound
// of the bucket in which the q·Count-th observation falls. The
// resolution is the bucket width (a factor of two); for the unbounded
// last bucket its (finite) lower bound is returned. Returns 0 when
// empty. q is clamped to the observation range: q <= 0 (and NaN)
// resolve to the first observation's bucket, q >= 1 to the last's —
// Quantile never reports a rank outside the recorded population, so it
// never returns +Inf (a q slightly above 1 from accumulated float
// error previously walked off the end of the bucket array).
func (h *Histogram) Quantile(q float64) float64 {
	if h.count == 0 {
		return 0
	}
	rank := int64(math.Ceil(q * float64(h.count)))
	if math.IsNaN(q) || rank < 1 {
		rank = 1
	}
	if rank > h.count {
		rank = h.count
	}
	var cum int64
	for i := 0; i < HistBuckets; i++ {
		cum += h.counts[i]
		if cum >= rank {
			if i == HistBuckets-1 {
				return HistBase * math.Ldexp(1, i-1) // lower bound
			}
			return BucketBound(i)
		}
	}
	// Unreachable while count equals the bucket sum (rank <= count means
	// some prefix crosses it); kept finite for safety.
	return HistBase * math.Ldexp(1, HistBuckets-2)
}

// Encode renders the histogram in a compact deterministic text form:
// "count sum b<i>:<n> ..." listing only non-empty buckets in index
// order. Decode-free: it exists for golden files, logs and fingerprints.
func (h *Histogram) Encode() string {
	var b strings.Builder
	b.WriteString(strconv.FormatInt(h.count, 10))
	b.WriteByte(' ')
	b.WriteString(strconv.FormatFloat(h.sum, 'g', -1, 64))
	for i, c := range h.counts {
		if c != 0 {
			fmt.Fprintf(&b, " b%d:%d", i, c)
		}
	}
	return b.String()
}

// NodeHists groups the per-node latency/cost histograms the engine and
// its drivers maintain. All values are in seconds except QueueDepth,
// which reuses the log-bucketed scale for a dimensionless task count.
// Like the Node counters they are owned by the node's single executor;
// concurrent readers must snapshot through the driver (see
// realtime.UDPNode.MetricsSnapshot).
type NodeHists struct {
	// HopLatency is the per-hop message latency: from the send postamble
	// to the receiving node observing the message (virtual time under
	// simnet, wall clock under the realtime driver).
	HopLatency Histogram
	// StrandCost is the simulated CPU cost of one strand activation
	// (the same cost-model seconds BusySeconds accumulates).
	StrandCost Histogram
	// QueueWait is how long a task waited in the node's run queue before
	// executing (virtual time under simnet, wall clock under realtime).
	QueueWait Histogram
	// QueueDepth is the run-queue length observed as each task starts
	// (the task itself included).
	QueueDepth Histogram
}

// Merge accumulates other into h.
func (h *NodeHists) Merge(other NodeHists) {
	h.HopLatency.Merge(other.HopLatency)
	h.StrandCost.Merge(other.StrandCost)
	h.QueueWait.Merge(other.QueueWait)
	h.QueueDepth.Merge(other.QueueDepth)
}

// Sub returns the windowed delta h - prev.
func (h NodeHists) Sub(prev NodeHists) NodeHists {
	return NodeHists{
		HopLatency: h.HopLatency.Sub(prev.HopLatency),
		StrandCost: h.StrandCost.Sub(prev.StrandCost),
		QueueWait:  h.QueueWait.Sub(prev.QueueWait),
		QueueDepth: h.QueueDepth.Sub(prev.QueueDepth),
	}
}
