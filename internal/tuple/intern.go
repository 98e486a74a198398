package tuple

// String interning for the decode path. At simulation scale every node
// holds the same handful of strings thousands of times over: predicate
// names ("bestSucc", "finger") and node addresses ("n1".."n10000")
// arrive in every message and are retained for as long as the decoded
// tuple lives in a table. Canonicalizing them makes all copies share
// one backing array, which is a large share of steady-state bytes per
// host at 1k-10k nodes.
//
// An Interner belongs to whoever runs the decoding, like the scratch a
// task works in: the engine keeps one in each engine.Arenas, so a
// simulated network's hosts, whose tasks run one at a time on one
// goroutine, share one, and each realtime node and UDP reader has its
// own. It needs no lock, and two owners never share a string. Interning
// is semantically invisible — it returns an equal string — so it cannot
// affect determinism; it only collapses duplicates. A lookup is one
// allocation-free map probe: the compiler elides the []byte→string
// conversion for built-in map lookups.

const (
	// maxInternLen bounds interned string length: long strings are
	// payload (unlikely to repeat), short ones are vocabulary.
	maxInternLen = 64
	// maxInternEntries caps an interner's growth so adversarial or
	// high-entropy traffic cannot leak memory through it; beyond the
	// cap, lookups still hit but misses stop inserting.
	maxInternEntries = 1 << 17
)

// Interner canonicalizes the short strings a decoder reads. The zero
// value is empty and ready; a nil *Interner interns nothing. Not safe for
// concurrent use.
type Interner struct{ strs map[string]string }

// Bytes returns b as a string: the interner's canonical copy when b is
// short, allocating only on a miss.
func (in *Interner) Bytes(b []byte) string {
	if in == nil || len(b) > maxInternLen {
		return string(b)
	}
	if s, ok := in.strs[string(b)]; ok { // no alloc: map-lookup conversion
		return s
	}
	s := string(b)
	if len(in.strs) < maxInternEntries {
		if in.strs == nil {
			in.strs = make(map[string]string)
		}
		in.strs[s] = s
	}
	return s
}
