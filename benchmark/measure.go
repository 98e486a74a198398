package main

import (
	"encoding/binary"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// quantile returns the nearest-rank q-quantile (0 < q <= 1) of vs: the
// smallest sample with at least q of the samples at or below it. Nearest
// rank never interpolates, so a reported latency is always one that was
// observed. Empty input yields 0.
func quantile(vs []float64, q float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

func median(vs []float64) float64 { return quantile(vs, 0.5) }

// fiveNum is min, quartiles and max of a sample — the per-slice rate
// line printed beside every headline, so a burst of host interference
// is visible in the run's own output.
type fiveNum struct{ Min, Q1, Med, Q3, Max float64 }

func summarize(vs []float64) fiveNum {
	return fiveNum{
		Min: quantile(vs, 1e-9), Q1: quantile(vs, 0.25), Med: quantile(vs, 0.5),
		Q3: quantile(vs, 0.75), Max: quantile(vs, 1),
	}
}

// dueAt is the send time the open-loop schedule assigns to report i:
// reports are due at a fixed interval from start whatever the generator
// or the system under test is doing.
func dueAt(start time.Time, i int, interval time.Duration) time.Time {
	return start.Add(time.Duration(i) * interval)
}

// sinceDue times an event against the schedule, not against when the
// generator got round to it: a stall charges every report queued behind
// it (coordinated omission is counted, not hidden). An event before its
// due time (clock granularity) counts as zero.
func sinceDue(due, at time.Time) time.Duration {
	if d := at.Sub(due); d > 0 {
		return d
	}
	return 0
}

// cpuTime is the process's user+system CPU so far (RUSAGE_SELF) — the
// hardware counterpart of the paper's CPU axis.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// gcCPUSeconds reads the runtime's estimate of CPU spent in the garbage
// collector.
func gcCPUSeconds() float64 {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindFloat64 {
		return 0
	}
	return s[0].Value.Float64()
}

// liveHeapMB forces two collections and returns what survived them: a
// sync.Pool gives its contents up over two cycles, and what a pool
// happens to hold is timing, not the program's working set. The
// reference kernel's heap tables are dropped first, so the number is
// the program's alone.
func liveHeapMB() float64 {
	ref.keys, ref.order, ref.m, ref.buf = nil, nil, nil, nil
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// The reference kernel. The authoring host is a shared VM whose speed
// swings with its neighbours, in spells of a minute or more: the same
// binary and seed ran chord21-monitored at 100 k and at 151 k events/s
// within ten minutes, with identical event, allocation and GC-cycle
// counts, and process CPU per event swung with the wall clock (7.3 to
// 10.8 us). As timed, the timing metrics spread up to 24 % over ten runs
// (README, "Sizing and noise") and a bound may not exceed 25 %. So beside
// every measured slice the benchmark times a fixed piece of work that
// uses nothing from the repository, and reports each timing scaled to
// the speed the host showed at that moment, next to the value as timed.
//
// What slows the host down is not the arithmetic units: over three sets
// of eight runs of every workload a dependent-arithmetic loop varied 2 %
// while the workloads varied 6-21 %. It is the memory hierarchy and
// whatever else ordinary code leans on, in proportions that change from
// one quarter of an hour to the next. The kernel therefore has two
// parts, each timed against its own nominal, and the host factor is the
// mean of the two ratios: a dependent-load walk over a 4 MB random cycle
// (the last-level cache and memory), and plain Go on an L2-sized working
// set (fill a map of 4 096 string keys, sort the keys, look each up,
// encode and hash the answers). Either part alone followed the workloads
// in one set and missed them in another; the pair brought every cell's
// spread to 3-10 %. The kernel allocates nothing after its first call
// and the walk's array lies outside the Go heap, so allocs_per_event,
// live_heap_mb and the collector's pacing are untouched, and it runs
// between slices, outside their clocks.

// Nominal times of the two parts on the authoring host (medians of 620
// samples over twenty runs, five of each workload); a host factor of 1
// means "as fast as that".
const (
	refWalkNominal = 5.2e-3 // seconds
	refCodeNominal = 1.04e-3
)

var ref struct {
	// walk is one random cycle through 1 M little-endian uint32 entries
	// (Sattolo's shuffle of the identity): each entry names the next, so a
	// walk never closes a short loop. It is mapped, not allocated: 4 MB on
	// the heap would double udp-collector's and change how often the
	// collector runs.
	walk []byte
	// The code part's tables; liveHeapMB drops them, the next call
	// rebuilds them.
	keys, order []string
	m           map[string]int
	buf         []byte
	sink        uint64
}

const (
	refWalkEntries = 1 << 20
	refKeys        = 4096
)

func refInit() {
	if ref.walk == nil {
		mem, err := syscall.Mmap(-1, 0, 4*refWalkEntries, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
		if err != nil {
			panic("benchmark: cannot map the reference kernel's array: " + err.Error())
		}
		entry := func(i int) []byte { return mem[4*i : 4*i+4] }
		for i := 0; i < refWalkEntries; i++ {
			binary.LittleEndian.PutUint32(entry(i), uint32(i))
		}
		x := uint64(2463534242)
		for i := refWalkEntries - 1; i > 0; i-- {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			j := int(x % uint64(i))
			a, b := binary.LittleEndian.Uint32(entry(i)), binary.LittleEndian.Uint32(entry(j))
			binary.LittleEndian.PutUint32(entry(i), b)
			binary.LittleEndian.PutUint32(entry(j), a)
		}
		ref.walk = mem
	}
	ref.keys, ref.order = make([]string, refKeys), make([]string, refKeys)
	for i := range ref.keys {
		ref.keys[i] = "host-" + strconv.Itoa(i*7919%100003)
	}
	ref.m = make(map[string]int, refKeys)
	for i, k := range ref.keys {
		ref.m[k] = i
	}
	ref.buf = make([]byte, 0, 24*refKeys)
}

// refKernel runs the kernel once and returns how much slower than
// nominal the host ran it (1 = nominal, 2 = half speed).
func refKernel() float64 {
	if ref.m == nil {
		refInit()
	}
	t0 := time.Now()
	j := uint32(1)
	for i := 0; i < 50000; i++ {
		j = binary.LittleEndian.Uint32(ref.walk[4*j:])
	}
	t1 := time.Now()
	clear(ref.m)
	for i, k := range ref.keys {
		ref.m[k] = i
	}
	copy(ref.order, ref.keys)
	sort.Strings(ref.order)
	b := ref.buf[:0]
	for _, k := range ref.order {
		b = binary.AppendUvarint(b, uint64(ref.m[k]))
		b = append(b, k...)
	}
	h := uint64(14695981039346656037)
	for _, c := range b {
		h = (h ^ uint64(c)) * 1099511628211
	}
	t2 := time.Now()
	ref.sink += h + uint64(j)
	return (t1.Sub(t0).Seconds()/refWalkNominal + t2.Sub(t1).Seconds()/refCodeNominal) / 2
}

// hostRef collects kernel samples taken beside one piece of measured
// work; factor is their median.
type hostRef struct{ samples []float64 }

func (h *hostRef) sample() { h.samples = append(h.samples, refKernel()) }

func (h *hostRef) factor() float64 {
	if len(h.samples) == 0 {
		return 1
	}
	return median(h.samples)
}

// phase is one measured interval, cut into equal-work slices. Each
// slice's wall clock and process CPU are taken on their own, and the
// reference kernel runs between slices, outside them. Allocator and
// collector counters are sampled at both ends of the phase (the kernel
// allocates on its first call only, which beginPhase makes before it
// reads them).
type phase struct {
	ms0        runtime.MemStats
	gcCPU0     float64
	sliceStart time.Time
	cpuStart   time.Duration
	sliceSec   []float64
	sliceCPU   []float64
	ref        hostRef
}

func beginPhase() *phase {
	p := &phase{}
	p.ref.sample()
	runtime.ReadMemStats(&p.ms0)
	p.gcCPU0 = gcCPUSeconds()
	p.startSlice()
	return p
}

func (p *phase) startSlice() {
	p.cpuStart = cpuTime()
	p.sliceStart = time.Now()
}

// endSlice closes the current slice, samples the host, and opens the
// next slice.
func (p *phase) endSlice() {
	now := time.Now()
	cpu := cpuTime()
	p.sliceSec = append(p.sliceSec, now.Sub(p.sliceStart).Seconds())
	p.sliceCPU = append(p.sliceCPU, (cpu - p.cpuStart).Seconds())
	p.ref.sample()
	p.startSlice()
}

// phaseStats is what a finished phase measured. WallSec and CPUSec are
// sums over the slices.
type phaseStats struct {
	WallSec, CPUSec   float64
	Mallocs, Bytes    uint64
	GCCycles          uint32
	GCPauseMs, GCCPUs float64
	SliceSec          []float64
	// HostFactor is how much slower than nominal the host ran the
	// reference kernel during the phase (median).
	HostFactor float64
}

// end finishes the phase; call it right after the last endSlice.
func (p *phase) end() phaseStats {
	gcCPU := gcCPUSeconds() - p.gcCPU0
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	st := phaseStats{
		Mallocs: ms.Mallocs - p.ms0.Mallocs, Bytes: ms.TotalAlloc - p.ms0.TotalAlloc,
		GCCycles:  ms.NumGC - p.ms0.NumGC,
		GCPauseMs: float64(ms.PauseTotalNs-p.ms0.PauseTotalNs) / 1e6,
		GCCPUs:    gcCPU,
		SliceSec:  p.sliceSec, HostFactor: p.ref.factor(),
	}
	for i := range p.sliceSec {
		st.WallSec += p.sliceSec[i]
		st.CPUSec += p.sliceCPU[i]
	}
	return st
}

// sliceRates turns slice wall times into per-slice rates, given the
// work done in each slice.
func sliceRates(work []float64, sec []float64) []float64 {
	out := make([]float64, 0, len(sec))
	for i, s := range sec {
		if s > 0 && i < len(work) {
			out = append(out, work[i]/s)
		}
	}
	return out
}

// perEvent divides guarding against an empty phase.
func perEvent(total float64, events uint64) float64 {
	if events == 0 {
		return 0
	}
	return total / float64(events)
}

// hostFacts are recorded with every run, so a number can be read
// against the machine and moment that produced it.
type hostFacts struct {
	GitSHA     string  `json:"git_sha"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	Kernel     string  `json:"kernel"`
	Load1      float64 `json:"load1_at_start"`
	NoisyHost  bool    `json:"noisy_host"`
}

func readHostFacts() hostFacts {
	h := hostFacts{
		GitSHA: gitSHA(), NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), Kernel: firstField("/proc/sys/kernel/osrelease"),
	}
	h.Load1, _ = strconv.ParseFloat(firstField("/proc/loadavg"), 64)
	h.NoisyHost = h.Load1 > float64(h.NProc)
	return h
}

func firstField(path string) string {
	b, err := os.ReadFile(path)
	if err != nil {
		return ""
	}
	if f := strings.Fields(string(b)); len(f) > 0 {
		return f[0]
	}
	return ""
}

// gitSHA resolves HEAD by reading .git directly (no subprocess); the
// driver's checkout is not a repository, where it reports "unknown".
func gitSHA() string {
	head, err := os.ReadFile(".git/HEAD")
	if err != nil {
		return "unknown"
	}
	s := strings.TrimSpace(string(head))
	ref, ok := strings.CutPrefix(s, "ref: ")
	if !ok {
		return s
	}
	if b, err := os.ReadFile(".git/" + ref); err == nil {
		return strings.TrimSpace(string(b))
	}
	packed, _ := os.ReadFile(".git/packed-refs")
	for _, line := range strings.Split(string(packed), "\n") {
		if sha, ok := strings.CutSuffix(line, " "+ref); ok {
			return sha
		}
	}
	return "unknown"
}
