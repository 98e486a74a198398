package main

import (
	"bufio"
	"fmt"
	"os"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed call the benchmark made into a layer's public
// function. Name is "<layer>.<function>"; spans of one investigation or
// one report share ID; Parent is the index of the enclosing span (-1 at
// the top). Lane keeps goroutines apart in the Chrome view.
type span struct {
	Name       string
	ID         int64
	Parent     int
	Lane       int
	Start, End time.Duration // since the recorder's epoch
}

// spanRecorder holds spans in memory until the run ends. A nil
// recorder records nothing, so the untraced run pays one branch per
// call site.
type spanRecorder struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newSpanRecorder() *spanRecorder {
	return &spanRecorder{epoch: time.Now()}
}

// overheadPct is the recorder's own cost as a share of a phase that
// recorded n spans in wallSec seconds: the per-span cost is calibrated
// on a scratch recorder, because under this host's run-to-run noise the
// difference between a traced and an untraced rate cannot resolve a
// cost this small.
func (r *spanRecorder) overheadPct(n int, wallSec float64) float64 {
	if r == nil || wallSec <= 0 {
		return 0
	}
	const calls = 20000
	scratch := newSpanRecorder()
	t0 := time.Now()
	for i := 0; i < calls; i++ {
		scratch.end(scratch.start("bench.calibrate", int64(i), -1, 0))
	}
	perSpan := time.Since(t0).Seconds() / calls
	return 100 * perSpan * float64(n) / wallSec
}

// start opens a span and returns its index (-1 on a nil recorder).
func (r *spanRecorder) start(name string, id int64, parent, lane int) int {
	if r == nil {
		return -1
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{Name: name, ID: id, Parent: parent, Lane: lane, Start: time.Since(r.epoch), End: -1})
	return len(r.spans) - 1
}

func (r *spanRecorder) end(i int) {
	if r == nil || i < 0 {
		return
	}
	now := time.Since(r.epoch)
	r.mu.Lock()
	r.spans[i].End = now
	r.mu.Unlock()
}

// do times fn as a top-level span and returns how long it took; the duration is
// measured with or without a recorder, so untraced callers can use it
// for their latency samples.
func (r *spanRecorder) do(name string, id int64, fn func(self int)) time.Duration {
	i := r.start(name, id, -1, 0)
	t0 := time.Now()
	fn(i)
	d := time.Since(t0)
	r.end(i)
	return d
}

// spanTotals aggregates spans of one name.
type spanTotals struct {
	Name        string
	Count       int
	Total, Self time.Duration
}

// selfTimes computes each span's self time — its duration minus the
// part of that interval its direct children cover (overlapping children
// are not double-counted) — and sums by name. Unfinished spans are
// skipped.
func selfTimes(spans []span) []spanTotals {
	kids := make(map[int][]int)
	for i, s := range spans {
		if s.Parent >= 0 && s.End >= 0 {
			kids[s.Parent] = append(kids[s.Parent], i)
		}
	}
	byName := make(map[string]*spanTotals)
	for i, s := range spans {
		if s.End < 0 {
			continue
		}
		ks := kids[i]
		sort.Slice(ks, func(a, b int) bool { return spans[ks[a]].Start < spans[ks[b]].Start })
		var covered time.Duration
		cursor := s.Start
		for _, k := range ks {
			lo, hi := spans[k].Start, spans[k].End
			if lo < cursor {
				lo = cursor
			}
			if hi > s.End {
				hi = s.End
			}
			if hi > lo {
				covered += hi - lo
				cursor = hi
			}
		}
		t := byName[s.Name]
		if t == nil {
			t = &spanTotals{Name: s.Name}
			byName[s.Name] = t
		}
		t.Count++
		t.Total += s.End - s.Start
		t.Self += s.End - s.Start - covered
	}
	out := make([]spanTotals, 0, len(byName))
	for _, t := range byName {
		out = append(out, *t)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// layerOf is the layer a span name belongs to.
func layerOf(name string) string {
	layer, _, _ := strings.Cut(name, ".")
	return layer
}

// writeChrome writes the spans as Chrome trace-event JSON (complete "X"
// events, microsecond timestamps), which Perfetto and chrome://tracing
// open directly.
func (r *spanRecorder) writeChrome(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprint(w, `{"displayTimeUnit":"ms","traceEvents":[`)
	first := true
	for i, s := range r.spans {
		if s.End < 0 {
			continue
		}
		if !first {
			fmt.Fprint(w, ",")
		}
		first = false
		fmt.Fprintf(w, "\n"+`{"name":%q,"cat":%q,"ph":"X","ts":%.3f,"dur":%.3f,"pid":1,"tid":%d,"args":{"span":%d,"parent":%d,"id":%d}}`,
			s.Name, layerOf(s.Name), float64(s.Start)/1e3, float64(s.End-s.Start)/1e3, s.Lane+1, i, s.Parent, s.ID)
	}
	fmt.Fprint(w, "\n]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
