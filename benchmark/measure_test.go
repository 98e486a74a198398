package main

import (
	"math"
	"testing"
	"time"
)

func TestQuantileNearestRank(t *testing.T) {
	ten := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	cases := []struct {
		name string
		vs   []float64
		q    float64
		want float64
	}{
		{"empty", nil, 0.5, 0},
		{"single", []float64{7}, 0.9, 7},
		{"median of ten is the fifth", ten, 0.5, 5},
		{"p90 of ten is the ninth", ten, 0.9, 9},
		{"p100 is the max", ten, 1, 10},
		{"tiny q is the min", ten, 1e-9, 1},
		{"median of three", []float64{3, 1, 2}, 0.5, 2},
		{"median of two is the lower", []float64{4, 2}, 0.5, 2},
		{"p99 of 400 leaves four beyond", seq(400), 0.99, 396},
		{"p90 of 240 leaves 24 beyond", seq(240), 0.9, 216},
	}
	for _, c := range cases {
		if got := quantile(c.vs, c.q); got != c.want {
			t.Errorf("%s: quantile(q=%g) = %g, want %g", c.name, c.q, got, c.want)
		}
	}
	if ten[0] != 10 {
		t.Error("quantile must not reorder its input")
	}
}

func seq(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = float64(i + 1)
	}
	return out
}

func TestPyQuartilesMatchesPython(t *testing.T) {
	// Expected values are statistics.quantiles(values, n=4) in CPython.
	cases := []struct {
		vs         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{10, 20, 30}, 10, 20, 30},
		{[]float64{5, 1}, 0, 3, 6},
		{[]float64{1, 2, 3, 4, 5}, 1.5, 3, 4.5},
	}
	for _, c := range cases {
		q1, q2, q3 := pyQuartiles(c.vs)
		if math.Abs(q1-c.q1) > 1e-9 || math.Abs(q2-c.q2) > 1e-9 || math.Abs(q3-c.q3) > 1e-9 {
			t.Errorf("pyQuartiles(%v) = %g %g %g, want %g %g %g", c.vs, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
}

func TestDueTimeLatency(t *testing.T) {
	start := time.Unix(1000, 0)
	iv := 40 * time.Microsecond // 25 000 reports per second
	cases := []struct {
		name string
		i    int
		at   time.Duration // when the event happened, from start
		want time.Duration
	}{
		{"acked 300us after an on-time send", 0, 300 * time.Microsecond, 300 * time.Microsecond},
		{"report 1000 is due 40ms in", 1000, 40*time.Millisecond + 250*time.Microsecond, 250 * time.Microsecond},
		// The generator stalled 5 ms; report 10 went out late and was
		// acked 200us later. Its latency counts the stall.
		{"a stall is charged to the reports behind it", 10, 400*time.Microsecond + 5*time.Millisecond + 200*time.Microsecond, 5*time.Millisecond + 200*time.Microsecond},
		{"an event before its due time counts zero", 5, 100 * time.Microsecond, 0},
	}
	for _, c := range cases {
		due := dueAt(start, c.i, iv)
		if got := sinceDue(due, start.Add(c.at)); got != c.want {
			t.Errorf("%s: got %v, want %v", c.name, got, c.want)
		}
	}
}

func TestSpanSelfTime(t *testing.T) {
	ms := time.Millisecond
	cases := []struct {
		name  string
		spans []span
		self  map[string]time.Duration
	}{
		{"no children: self is the whole span",
			[]span{{Name: "a.x", Parent: -1, Start: 0, End: 10 * ms}},
			map[string]time.Duration{"a.x": 10 * ms}},
		{"two disjoint children",
			[]span{
				{Name: "a.x", Parent: -1, Start: 0, End: 10 * ms},
				{Name: "b.y", Parent: 0, Start: 1 * ms, End: 3 * ms},
				{Name: "b.y", Parent: 0, Start: 5 * ms, End: 9 * ms},
			},
			map[string]time.Duration{"a.x": 4 * ms, "b.y": 6 * ms}},
		{"overlapping children are not double-counted",
			[]span{
				{Name: "a.x", Parent: -1, Start: 0, End: 10 * ms},
				{Name: "b.y", Parent: 0, Start: 2 * ms, End: 6 * ms},
				{Name: "c.z", Parent: 0, Start: 4 * ms, End: 8 * ms},
			},
			map[string]time.Duration{"a.x": 4 * ms, "b.y": 4 * ms, "c.z": 4 * ms}},
		{"grandchildren come off the child, not the root",
			[]span{
				{Name: "a.x", Parent: -1, Start: 0, End: 10 * ms},
				{Name: "b.y", Parent: 0, Start: 2 * ms, End: 8 * ms},
				{Name: "c.z", Parent: 1, Start: 3 * ms, End: 5 * ms},
			},
			map[string]time.Duration{"a.x": 4 * ms, "b.y": 4 * ms, "c.z": 2 * ms}},
		{"a child running past its parent is clipped; unfinished spans are skipped",
			[]span{
				{Name: "a.x", Parent: -1, Start: 0, End: 10 * ms},
				{Name: "b.y", Parent: 0, Start: 8 * ms, End: 12 * ms},
				{Name: "c.z", Parent: 0, Start: 1 * ms, End: -1},
			},
			map[string]time.Duration{"a.x": 8 * ms, "b.y": 4 * ms}},
	}
	for _, c := range cases {
		got := map[string]time.Duration{}
		for _, tot := range selfTimes(c.spans) {
			got[tot.Name] = tot.Self
		}
		if len(got) != len(c.self) {
			t.Errorf("%s: got %v, want %v", c.name, got, c.self)
			continue
		}
		for name, want := range c.self {
			if got[name] != want {
				t.Errorf("%s: self(%s) = %v, want %v", c.name, name, got[name], want)
			}
		}
	}
}

func TestWorseBy(t *testing.T) {
	if got := worseBy(100, 110, "lower"); math.Abs(got-0.10) > 1e-12 {
		t.Errorf("lower-is-better 100->110 = %g, want +0.10", got)
	}
	if got := worseBy(100, 90, "higher"); math.Abs(got-0.10) > 1e-12 {
		t.Errorf("higher-is-better 100->90 = %g, want +0.10", got)
	}
	if got := worseBy(100, 120, "higher"); got >= 0 {
		t.Errorf("higher-is-better 100->120 = %g, want negative (better)", got)
	}
}
