package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
)

// The self-check is an A/A test of the benchmark itself: every workload
// is run N times as two interleaved sets (A, B, A, B, ...) of the same
// binary, run i of either set on seed+i, and each end-to-end metric must
// (a) spread, within a set, by no more than its bound and (b) have set
// medians no further apart than its bound. It is the acceptance rule a
// driver applies to this benchmark, runnable by hand.

// pyQuartiles returns the quartiles the way Python's
// statistics.quantiles(values, n=4) does (the "exclusive" method), so
// the spread printed here is the number a Python driver computes.
func pyQuartiles(vs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0], s[0]
		}
		return 0, 0, 0
	}
	cut := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

// worseBy is how much worse b is than a as a share of a, signed so that
// positive means worse, for a metric where `better` is "lower" or
// "higher".
func worseBy(a, b float64, better string) float64 {
	if a == 0 {
		return 0
	}
	if better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

// driverResult is the one-line JSON object a --trace run prints last.
type driverResult struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	} `json:"metrics"`
}

// runChild runs one workload in a fresh process of this binary and
// parses the last two lines of its output: the run's record, for the
// timings as taken, and the driver line.
func runChild(workload string, seed int64) (*driverResult, map[string]float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, nil, err
	}
	cmd := exec.Command(exe, "--workload", workload, "--seed", strconv.FormatInt(seed, 10),
		"--seconds", strconv.Itoa(runSeconds), "--trace", "0")
	var out, errb bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errb
	runErr := cmd.Run()
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var r driverResult
	var record result
	if len(lines) < 2 || json.Unmarshal([]byte(lines[len(lines)-1]), &r) != nil ||
		json.Unmarshal([]byte(lines[len(lines)-2]), &record) != nil {
		return nil, nil, fmt.Errorf("%s seed %d: no result (%v): %s", workload, seed, runErr, errb.String())
	}
	return &r, record.AsTimed, nil
}

// spreadOf is the interquartile distance of vs over their median.
func spreadOf(vs []float64) (med, spread float64) {
	q1, q2, q3 := pyQuartiles(vs)
	if q2 != 0 {
		spread = (q3 - q1) / q2
	}
	return q2, spread
}

func runSelfcheck(n int, only string, seed int64) int {
	breaches := 0
	for _, w := range workloads {
		if only != "" && w.Name != only {
			continue
		}
		// Per set: the metrics as reported, and the timings as taken.
		var sets, asTimed [2]map[string][]float64
		for set := range sets {
			sets[set], asTimed[set] = map[string][]float64{}, map[string][]float64{}
		}
		for i := 0; i < n; i++ {
			for set := 0; set < 2; set++ {
				r, raw, err := runChild(w.Name, seed+int64(i))
				if err != nil {
					fmt.Fprintln(os.Stderr, err)
					return 2
				}
				if !r.Correct || r.Failed > 0 {
					fmt.Printf("%s seed %d set %c: correct=%v failed=%d of %d\n",
						w.Name, seed+int64(i), 'A'+set, r.Correct, r.Failed, r.Attempted)
					breaches++
				}
				for name, m := range r.Metrics {
					sets[set][name] = append(sets[set][name], m.Value)
				}
				for name, v := range raw {
					asTimed[set][name] = append(asTimed[set][name], v)
				}
				fmt.Fprintf(os.Stderr, "%s: run %d/%d set %c done\n", w.Name, i+1, n, 'A'+set)
			}
		}
		fmt.Printf("== %s  %d runs per set, seeds %d..%d\n", w.Name, n, seed, seed+int64(n)-1)
		fmt.Printf("   %-18s %-8s %13s %13s %8s %8s %8s %6s   %s\n",
			"metric", "unit", "median A", "median B", "spread A", "spread B", "B vs A", "bound", "as timed: spread A, B, B vs A")
		for _, m := range endToEnd {
			medA, spreadA := spreadOf(sets[0][m.Name])
			medB, spreadB := spreadOf(sets[1][m.Name])
			gap := worseBy(medA, medB, m.Better)
			verdict := ""
			// setup_s is exempt from the spread rule (it carries the
			// largest bound and is checked on its medians only).
			if m.Name != "setup_s" && (spreadA > m.Bound || spreadB > m.Bound) {
				verdict += " SPREAD"
			}
			if gap > m.Bound || worseBy(medB, medA, m.Better) > m.Bound {
				verdict += " GAP"
			}
			if verdict != "" {
				breaches++
			}
			fmt.Printf("   %-18s %-8s %13.4f %13.4f %7.2f%% %7.2f%% %+7.2f%% %5.0f%%",
				m.Name, m.Unit, medA, medB, 100*spreadA, 100*spreadB, 100*gap, 100*m.Bound)
			// For the timings the host factor scaled: the same statistics
			// on the values as timed, which gate nothing.
			if rawA := asTimed[0][m.Name]; len(rawA) > 0 {
				tA, sA := spreadOf(rawA)
				tB, sB := spreadOf(asTimed[1][m.Name])
				fmt.Printf("   %6.2f%% %6.2f%% %+7.2f%%", 100*sA, 100*sB, 100*worseBy(tA, tB, m.Better))
			}
			fmt.Println(verdict)
		}
	}
	if breaches > 0 {
		fmt.Printf("self-check: %d breach(es)\n", breaches)
		return 1
	}
	fmt.Println("self-check: every metric within its bound")
	return 0
}
