package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// specMetric is one end-to-end metric as BENCHMARK.json declares it.
type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// savedRun is one run's output file: its workload and seed from the
// "bench:" line, and the metrics from the final JSON line.
type savedRun struct {
	workload string
	seed     int64
	res      result
}

// readRuns loads every run output file (*.out) in dir.
func readRuns(dir string) ([]savedRun, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var runs []savedRun
	for _, e := range entries {
		if !e.Type().IsRegular() || !strings.HasSuffix(e.Name(), ".out") {
			continue
		}
		r, err := readRun(filepath.Join(dir, e.Name()))
		if err != nil {
			return nil, err
		}
		runs = append(runs, r)
	}
	return runs, nil
}

func readRun(path string) (savedRun, error) {
	f, err := os.Open(path)
	if err != nil {
		return savedRun{}, err
	}
	defer f.Close()
	var r savedRun
	var last string
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if strings.HasPrefix(line, "bench: workload=") {
			if _, err := fmt.Sscanf(line, "bench: workload=%s seed=%d", &r.workload, &r.seed); err != nil {
				return r, fmt.Errorf("%s: %v", path, err)
			}
		}
		if line != "" {
			last = line
		}
	}
	if err := sc.Err(); err != nil {
		return r, err
	}
	if r.workload == "" {
		return r, fmt.Errorf("%s: no bench: workload line", path)
	}
	if err := json.Unmarshal([]byte(last), &r.res); err != nil {
		return r, fmt.Errorf("%s: last line: %v", path, err)
	}
	return r, nil
}

// Verdicts, by the rule of the choosing-metrics guide §8.
const (
	improved    = "improved"
	withinBound = "within bound"
	worse       = "worse"
	unresolved  = "unresolved"
)

// judgement compares the change's runs b against the parent's runs a,
// paired by index.
type judgement struct {
	medA, q1A, q3A float64
	medB, q1B, q3B float64
	wins, pairs    int
	verdict        string
}

// judge applies the rule: the change improved the metric when it wins at
// least nine tenths of the pairs (ties count for neither side) and the
// medians differ by more than the parent's own quartile spread; it is worse
// when its median is worse than the parent's by more than bound (a share of
// the parent's median); otherwise, when either side's spread is wider than
// the bound, the result is unresolved unless every run of the change reads
// better than every run of the parent; otherwise it is within bound.
func judge(a, b []float64, lowerBetter bool, bound float64) judgement {
	var j judgement
	j.q1A, j.medA, j.q3A = quartiles(a)
	j.q1B, j.medB, j.q3B = quartiles(b)
	better := func(x, y float64) bool { // x reads better than y
		if lowerBetter {
			return x < y
		}
		return x > y
	}
	j.pairs = min(len(a), len(b))
	for i := 0; i < j.pairs; i++ {
		if better(b[i], a[i]) {
			j.wins++
		}
	}
	gain := j.medB - j.medA
	if lowerBetter {
		gain = -gain
	}
	scale := math.Abs(j.medA)
	switch {
	case j.pairs > 0 && 10*j.wins >= 9*j.pairs && gain > j.q3A-j.q1A:
		j.verdict = improved
	case -gain > bound*scale:
		j.verdict = worse
	case math.Max(j.q3A-j.q1A, j.q3B-j.q1B) > bound*scale && !allBetter(b, a, better):
		j.verdict = unresolved
	default:
		j.verdict = withinBound
	}
	return j
}

// allBetter reports whether every value of b reads better than every value
// of a.
func allBetter(b, a []float64, better func(x, y float64) bool) bool {
	if len(a) == 0 || len(b) == 0 {
		return false
	}
	for _, x := range b {
		for _, y := range a {
			if !better(x, y) {
				return false
			}
		}
	}
	return true
}

// compareMain is "perfbench compare PARENT CHANGE": each directory holds one
// saved stdout per run, named *.out, and specPath is the BENCHMARK.json with
// the metric bounds. It prints one row per workload × end-to-end metric and
// exits 1 when any row is worse.
func compareMain(specPath string, args []string, stdout, stderr io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(stderr, "usage: perfbench compare PARENT_DIR CHANGE_DIR")
		return 2
	}
	raw, err := os.ReadFile(specPath)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	var spec struct {
		EndToEnd []specMetric `json:"end_to_end"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		fmt.Fprintf(stderr, "%s: %v\n", specPath, err)
		return 2
	}
	sides := [2]map[string][]savedRun{}
	for i, dir := range args {
		runs, err := readRuns(dir)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 2
		}
		sides[i] = map[string][]savedRun{}
		for _, r := range runs {
			sides[i][r.workload] = append(sides[i][r.workload], r)
		}
		for _, rs := range sides[i] {
			sort.Slice(rs, func(x, y int) bool { return rs[x].seed < rs[y].seed })
		}
	}
	var names []string
	for w := range sides[0] {
		if _, ok := sides[1][w]; ok {
			names = append(names, w)
		}
	}
	sort.Strings(names)
	fmt.Fprintf(stdout, "%-12s %-18s %26s %26s %7s  %s\n", "workload", "metric", "parent median [q1,q3]", "change median [q1,q3]", "wins", "verdict")
	bad := 0
	for _, w := range names {
		for _, m := range spec.EndToEnd {
			var a, b []float64
			for _, r := range sides[0][w] {
				a = append(a, r.res.Metrics[m.Name].Value)
			}
			for _, r := range sides[1][w] {
				b = append(b, r.res.Metrics[m.Name].Value)
			}
			j := judge(a, b, m.Better == "lower", m.Bound)
			if j.verdict == worse {
				bad++
			}
			fmt.Fprintf(stdout, "%-12s %-18s %10.4g [%.4g,%.4g] %10.4g [%.4g,%.4g] %3d/%-3d  %s (bound %.0f%%)\n",
				w, m.Name, j.medA, j.q1A, j.q3A, j.medB, j.q1B, j.q3B, j.wins, j.pairs, j.verdict, 100*m.Bound)
		}
	}
	if bad > 0 {
		return 1
	}
	return 0
}
