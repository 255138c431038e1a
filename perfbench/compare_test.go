package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestJudge(t *testing.T) {
	ten := func(v float64) []float64 {
		xs := make([]float64, 10)
		for i := range xs {
			xs[i] = v + float64(i%5)*0.01*v
		}
		return xs
	}
	for _, c := range []struct {
		name        string
		a, b        []float64
		lowerBetter bool
		bound       float64
		want        string
	}{
		// Identical runs: every pair ties, and ties count for neither side.
		{"ties", ten(100), ten(100), true, 0.1, withinBound},
		// Zero spread (a deterministic count): any strict win on every
		// pair beats a zero quartile distance.
		{"zero IQR improved", []float64{5, 5, 5}, []float64{4, 4, 4}, true, 0.1, improved},
		{"zero IQR worse", []float64{5, 5, 5}, []float64{6, 6, 6}, true, 0.1, worse},
		{"zero IQR equal", []float64{5, 5, 5}, []float64{5, 5, 5}, true, 0.1, withinBound},
		{"higher is better", ten(100), ten(130), false, 0.1, improved},
		{"worse beyond bound", ten(100), ten(120), true, 0.1, worse},
		{"worse within bound", ten(100), ten(103), true, 0.1, withinBound},
		// Spread wider than the bound and no clean separation.
		{"unresolved", []float64{80, 100, 120, 90, 110}, []float64{85, 105, 95, 115, 100}, true, 0.1, unresolved},
		// Wide spread but every change run beats every parent run, yet
		// the gain is inside the parent's spread: not unresolved.
		{"wide but separated", []float64{100, 120, 140}, []float64{95, 96, 97}, true, 0.1, withinBound},
		// Wins on 8 of 10 pairs is below nine tenths.
		{"too few wins", ten(100), append(ten(80)[:8], 200, 200), true, 5, withinBound},
	} {
		if got := judge(c.a, c.b, c.lowerBetter, c.bound); got.verdict != c.want {
			t.Errorf("%s: verdict %q (wins %d/%d, medians %v→%v), want %q",
				c.name, got.verdict, got.wins, got.pairs, got.medA, got.medB, c.want)
		}
	}
}

func TestCompareCommand(t *testing.T) {
	dir := t.TempDir()
	spec := filepath.Join(dir, "BENCHMARK.json")
	write := func(path, s string) {
		t.Helper()
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(s), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write(spec, `{"end_to_end":[{"name":"op_p50_ms","unit":"ms","better":"lower","bound":0.1}]}`)
	run := func(side string, seed int, v string) {
		write(filepath.Join(dir, side, "r"+v+string(rune('0'+seed))+".out"), "bench: workload=w seed="+string(rune('0'+seed))+" ops=1\n"+
			`{"correct":true,"attempted":1,"failed":0,"metrics":{"op_p50_ms":{"value":`+v+`,"unit":"ms"}}}`+"\n")
	}
	for seed := 1; seed <= 3; seed++ {
		run("a", seed, "10")
		run("b", seed, "20")
	}
	write(filepath.Join(dir, "a", "r1.err"), "not a run output\n")
	var out, errs strings.Builder
	code := compareMain(spec, []string{filepath.Join(dir, "a"), filepath.Join(dir, "b")}, &out, &errs)
	if code != 1 || !strings.Contains(out.String(), worse) {
		t.Fatalf("exit %d, output:\n%s%s", code, out.String(), errs.String())
	}
	code = compareMain(spec, []string{filepath.Join(dir, "a"), filepath.Join(dir, "a")}, &out, &errs)
	if code != 0 {
		t.Fatalf("self-comparison exit %d", code)
	}
}
