package main

import (
	"math"
	"runtime"
	"testing"
)

// exactCounts are the per-layer work counts that must repeat exactly:
// they are pure functions of (workload, seed, Workers), so neither a
// rerun nor GOMAXPROCS may move them.
var exactCounts = []string{
	"bcpop.lp_solves_per_gen",
	"lp.pivots_per_solve",
	"gp.vm_instrs_per_gen",
	"covering.greedy_added_per_eval",
}

// tracedCounts runs the traced path of one workload once: the first
// two continuations of an engine workload, or the traced in-process run
// of one served job spec.
func tracedCounts(t *testing.T, name string, seed uint64) *layers {
	t.Helper()
	acc := &layers{}
	if name == servedName {
		if _, err := tracedReference(servedSpec(seed), acc); err != nil {
			t.Fatal(err)
		}
		return acc
	}
	w, ok := findEngineWorkload(name)
	if !ok {
		t.Fatalf("no workload %q", name)
	}
	r, err := prepare(w, seed)
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < 2; k++ {
		if _, err := r.rep(k); err != nil {
			t.Fatal(err)
		}
		same, err := r.tracedRep(k, acc)
		if err != nil {
			t.Fatal(err)
		}
		if !same {
			t.Errorf("continuation %d: traced rep ended off the untraced digest", k)
		}
	}
	return acc
}

func TestLayerCountsRepeatExactly(t *testing.T) {
	if testing.Short() {
		t.Skip("steps paper-scale engines")
	}
	const seed = 7
	for _, name := range workloadNames() {
		t.Run(name, func(t *testing.T) {
			var want map[string]float64
			var wantSkips int64
			for i, procs := range []int{1, 2, 1, 2} {
				prev := runtime.GOMAXPROCS(procs)
				acc := tracedCounts(t, name, seed)
				runtime.GOMAXPROCS(prev)
				if acc.mismatches != 0 {
					t.Errorf("GOMAXPROCS=%d: %d replay results disagree with the engine's (solve or skip counts, LP bounds, greedy costs)",
						procs, acc.mismatches)
				}
				if acc.engineSolves != int64(acc.solves) {
					t.Errorf("GOMAXPROCS=%d: replay solved %d LPs, engine counted %d", procs, acc.solves, acc.engineSolves)
				}
				m := acc.metrics()
				got := map[string]float64{}
				for _, k := range exactCounts {
					got[k] = m[k].Value
					if got[k] <= 0 || math.IsNaN(got[k]) {
						t.Errorf("GOMAXPROCS=%d: %s = %v, want a positive count", procs, k, got[k])
					}
				}
				if i == 0 {
					want, wantSkips = got, acc.engineSkips
					continue
				}
				for _, k := range exactCounts {
					if got[k] != want[k] {
						t.Errorf("run %d (GOMAXPROCS=%d): %s = %v, first run %v", i+1, procs, k, got[k], want[k])
					}
				}
				if acc.engineSkips != wantSkips {
					t.Errorf("run %d (GOMAXPROCS=%d): %d surrogate skips, first run %d", i+1, procs, acc.engineSkips, wantSkips)
				}
			}
			if name == "surr-n250m30" && wantSkips == 0 {
				t.Errorf("surrogate workload skipped no LP solve")
			}
		})
	}
}

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	xs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	q1, q3 := quartiles(xs)
	if q1 != 2.75 || q3 != 8.25 {
		t.Fatalf("quartiles = %v, %v; want 2.75, 8.25", q1, q3)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	q1, q3 = quartiles([]float64{4, 1, 2})
	if q1 != 1 || q3 != 4 {
		t.Fatalf("quartiles = %v, %v; want 1, 4", q1, q3)
	}
}
