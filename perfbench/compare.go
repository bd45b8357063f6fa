package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
	"sort"
)

// benchSpec is the part of BENCHMARK.json the comparison needs.
type benchSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

func readRecords(path string) (map[string][]result, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := map[string][]result{}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		var rec record
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if rec.Trace == 0 {
			out[rec.Workload] = append(out[rec.Workload], rec.Result)
		}
	}
	return out, sc.Err()
}

// compareFiles is the A/A (or A/B) comparison of two result sets: per
// (end-to-end metric, workload) it reports each side's median and
// quartiles, the spread (Q3−Q1)/median against the metric's bound, and
// a verdict. A pair whose spread exceeds the bound on either side is
// "unresolved", never "unchanged", unless the two sides' runs do not
// overlap at all.
func compareFiles(w io.Writer, pathA, pathB string) error {
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return err
	}
	var spec benchSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	a, err := readRecords(pathA)
	if err != nil {
		return err
	}
	b, err := readRecords(pathB)
	if err != nil {
		return err
	}
	var names []string
	for k := range a {
		names = append(names, k)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "%-15s %-20s %5s %12s %12s %12s %7s %12s %12s %12s %7s %6s %8s  %s\n",
		"workload", "metric", "runs", "A.q1", "A.median", "A.q3", "A.sprd", "B.q1", "B.median", "B.q3", "B.sprd", "bound", "worse%", "verdict")
	failed := false
	for _, wl := range names {
		for _, m := range spec.EndToEnd {
			va, vb := values(a[wl], m.Name), values(b[wl], m.Name)
			if len(va) < 2 || len(vb) < 2 {
				continue
			}
			qa1, qa3 := quartiles(va)
			qb1, qb3 := quartiles(vb)
			ma, mb := median(va), median(vb)
			sa, sb := (qa3-qa1)/math.Abs(ma), (qb3-qb1)/math.Abs(mb)
			change := (mb - ma) / math.Abs(ma)
			if m.Better == "higher" {
				change = -change
			}
			// A spread wider than the bound leaves the pair unresolved,
			// unless every run of one side reads worse than every run of
			// the other.
			noisy := m.Name != "setup_s" && (sa > m.Bound || sb > m.Bound)
			apart := slices.Max(va) < slices.Min(vb) || slices.Min(va) > slices.Max(vb)
			verdict := "unchanged"
			switch {
			case noisy && !apart:
				verdict = "unresolved"
			case change > m.Bound || (noisy && change > 0):
				verdict = "worse"
				failed = true
			case change < -m.Bound || noisy:
				verdict = "better"
			}
			fmt.Fprintf(w, "%-15s %-20s %2d/%-2d %12.5g %12.5g %12.5g %7.3f %12.5g %12.5g %12.5g %7.3f %6.3f %+8.1f  %s\n",
				wl, m.Name, len(va), len(vb), qa1, ma, qa3, sa, qb1, mb, qb3, sb, m.Bound, 100*change, verdict)
			if verdict == "unresolved" {
				failed = true
			}
		}
	}
	if failed {
		return fmt.Errorf("comparison has worse or unresolved pairs")
	}
	return nil
}

func values(rs []result, name string) []float64 {
	var out []float64
	for _, r := range rs {
		if m, ok := r.Metrics[name]; ok {
			out = append(out, m.Value)
		}
	}
	return out
}
