// Command perfbench is CARBON's paper-scale benchmark: Table II
// populations of 100 on Table III classes, one engine worker, run as
// one of four workloads (see README.md):
//
//	perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//	perfbench -compare A.jsonl B.jsonl
//	perfbench -record-golden <workload>
//
// A run prints one line per metric ("name value unit"), a provenance
// line, and as its last line one JSON object with the keys correct,
// attempted, failed and metrics. --trace 0 reports the end-to-end
// metrics; --trace 1 the per-layer metrics. -record FILE also appends
// the result to FILE for -compare. Run it through run.sh, which builds
// it and runs the stray-process preflight first.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"
)

// buildDir is the checkout-local directory for everything the
// benchmark writes.
const buildDir = ".bench_build"

// setupRuns is how many times a run sets its workload up at least;
// setup_s is the median.
const setupRuns = 25

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type provenance struct {
	NumCPU     int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	GOARCH     string  `json:"goarch"`
	Load1      float64 `json:"loadavg_1m"`
}

func readProvenance() provenance {
	p := provenance{
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), GOARCH: runtime.GOARCH, Load1: -1,
	}
	if b, err := os.ReadFile("/proc/loadavg"); err == nil {
		fmt.Sscanf(string(b), "%g", &p.Load1)
	}
	return p
}

// record is one line of a -record file.
type record struct {
	Workload   string     `json:"workload"`
	Seed       uint64     `json:"seed"`
	Trace      int        `json:"trace"`
	Provenance provenance `json:"provenance"`
	Result     result     `json:"result"`
}

const servedName = "served-n100m5"

func workloadNames() []string {
	var names []string
	for _, w := range engineWorkloads {
		names = append(names, w.name)
	}
	return append(names, servedName)
}

func main() {
	workload := flag.String("workload", "", "workload name: "+strings.Join(workloadNames(), ", "))
	seed := flag.Uint64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 15, "length of the timed window")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	recordTo := flag.String("record", "", "append the result to this JSONL file")
	compare := flag.Bool("compare", false, "compare two -record files: perfbench -compare A.jsonl B.jsonl")
	golden := flag.String("record-golden", "", "print the digest table entries of a workload for seeds 0..20")
	flag.Parse()

	switch {
	case *compare:
		if flag.NArg() != 2 {
			fatalf("-compare needs two record files")
		}
		if err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1)); err != nil {
			fatalf("%v", err)
		}
		return
	case *golden != "":
		if err := recordGolden(*golden, 21); err != nil {
			fatalf("%v", err)
		}
		return
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fatalf("need --seconds ≥ 1 and --trace 0 or 1")
	}
	prov := readProvenance()
	window := time.Duration(*seconds) * time.Second
	var res result
	var err error
	if *workload == servedName {
		res, err = servedWorkload(*seed, window, *trace == 1)
	} else if w, ok := findEngineWorkload(*workload); ok {
		res, err = engineRun(w, *seed, window, *trace == 1)
	} else {
		fatalf("unknown workload %q (want one of %s)", *workload, strings.Join(workloadNames(), ", "))
	}
	if err != nil {
		fatalf("%s: %v", *workload, err)
	}
	res.Correct = res.Failed == 0
	names := make([]string, 0, len(res.Metrics))
	for k := range res.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Printf("%-34s %14.6g %s\n", k, res.Metrics[k].Value, res.Metrics[k].Unit)
	}
	fmt.Printf("%-34s %14.6g ratio (%d of %d operations)\n", "error_rate",
		ratio(float64(res.Failed), float64(res.Attempted)), res.Failed, res.Attempted)
	pj, _ := json.Marshal(prov)
	fmt.Printf("provenance %s\n", pj)
	if *recordTo != "" {
		if err := appendRecord(*recordTo, record{*workload, *seed, *trace, prov, res}); err != nil {
			fatalf("%v", err)
		}
	}
	if !res.Correct {
		fmt.Fprintf(os.Stderr, "perfbench: %d of %d operations failed their correctness check\n", res.Failed, res.Attempted)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fatalf("%v", err)
	}
	fmt.Println(string(out))
}

func appendRecord(path string, rec record) error {
	b, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(b, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	os.Exit(1)
}
