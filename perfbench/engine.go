package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"runtime"
	"time"

	"carbon/internal/bcpop"
	"carbon/internal/checkpoint"
	"carbon/internal/core"
	"carbon/internal/orlib"
	"carbon/internal/rng"
	"carbon/internal/telemetry"
)

// engineWorkload is a resumed-engine workload. A fixed base trajectory
// (baseSeed, stepped baseGens generations) is snapshotted once per run.
// The run's --seed derives continuations PRNG seeds; a rep restores
// the base snapshot with one continuation's PRNG state and steps one
// generation. The relax wave therefore always solves the state's own
// prey and the predator wave runs the state's own trees, while each
// continuation draws its own prey sample (hence its own hunter for the
// prey wave) and its own offspring. Averaging over many continuations
// keeps a run's figures steady across seeds; taking each continuation's
// fastest of several reps keeps them steady on a shared machine.
type engineWorkload struct {
	name          string
	class         orlib.Class
	baseSeed      uint64
	baseGens      int
	baseSurr      bool // the base trajectory carries a warmed surrogate model
	surrogate     bool // reps run with surrogate-assisted LP skipping
	continuations int  // sized so one pass takes 2.5–3.5 s on a 2-CPU amd64 box
}

// minPasses is how many reps of every continuation a run makes at
// least; the window's remaining time adds further passes.
const minPasses = 3

// instanceIndex is the Table III class instance every workload prices.
const instanceIndex = 0

var engineWorkloads = []engineWorkload{
	// Gen 8 of seed 1 is three generations past the surrogate's default
	// warmup; the exact workload ignores the carried model.
	{name: "relax-n250m30", class: orlib.Class{N: 250, M: 30}, baseSeed: 1, baseGens: 8, baseSurr: true, continuations: 12},
	{name: "vmwave-n100m5", class: orlib.Class{N: 100, M: 5}, baseSeed: 1, baseGens: 40, continuations: 60},
	{name: "surr-n250m30", class: orlib.Class{N: 250, M: 30}, baseSeed: 1, baseGens: 8, baseSurr: true, surrogate: true, continuations: 12},
}

func findEngineWorkload(name string) (engineWorkload, bool) {
	for _, w := range engineWorkloads {
		if w.name == name {
			return w, true
		}
	}
	return engineWorkload{}, false
}

// config is the Table II configuration with the pinned single worker
// carbond's JobSpec defaults to, so work counts are machine-independent.
func (w engineWorkload) config(surrogate bool) core.Config {
	cfg := core.DefaultConfig()
	cfg.Seed = w.baseSeed
	cfg.Workers = 1
	cfg.Surrogate.Enabled = surrogate
	return cfg
}

func (w engineWorkload) market() (*bcpop.Market, error) {
	return bcpop.NewMarketFromClass(w.class, instanceIndex)
}

// baseState steps the fixed base trajectory and returns its snapshot.
func (w engineWorkload) baseState(mk *bcpop.Market) (*checkpoint.State, error) {
	eng, err := core.NewEngine(mk, w.config(w.baseSurr))
	if err != nil {
		return nil, err
	}
	for eng.Gens() < w.baseGens {
		if !eng.Step() {
			return nil, fmt.Errorf("%s: base trajectory stopped at generation %d: %v", w.name, eng.Gens(), eng.Err())
		}
	}
	return eng.Snapshot()
}

// resumed is one run's input: the encoded base state, the continuation
// seeds derived from --seed, and what each continuation's first rep
// produced.
type resumed struct {
	w     engineWorkload
	seed  uint64
	mk    *bcpop.Market
	cfg   core.Config
	state []byte
	seeds []uint64

	digest  []string  // snapshot digest after the step ("" until stepped)
	revenue []float64 // best archived leader revenue after the step
	gapPct  []float64 // best archived predator mean %-gap after the step
}

func prepare(w engineWorkload, seed uint64) (*resumed, error) {
	mk, err := w.market()
	if err != nil {
		return nil, err
	}
	st, err := w.baseState(mk)
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := st.Encode(&buf); err != nil {
		return nil, err
	}
	base := &resumed{w: w, mk: mk, cfg: w.config(w.surrogate), state: buf.Bytes()}
	return base.withSeed(seed), nil
}

// withSeed returns the run input for another --seed over the same base
// state, with no continuation stepped yet.
func (r *resumed) withSeed(seed uint64) *resumed {
	n := r.w.continuations
	out := &resumed{
		w: r.w, seed: seed, mk: r.mk, cfg: r.cfg, state: r.state,
		seeds:   make([]uint64, n),
		digest:  make([]string, n),
		revenue: make([]float64, n),
		gapPct:  make([]float64, n),
	}
	src := rng.New(seed)
	for k := range out.seeds {
		out.seeds[k] = src.Uint64()
	}
	return out
}

// restore decodes the base state, installs continuation k's PRNG state
// and rebuilds an engine from it.
func (r *resumed) restore(k int, cfg core.Config) (*core.Engine, error) {
	st, err := checkpoint.DecodeBytes(r.state)
	if err != nil {
		return nil, err
	}
	st.RngState = rng.New(r.seeds[k]).State()
	return core.Restore(r.mk, cfg, st)
}

// digestOf hashes a snapshot's canonical encoding.
func digestOf(st *checkpoint.State) (string, error) {
	var buf bytes.Buffer
	if err := st.Encode(&buf); err != nil {
		return "", err
	}
	sum := sha256.Sum256(buf.Bytes())
	return hex.EncodeToString(sum[:8]), nil
}

// check records continuation k's outcome on its first rep and reports
// whether a later rep reproduced it bit for bit.
func (r *resumed) check(k int, eng *core.Engine) (bool, error) {
	st, err := eng.Snapshot()
	if err != nil {
		return false, err
	}
	d, err := digestOf(st)
	if err != nil {
		return false, err
	}
	if r.digest[k] == "" {
		r.digest[k] = d
		_, r.revenue[k], _ = eng.BestPrey()
		_, r.gapPct[k], _ = eng.BestPredator()
		return true, nil
	}
	return d == r.digest[k], nil
}

// aggregate is the run's recorded digest: a hash of every
// continuation's digest in order (all must have been stepped).
func (r *resumed) aggregate() string {
	h := sha256.New()
	for _, d := range r.digest {
		h.Write([]byte(d))
	}
	return hex.EncodeToString(h.Sum(nil)[:8])
}

// setupTime is one set-up as a user resuming this workload pays it:
// build the market, decode the checkpoint and restore the engine. It
// starts from a collected heap, so earlier work's garbage is not billed.
func (r *resumed) setupTime() (time.Duration, error) {
	runtime.GC()
	t0 := time.Now()
	mk, err := r.w.market()
	if err != nil {
		return 0, err
	}
	st, err := checkpoint.DecodeBytes(r.state)
	if err != nil {
		return 0, err
	}
	if _, err := core.Restore(mk, r.cfg, st); err != nil {
		return 0, err
	}
	return time.Since(t0), nil
}

// repResult is one untraced rep: restore, step, verify.
type repResult struct {
	step    time.Duration // Step wall time
	latency time.Duration // decode + restore + Step
	alloc   uint64        // TotalAlloc growth across the Step
	ok      bool          // the rep reproduced the continuation's first outcome
}

func (r *resumed) rep(k int) (repResult, error) {
	runtime.GC()
	var m0, m1 runtime.MemStats
	t0 := time.Now()
	eng, err := r.restore(k, r.cfg)
	if err != nil {
		return repResult{}, err
	}
	runtime.ReadMemStats(&m0)
	var out repResult
	ts := time.Now()
	ok := eng.Step()
	out.step = time.Since(ts)
	if !ok {
		return repResult{}, fmt.Errorf("step stopped: %v", eng.Err())
	}
	runtime.ReadMemStats(&m1)
	out.latency = time.Since(t0)
	out.alloc = m1.TotalAlloc - m0.TotalAlloc
	out.ok, err = r.check(k, eng)
	return out, err
}

// tracedRep restores continuation k with the engine's Metrics registry
// on and steps one generation through tracedSteps. It reports whether
// the outcome matched the untraced one: tracing must not change a bit.
func (r *resumed) tracedRep(k int, acc *layers) (bool, error) {
	reg := telemetry.NewRegistry()
	cfg := r.cfg
	cfg.Metrics = reg
	eng, err := r.restore(k, cfg)
	if err != nil {
		return false, err
	}
	if err := tracedSteps(eng, reg, r.mk, r.cfg, 1, acc); err != nil {
		return false, err
	}
	return r.check(k, eng)
}

// engineRun measures one resumed-engine workload: passes over the
// continuations until the window closes, at least minPasses of them.
// A rep's work is deterministic, so a machine shared with other tenants
// only ever adds time to it; each continuation's timings (and
// allocation) are therefore those of its fastest (smallest) rep, and
// the metrics summarize those over the continuations.
func engineRun(w engineWorkload, seed uint64, window time.Duration, traced bool) (result, error) {
	t0 := time.Now()
	r, err := prepare(w, seed)
	if err != nil {
		return result{}, err
	}
	fmt.Fprintf(os.Stderr, "perfbench: %s seed %d: base state ready in %.1fs\n", w.name, seed, time.Since(t0).Seconds())
	if traced {
		return engineTraced(r, window)
	}
	var res result
	n := len(r.seeds)
	// Set-ups are spread over the window, so that setup_s samples the
	// machine throughout the run rather than at one instant.
	var setups []float64
	setupEvery := max(1, minPasses*n/setupRuns)
	step := make([]float64, n)  // fastest Step per continuation, ms
	lat := make([]float64, n)   // fastest decode + restore + Step, ms
	alloc := make([]float64, n) // smallest TotalAlloc growth across Step, MB
	deadline := time.Now().Add(window)
	for i := 0; i < minPasses*n || time.Now().Before(deadline); i++ {
		if i%setupEvery == 0 {
			d, err := r.setupTime()
			if err != nil {
				return result{}, err
			}
			setups = append(setups, d.Seconds())
		}
		k := i % n
		rep, err := r.rep(k)
		if err != nil {
			return result{}, err
		}
		if i < n || ms(rep.step) < step[k] {
			step[k] = ms(rep.step)
		}
		if i < n || ms(rep.latency) < lat[k] {
			lat[k] = ms(rep.latency)
		}
		if mb := float64(rep.alloc) / 1e6; i < n || mb < alloc[k] {
			alloc[k] = mb
		}
		res.Attempted++
		if !rep.ok {
			res.Failed++
		}
	}
	want, recorded := goldenDigest(w.name, seed)
	if recorded && want != r.aggregate() {
		fmt.Fprintf(os.Stderr, "perfbench: %s seed %d: digest %s, recorded %s\n", w.name, seed, r.aggregate(), want)
		res.Failed += n
	}
	res.Metrics = map[string]metric{
		"ms_per_gen":         {mean(step), "ms"},
		"setup_s":            {median(setups), "s"},
		"alloc_mb_per_gen":   {mean(alloc), "MB"},
		"ul_revenue":         {mean(r.revenue), "F"},
		"ll_gap_pct":         {mean(r.gapPct), "%"},
		"job_latency_p50_ms": {median(lat), "ms"},
		"job_latency_p90_ms": {quantile(lat, 0.9), "ms"},
		"jobs_per_s":         {1000 / mean(lat), "1/s"},
	}
	fmt.Fprintf(os.Stderr, "perfbench: %d one-generation reps over %d continuations; digest %s (recorded: %t)\n",
		res.Attempted, n, r.aggregate(), recorded)
	return res, nil
}

// engineTraced alternates an untraced and a traced rep of each
// continuation, in passes through the window, then probes the serve and
// cluster layers with a short served loop.
func engineTraced(r *resumed, window time.Duration) (result, error) {
	var res result
	acc := &layers{}
	deadline := time.Now().Add(window)
	for i := 0; i < 2 || time.Now().Before(deadline); i++ {
		k := i % len(r.seeds)
		rep, err := r.rep(k)
		if err != nil {
			return result{}, err
		}
		acc.untraced = append(acc.untraced, ms(rep.step))
		ok, err := r.tracedRep(k, acc)
		if err != nil {
			return result{}, err
		}
		res.Attempted += 2
		if !rep.ok {
			res.Failed++
		}
		if !ok {
			res.Failed++
		}
	}
	res.Failed += acc.mismatches
	res.Metrics = acc.metrics()
	attempted, failed, probe, err := servedProbe(r.seed)
	if err != nil {
		return result{}, err
	}
	res.Attempted += attempted
	res.Failed += failed
	for k, v := range probe {
		res.Metrics[k] = v
	}
	return res, nil
}

// recordGolden prints the digest table entries of workload name for
// seeds 0..n-1.
func recordGolden(name string, n int) error {
	w, ok := findEngineWorkload(name)
	if !ok {
		return fmt.Errorf("no engine workload %q", name)
	}
	base, err := prepare(w, 0)
	if err != nil {
		return err
	}
	fmt.Printf("\t%q: {\n", name)
	for seed := uint64(0); seed < uint64(n); seed++ {
		r := base.withSeed(seed)
		for k := range r.seeds {
			if _, err := r.rep(k); err != nil {
				return err
			}
		}
		fmt.Printf("\t\t%d: %q,\n", seed, r.aggregate())
	}
	fmt.Println("\t},")
	return nil
}
