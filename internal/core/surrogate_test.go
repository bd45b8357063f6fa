package core

import (
	"bytes"
	"math"
	"sort"
	"testing"

	"carbon/internal/bcpop"
	"carbon/internal/checkpoint"
	"carbon/internal/orlib"
	"carbon/internal/telemetry"
)

func surrogateConfig(seed uint64) Config {
	cfg := smallConfig(seed)
	cfg.Surrogate.Enabled = true
	return cfg
}

// TestExactModeGoldenBitIdentical pins the paper-faithful path to the
// engine as it existed before surrogate-assisted skipping: the final
// Result of a whole run must reproduce the pre-surrogate engine
// bit-for-bit, across seeds and worker counts, with the surrogate knob
// at its zero value (the `-exact` mode). The hex constants are
// math.Float64bits of Best.Revenue / Best.GapPct captured from the
// pre-surrogate engine on this exact (market, config) pair — if this
// test fails, the default path changed behavior, which PR-scoped
// refactors must never do.
func TestExactModeGoldenBitIdentical(t *testing.T) {
	golden := []struct {
		seed     uint64
		workers  int
		gens     int
		revBits  uint64
		gapBits  uint64
		bestTree string
	}{
		{7, 1, 12, 0x40a40149693b4ae7, 0x4018d9b5fc683eda, "(- (% (* c xbar) (- b q)) (* (mod b xbar) (% d d)))"},
		{41, 1, 12, 0x40a0e267b5f2dfb0, 0x40146402a48796eb, "xbar"},
		{7, 2, 12, 0x40a40149693b4ae7, 0x4018d9b5fc683eda, "(- (% (* c xbar) (- b q)) (* (mod b xbar) (% d d)))"},
		{41, 2, 12, 0x40a0e267b5f2dfb0, 0x40146402a48796eb, "xbar"},
	}
	mk := smallMarket(t)
	for _, g := range golden {
		cfg := smallConfig(g.seed)
		cfg.Workers = g.workers
		if cfg.Surrogate.Enabled {
			t.Fatal("golden must run the exact path")
		}
		res, err := Run(mk, cfg)
		if err != nil {
			t.Fatalf("seed=%d workers=%d: %v", g.seed, g.workers, err)
		}
		if res.Gens != g.gens {
			t.Errorf("seed=%d workers=%d: gens=%d, want %d", g.seed, g.workers, res.Gens, g.gens)
		}
		if bits := math.Float64bits(res.Best.Revenue); bits != g.revBits {
			t.Errorf("seed=%d workers=%d: revenue bits %#x (%v), want %#x",
				g.seed, g.workers, bits, res.Best.Revenue, g.revBits)
		}
		if bits := math.Float64bits(res.Best.GapPct); bits != g.gapBits {
			t.Errorf("seed=%d workers=%d: gap bits %#x (%v), want %#x",
				g.seed, g.workers, bits, res.Best.GapPct, g.gapBits)
		}
		if res.Best.TreeStr != g.bestTree {
			t.Errorf("seed=%d workers=%d: tree %q, want %q", g.seed, g.workers, res.Best.TreeStr, g.bestTree)
		}
	}
}

// TestSurrogateReducesLPSolves is the headline counter assertion: the
// same run in surrogate mode must spend measurably fewer exact LP
// solves than the exact reference, on the identical generation
// schedule (budget charging is mode-independent by design, so both
// modes run the same number of generations).
func TestSurrogateReducesLPSolves(t *testing.T) {
	mk := smallMarket(t)
	solvesOf := func(cfg Config) (*Result, int64, int64) {
		// Run long enough for steady-state skipping to dominate the
		// warmup generations (~30 generations, skipping from gen 6).
		cfg.ULEvalBudget = 16 * 30
		cfg.LLEvalBudget = 16 * 2 * 30
		reg := telemetry.NewRegistry()
		cfg.Metrics = reg
		res, err := Run(mk, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res, reg.Counter("bcpop.lp_solves").Load(), reg.Counter("core.surrogate_skips").Load()
	}
	exact, exactSolves, exactSkips := solvesOf(smallConfig(7))
	surr, surrSolves, surrSkips := solvesOf(surrogateConfig(7))

	if surr.Gens != exact.Gens {
		t.Fatalf("generation schedules diverged: surrogate %d, exact %d (budget charging must be mode-independent)",
			surr.Gens, exact.Gens)
	}
	if exactSkips != 0 {
		t.Errorf("exact mode reported %d surrogate skips, want 0", exactSkips)
	}
	if surrSkips == 0 {
		t.Error("surrogate mode never skipped a solve")
	}
	if surrSolves >= exactSolves*8/10 {
		t.Errorf("surrogate mode solved %d LPs, exact %d — want a >20%% drop", surrSolves, exactSolves)
	}
	t.Logf("lp_solves: exact=%d surrogate=%d (%.0f%%), %d skips",
		exactSolves, surrSolves, 100*float64(surrSolves)/float64(exactSolves), surrSkips)
}

// TestSurrogateRankTolerance is the documented closeness golden
// (DESIGN.md §5l): surrogate selection runs on predicted fitness, so
// the trajectory diverges from exact mode — in either direction, since
// archives only ever hold exactly-evaluated prey (the surrogate can
// miss a winner but never fabricate one). Per seed the divergence is
// bounded by run-to-run variance; what must hold across a seed panel
// is that the typical divergence is small and carries no systematic
// revenue loss: median |drift| ≤ 5%, mean signed drift within ±10%.
func TestSurrogateRankTolerance(t *testing.T) {
	mk := smallMarket(t)
	seeds := []uint64{1, 3, 7, 11, 23, 41}
	drifts := make([]float64, 0, len(seeds))
	signed := 0.0
	for _, seed := range seeds {
		exact, err := Run(mk, smallConfig(seed))
		if err != nil {
			t.Fatal(err)
		}
		surr, err := Run(mk, surrogateConfig(seed))
		if err != nil {
			t.Fatal(err)
		}
		d := (surr.Best.Revenue - exact.Best.Revenue) / exact.Best.Revenue
		drifts = append(drifts, math.Abs(d))
		signed += d
		t.Logf("seed=%d exact=%.1f surrogate=%.1f drift=%+.2f%%", seed, exact.Best.Revenue, surr.Best.Revenue, 100*d)
	}
	sort.Float64s(drifts)
	median := drifts[len(drifts)/2]
	if len(drifts)%2 == 0 {
		median = (drifts[len(drifts)/2-1] + drifts[len(drifts)/2]) / 2
	}
	mean := signed / float64(len(seeds))
	if median > 0.05 {
		t.Errorf("median |revenue drift| %.2f%% exceeds the documented 5%% rank-tolerance", 100*median)
	}
	if math.Abs(mean) > 0.10 {
		t.Errorf("mean signed revenue drift %+.2f%% exceeds ±10%% — systematic bias", 100*mean)
	}
	t.Logf("median |drift| %.2f%%, mean signed drift %+.2f%%", 100*median, 100*mean)
}

// TestSurrogateDeterministicPerSeed: surrogate mode keeps the
// determinism contract — two runs with the same (Seed, Workers) are
// bit-identical, because surrogate scoring consumes no algorithm RNG
// and the exact-LP subset is a deterministic rule over frozen scores.
func TestSurrogateDeterministicPerSeed(t *testing.T) {
	mk := smallMarket(t)
	for _, workers := range []int{1, 2} {
		cfg := surrogateConfig(11)
		cfg.Workers = workers
		a, err := Run(mk, cfg)
		if err != nil {
			t.Fatal(err)
		}
		b, err := Run(mk, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(a.Best.Revenue) != math.Float64bits(b.Best.Revenue) ||
			math.Float64bits(a.Best.GapPct) != math.Float64bits(b.Best.GapPct) ||
			a.Best.TreeStr != b.Best.TreeStr || a.Gens != b.Gens {
			t.Errorf("workers=%d: surrogate runs diverged: (%v,%v,%q) vs (%v,%v,%q)",
				workers, a.Best.Revenue, a.Best.GapPct, a.Best.TreeStr,
				b.Best.Revenue, b.Best.GapPct, b.Best.TreeStr)
		}
	}
}

// TestSurrogateSnapshotRestoreBitIdentical: interrupting a surrogate
// run mid-stream — after skipping is active, so the model state is
// load-bearing — and restoring through a full Encode/Decode round trip
// must finish bit-identical to the uninterrupted reference.
func TestSurrogateSnapshotRestoreBitIdentical(t *testing.T) {
	mk := smallMarket(t)
	cfg := surrogateConfig(7)

	ref, err := Run(mk, cfg)
	if err != nil {
		t.Fatal(err)
	}

	for _, stopAfter := range []int{3, 8} { // before and after skipping activates
		e, err := NewEngine(mk, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for g := 0; g < stopAfter; g++ {
			if !e.Step() {
				t.Fatalf("engine stopped at gen %d", g)
			}
		}
		st, err := e.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		if stopAfter >= 8 && st.Surrogate == nil {
			t.Fatal("active surrogate run snapshot lacks model state")
		}
		var buf bytes.Buffer
		if err := st.Encode(&buf); err != nil {
			t.Fatal(err)
		}
		st2, err := checkpoint.Decode(&buf)
		if err != nil {
			t.Fatal(err)
		}
		r, err := Restore(mk, cfg, st2)
		if err != nil {
			t.Fatal(err)
		}
		for r.Step() {
		}
		if err := r.Err(); err != nil {
			t.Fatal(err)
		}
		got, err := r.Result()
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(got.Best.Revenue) != math.Float64bits(ref.Best.Revenue) ||
			math.Float64bits(got.Best.GapPct) != math.Float64bits(ref.Best.GapPct) ||
			got.Best.TreeStr != ref.Best.TreeStr || got.Gens != ref.Gens {
			t.Errorf("stop@%d: restored run diverged: (%v,%v,%q,%d) vs (%v,%v,%q,%d)",
				stopAfter, got.Best.Revenue, got.Best.GapPct, got.Best.TreeStr, got.Gens,
				ref.Best.Revenue, ref.Best.GapPct, ref.Best.TreeStr, ref.Gens)
		}
	}
}

// TestRestoreFlipsSurrogateMode pins the fingerprint contract: like
// Interpret, the surrogate knobs are excluded from the checkpoint
// fingerprint, so a resume can flip surrogate on or off (or retune
// top-k) without a mismatch — in both directions.
func TestRestoreFlipsSurrogateMode(t *testing.T) {
	mk := smallMarket(t)

	runHalf := func(cfg Config) *checkpoint.State {
		e, err := NewEngine(mk, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for g := 0; g < 6; g++ {
			if !e.Step() {
				t.Fatalf("engine stopped at gen %d", g)
			}
		}
		st, err := e.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		return st
	}

	// exact → surrogate: no stored model state; the fresh model re-warms.
	st := runHalf(smallConfig(7))
	if st.Surrogate != nil {
		t.Fatal("exact-mode snapshot carries surrogate state")
	}
	surrCfg := surrogateConfig(7)
	e, err := Restore(mk, surrCfg, st)
	if err != nil {
		t.Fatalf("exact snapshot refused under surrogate config: %v", err)
	}
	for e.Step() {
	}
	if err := e.Err(); err != nil {
		t.Fatal(err)
	}

	// surrogate → exact: stored model state is ignored.
	st = runHalf(surrogateConfig(7))
	if st.Surrogate == nil {
		t.Fatal("surrogate-mode snapshot lacks model state")
	}
	e, err = Restore(mk, smallConfig(7), st)
	if err != nil {
		t.Fatalf("surrogate snapshot refused under exact config: %v", err)
	}
	for e.Step() {
	}
	if err := e.Err(); err != nil {
		t.Fatal(err)
	}

	// surrogate → retuned surrogate: same fingerprint, different knobs.
	st = runHalf(surrogateConfig(7))
	tuned := surrogateConfig(7)
	tuned.Surrogate.TopK = 8
	tuned.Surrogate.Uncertain = 1
	if _, err := Restore(mk, tuned, st); err != nil {
		t.Fatalf("surrogate snapshot refused under retuned knobs: %v", err)
	}
}

// TestSurrogateDriftRaisesError: a market shift mid-stream — restore
// the snapshot on a same-shape but different instance, which the
// fingerprint deliberately accepts — must show up as a surrogate-error
// spike in the telemetry, because the model keeps predicting the old
// market's value landscape. ErrLB is the drift signal: the LP bound is
// nearly linear in price, so the model tracks it tightly
// in-distribution (~1% here) and a cost shift throws it off by an
// order of magnitude. This is the engine-side half of the drift story;
// tracestat turns the spike into a "surrogate-drift" anomaly flag (see
// tracestat's own tests).
func TestSurrogateDriftRaisesError(t *testing.T) {
	mkA := smallMarket(t)
	mkB, err := bcpop.NewMarketFromClass(orlib.Class{N: 60, M: 5}, 9)
	if err != nil {
		t.Fatal(err)
	}

	var baseline []float64 // active-generation ErrLB on market A
	cfg := surrogateConfig(7)
	cfg.Observer = FuncObserver{Generation: func(gs GenStats) {
		if gs.Surr != nil && gs.Surr.Active {
			baseline = append(baseline, gs.Surr.ErrLB)
		}
	}}
	e, err := NewEngine(mkA, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for g := 0; g < 10; g++ {
		if !e.Step() {
			t.Fatalf("engine stopped at gen %d", g)
		}
	}
	st, err := e.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if len(baseline) == 0 {
		t.Fatal("skipping never activated on market A")
	}
	baseMean := 0.0
	for _, v := range baseline {
		baseMean += v
	}
	baseMean /= float64(len(baseline))

	var shifted []float64
	cfg2 := surrogateConfig(7)
	cfg2.ULEvalBudget = 16 * 14 // headroom to keep stepping past the snapshot
	cfg2.LLEvalBudget = 16 * 2 * 14
	cfg2.Observer = FuncObserver{Generation: func(gs GenStats) {
		if gs.Surr != nil && gs.Surr.Active {
			shifted = append(shifted, gs.Surr.ErrLB)
		}
	}}
	r, err := Restore(mkB, cfg2, st)
	if err != nil {
		t.Fatalf("same-shape market shift refused: %v", err)
	}
	for g := 0; g < 2; g++ {
		if !r.Step() {
			t.Fatalf("restored engine stopped at gen %d: %v", g, r.Err())
		}
	}
	if len(shifted) == 0 {
		t.Fatal("skipping not active after restore")
	}
	if shifted[0] <= 3*baseMean || shifted[0] <= 0.05 {
		t.Errorf("market shift did not spike surrogate LB error: first shifted gen %.4f vs baseline mean %.4f",
			shifted[0], baseMean)
	}
	t.Logf("baseline mean errlb %.4f over %d gens; post-shift errlb %.4f", baseMean, len(baseline), shifted[0])
}

// BenchmarkEngineStepSurrogate is BenchmarkEngineStep with skipping
// on: the lp_solves/gen metric shows how many exact solves the skip
// policy leaves in steady state (compare against EngineStep's).
func BenchmarkEngineStepSurrogate(b *testing.B) {
	mk := smallMarket(b)
	cfg := surrogateConfig(1)
	cfg.Workers = 1 // lp_solves/gen must not depend on the machine's CPU count
	cfg.ULEvalBudget = 1 << 30
	cfg.LLEvalBudget = 1 << 30
	reg := telemetry.NewRegistry()
	cfg.Metrics = reg
	e, err := NewEngine(mk, cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !e.Step() {
			b.Fatal(e.Err())
		}
	}
	b.StopTimer()
	solves := reg.Counter("bcpop.lp_solves").Load()
	b.ReportMetric(float64(solves)/float64(b.N), "lp_solves/gen")
	skips := reg.Counter("core.surrogate_skips").Load()
	b.ReportMetric(float64(skips)/float64(b.N), "skips/gen")
}
