package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime/pprof"
	"sort"
	"strconv"
	"sync"
	"time"

	"carbon/internal/archive"
	"carbon/internal/bcpop"
	"carbon/internal/covering"
	"carbon/internal/ga"
	"carbon/internal/gp"
	"carbon/internal/par"
	"carbon/internal/rng"
	"carbon/internal/span"
	"carbon/internal/stats"
	"carbon/internal/surrogate"
	"carbon/internal/telemetry"
)

// Engine is a steppable CARBON run: one Step is one co-evolutionary
// generation (predator evaluation → prey evaluation → archive updates →
// breeding). Run wraps it in the usual budget loop; the island model
// (RunIslands) steps several engines side by side and migrates elites
// between them; user code can step an engine directly for custom
// stopping rules or live monitoring.
type Engine struct {
	mk      *bcpop.Market
	cfg     Config
	set     *gp.Set
	evs     []*bcpop.Evaluator
	workers int
	r       *rng.Rand
	bounds  ga.Bounds

	prey      [][]float64
	predators []gp.Tree
	preyFit   []float64
	predFit   []float64
	preyGap   []float64

	// Shared-relaxation cache: per generation, one LP solve per
	// distinct prey genotype feeds every (predator, prey) pairing of
	// both evaluation waves. preySlot[i] is prey i's slot in cache;
	// missing is the fill wave's scratch (first-occurrence prey index
	// per fresh slot).
	cache    *bcpop.Cache
	preySlot []int
	missing  []int

	// Surrogate-assisted LP skipping (DESIGN.md §5l). surr is nil
	// unless Config.Surrogate.Enabled — the exact path then compiles to
	// exactly the pre-surrogate engine (gated branches only). All the
	// per-slot scratch is coordinator-owned: the skip plan is frozen
	// before the relax wave starts, and the wave closures only read it.
	surr     *surrogate.Model
	surrCfg  surrogate.Config // resolved knobs; meaningful iff surr != nil
	slotSkip []bool           // per slot: surrogate-scored, no LP this gen
	slotPred []float64        // per slot: predicted revenue
	slotUnc  []float64        // per slot: model leverage (uncertainty)
	slotRank []int            // sort scratch for the skip plan
	exactIdx []int            // relax worklist under skipping (first-occurrence prey indices)

	ulArch *archive.Archive[[]float64]
	gpArch *archive.Archive[gp.Tree]

	res            *Result
	ulUsed, llUsed int

	// Telemetry and failure state. obs/met/spans are nil when telemetry
	// is off — the hot path then takes the uninstrumented branch with no
	// clock reads and no allocations.
	obs    Observer
	met    *engineMetrics
	island int

	// Span tracing (Config.Spans). spanParent roots each generation
	// span; spanLPEvery is the resolved lp.solve sampling stride.
	spans       *span.Tracer
	spanParent  span.Context
	spanLPEvery int

	// Failure state. An evaluation that fails mid-wave no longer kills
	// the run: the affected individual is quarantined for the
	// generation (worst-known fitness, kept out of the archives) and
	// faults counts every quarantine. Only a generation with zero
	// successful evaluations in a wave is terminal — err records that
	// cause and Step refuses to run again. mu guards err and faults so
	// Err/Faults may be polled concurrently with Step (a serving
	// front end watching a live engine).
	mu     sync.Mutex
	err    error
	faults int

	// Per-generation quarantine scratch, reused every Step. slotErr is
	// indexed by cache slot (relaxation failures); preyErr/predErr by
	// population index. Wave closures write disjoint indices, so the
	// slices need no locking.
	slotErr  []error
	preyErr  []error
	predErr  []error
	predQuar []bool

	// LP fault replay (Config.LPFault). The coordinator draws each
	// solve's fault decision in worklist order before a wave's solves
	// start (lpDraws), and lpDue[w] hands worker w's solver the
	// decision for the solve it runs next. The n-th draw thus always
	// decides the n-th solve of the serial order, whatever the worker
	// count or the scheduling.
	lpDue   []error
	lpDraws []error

	// Search-dynamics introspection (DESIGN.md §5f). Everything below
	// is inert until the first Step with an observer attached, consumes
	// no RNG and issues no extra LP solves, so a run is bit-identical
	// with it on or off. led is the provenance ledger; gapMat collects
	// the paired-evaluation %-gap matrix in pairing-index order;
	// preyOrigins/predOrigins describe how the CURRENT populations were
	// bred from the previous ones, whose fitness is kept in
	// prevPreyFit/prevPredFit for operator-success accounting.
	led          *lineage
	gapMat       []float64
	gapSketch    *telemetry.QuantileSketch
	prevPreyFit  []float64
	prevPredFit  []float64
	preyOrigins  []origin
	predOrigins  []origin
	prevSizeMean float64
}

// engineMetrics holds the engine's registered instruments. All handles
// come from one telemetry.Registry, so islands sharing a registry
// aggregate into the same counters.
type engineMetrics struct {
	gens      *telemetry.Counter
	ulEvals   *telemetry.Counter
	llEvals   *telemetry.Counter
	surrSkips *telemetry.Counter
	surrExact *telemetry.Counter
	relax     *telemetry.Timer
	predEval  *telemetry.Timer
	preyEval  *telemetry.Timer
	breed     *telemetry.Timer
	wave      *par.WaveMetrics
}

func newEngineMetrics(reg *telemetry.Registry) *engineMetrics {
	if reg == nil {
		return nil
	}
	return &engineMetrics{
		gens:      reg.Counter("core.generations"),
		ulEvals:   reg.Counter("core.ul_evals"),
		llEvals:   reg.Counter("core.ll_evals"),
		surrSkips: reg.Counter("core.surrogate_skips"),
		surrExact: reg.Counter("core.surrogate_exact_solves"),
		relax:     reg.Timer("core.relax_precompute"),
		predEval:  reg.Timer("core.predator_eval"),
		preyEval:  reg.Timer("core.prey_eval"),
		breed:     reg.Timer("core.breed"),
		wave:      par.NewWaveMetrics(reg, "par.eval"),
	}
}

// NewEngine validates the configuration and initializes populations,
// archives and per-worker evaluators.
func NewEngine(mk *bcpop.Market, cfg Config) (*Engine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	set := cfg.PrimitiveSet
	if set == nil {
		set = covering.TableISet()
	}
	workers := par.Workers(cfg.Workers)
	evs := make([]*bcpop.Evaluator, workers)
	for i := range evs {
		ev, err := bcpop.NewEvaluator(mk, set)
		if err != nil {
			return nil, err
		}
		ev.Eliminate = !cfg.NoElimination
		evs[i] = ev
	}
	e := &Engine{
		mk: mk, cfg: cfg, set: set, evs: evs, workers: workers,
		r:          rng.New(cfg.Seed),
		bounds:     mk.PriceBounds(),
		res:        &Result{},
		obs:        cfg.Observer,
		met:        newEngineMetrics(cfg.Metrics),
		spans:      cfg.Spans,
		spanParent: cfg.SpanParent,
	}
	switch {
	case cfg.SpanLPEvery > 0:
		e.spanLPEvery = cfg.SpanLPEvery
	case cfg.SpanLPEvery == 0:
		e.spanLPEvery = 8
	}
	if em := bcpop.NewEvalMetrics(cfg.Metrics); em != nil {
		for _, ev := range evs {
			ev.Metrics = em
		}
	}
	if cfg.LPFault != nil {
		e.lpDue = make([]error, len(evs))
		for w, ev := range evs {
			ev.SetLPFault(func() error { return e.lpDue[w] })
		}
	}
	for _, ev := range evs {
		ev.EvalFault = cfg.EvalFault
	}
	e.prey = make([][]float64, cfg.ULPopSize)
	for i := range e.prey {
		e.prey[i] = e.bounds.RandomVector(e.r)
	}
	e.predators = make([]gp.Tree, cfg.LLPopSize)
	for i := range e.predators {
		e.predators[i] = set.Ramped(e.r, cfg.InitDepthMin, cfg.InitDepthMax)
	}
	e.preyFit = make([]float64, cfg.ULPopSize)
	e.predFit = make([]float64, cfg.LLPopSize)
	e.preyGap = make([]float64, cfg.ULPopSize)
	e.cache = bcpop.NewCache()
	e.preySlot = make([]int, cfg.ULPopSize)
	e.missing = make([]int, 0, cfg.ULPopSize)
	e.slotErr = make([]error, 0, cfg.ULPopSize)
	e.preyErr = make([]error, cfg.ULPopSize)
	e.predErr = make([]error, cfg.LLPopSize)
	e.predQuar = make([]bool, cfg.LLPopSize)
	e.ulArch = archive.New[[]float64](cfg.ULArchiveSize, false, priceKey)
	e.gpArch = archive.New[gp.Tree](cfg.LLArchiveSize, true,
		func(t gp.Tree) string { return t.String(set) })
	if cfg.Surrogate.Enabled {
		e.surrCfg = cfg.Surrogate.Resolved(cfg.ULPopSize, mk.Leaders())
		e.surr = surrogate.New(mk.Leaders(), e.surrCfg)
	}
	return e, nil
}

// CanStep reports whether another generation fits in both budgets. The
// lower-level charge uses Config.EffectiveSample — what Step actually
// spends — not the raw PreySample: charging the unclamped value used to
// stop PreySample > ULPopSize runs early with budget to spare.
func (e *Engine) CanStep() bool {
	return e.ulUsed+e.cfg.ULPopSize <= e.cfg.ULEvalBudget &&
		e.llUsed+e.cfg.LLPopSize*e.cfg.EffectiveSample() <= e.cfg.LLEvalBudget
}

// Gens returns the number of completed generations.
func (e *Engine) Gens() int { return e.res.Gens }

// SetObserver installs (or, with nil, removes) the per-generation hook
// after construction. Prefer Config.Observer; this exists so callers
// stepping an engine directly can attach monitoring mid-run.
func (e *Engine) SetObserver(obs Observer) { e.obs = obs }

// Err returns the terminal error of a failed Step, or nil. Once set the
// engine refuses to step further. Individual evaluation failures are
// NOT terminal — they quarantine the affected individual for the
// generation and show up in Faults; a Step is terminal only when an
// entire evaluation wave produced zero successful evaluations (every
// relaxation failed, every predator pairing failed, or every prey
// evaluation failed), because then the generation has no fitness signal
// at all. Safe to call concurrently with Step.
func (e *Engine) Err() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.err
}

// Faults returns the cumulative number of quarantined evaluations: prey
// whose relaxation or evaluation failed plus predators none of whose
// pairings survived. A fault-free run reports 0. Safe to call
// concurrently with Step.
func (e *Engine) Faults() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.faults
}

// fail records the terminal error of the current Step. The first fail
// wins: Step checks err at entry, so a later generation can never
// overwrite the original cause.
func (e *Engine) fail(err error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.err == nil {
		e.err = err
	}
}

func (e *Engine) addFaults(n int) {
	e.mu.Lock()
	e.faults += n
	e.mu.Unlock()
}

// Step runs one generation. It returns false (and does nothing) when
// the budgets are exhausted or a previous Step failed terminally; in
// the failure case Err reports the cause.
func (e *Engine) Step() bool {
	if e.Err() != nil || !e.CanStep() {
		return false
	}
	// Generation boundaries are warm-start boundaries. Prepare warm-
	// starts from its evaluator's current basis, so resetting every
	// evaluator here makes the generation's solve sequence a pure
	// function of (prey genotypes, worker striping): no solver history —
	// from earlier generations, from a mid-run Result() call, or from
	// compatibility paths like EvalTree used by external callers between
	// Steps — can leak in. This is what keeps a restored run bit-
	// identical to an uninterrupted one (TestSnapshotRestoreGolden).
	for _, ev := range e.evs {
		ev.ResetWarm()
	}
	cfg := e.cfg
	// Predators are evaluated compiled by default: each is lowered to
	// bytecode once per generation (per worker stripe) and swept across
	// the cached prey contexts with that worker's reused VM and greedy
	// scratch — zero allocations in steady state, results bit-identical
	// to the interpreter (cfg.Interpret keeps the tree walker available
	// as the golden reference).
	compiled := !cfg.Interpret
	spansOn := e.spans != nil
	observing := e.obs != nil || e.met != nil || spansOn
	statsOn := e.obs != nil
	if statsOn && e.led == nil {
		e.initLineage()
	}
	var wave *par.WaveMetrics
	if e.met != nil {
		wave = e.met.wave
	}
	// The gen span covers the whole Step (deferred End, so terminal
	// failure paths close it too); each wave gets a child span ended at
	// its barrier. All of it rides the observer switch: an untraced
	// engine pays one nil check.
	var genSpan *span.Span
	if spansOn {
		genSpan = e.spans.Start(e.spanParent, "gen").Kind(span.KindCompute).
			Attr("gen", e.res.Gens+1).Attr("island", e.island)
		defer genSpan.End()
	}
	var evalNanos, breedNanos int64
	var t0 time.Time
	if observing {
		t0 = time.Now()
	}

	// --- Relaxation precompute: one LP solve per distinct prey ---
	// Every quantity the pairings below need from the LP (LB, duals, x̄)
	// depends only on the prey, so the |sample| predator pairings and
	// the prey wave share one Prepared context per distinct genotype.
	// Slots are assigned in prey-index order and the fill wave is
	// striped contiguously, so each worker warm-chains a deterministic
	// subsequence of the missing genotypes: for a fixed (Seed, Workers)
	// the wave reproduces bit-for-bit (see
	// TestRunReproduciblePerWorkerCount).
	sample := e.r.SampleDistinct(cfg.EffectiveSample(), len(e.prey))
	e.cache.Reset()
	missing := e.missing[:0]
	for i, x := range e.prey {
		slot, fresh := e.cache.Slot(x)
		e.preySlot[i] = slot
		if fresh {
			missing = append(missing, i)
		}
	}
	e.missing = missing
	// Surrogate skip plan (DESIGN.md §5l): once the model is warmed up
	// and trusted, only the sampled + predicted-top-k + high-uncertainty
	// genotypes get exact LP solves; the rest are surrogate-scored. The
	// plan is frozen here, on the coordinator, from model state that
	// predates this generation — the exact subset is a deterministic
	// rule over frozen scores, and the scoring consumes zero RNG, so
	// determinism per (Seed, Workers) is untouched. With the surrogate
	// disabled, skipping is false and relaxList is exactly missing: the
	// paper-faithful path, bit-identical to the pre-surrogate engine.
	skipping := e.planSurrogate(sample)
	relaxList := missing
	if skipping {
		ex := e.exactIdx[:0]
		for s, skip := range e.slotSkip {
			if !skip {
				ex = append(ex, missing[s])
			}
		}
		e.exactIdx = ex
		relaxList = ex
	}
	// A failed solve quarantines its slot (slotErr) instead of aborting
	// the wave: the slot's Prepared stays nil, and every prey sharing it
	// is quarantined for this generation. Writes are per-slot disjoint.
	slotErr := e.slotErr[:0]
	for range e.cache.Len() {
		slotErr = append(slotErr, nil)
	}
	e.slotErr = slotErr
	var waveSpan *span.Span
	if spansOn {
		waveSpan = e.spans.Start(genSpan.Context(), "relax").Kind(span.KindCompute).
			Attr("solves", len(relaxList))
	}
	relaxCtx := waveSpan.Context()
	lpEvery := e.spanLPEvery
	draws := e.lpDraws[:0]
	if e.cfg.LPFault != nil {
		for range relaxList {
			draws = append(draws, e.cfg.LPFault())
		}
	}
	e.lpDraws = draws
	e.phase(observing, "relax", func() {
		evalStriped(len(relaxList), e.workers, wave, func(i, worker int) {
			// Sampled lp.solve child spans: every lpEvery-th distinct
			// genotype, so the waterfall shows representative solve
			// latencies without a span per solve. sp is nil off-sample
			// and when tracing is off; every path below ends it.
			var sp *span.Span
			if spansOn && lpEvery > 0 && i%lpEvery == 0 {
				sp = e.spans.Start(relaxCtx, "lp.solve").Kind(span.KindCompute).
					Attr("prey", relaxList[i]).Attr("worker", worker)
			}
			if e.lpDue != nil {
				e.lpDue[worker] = draws[i]
			}
			p, err := e.evs[worker].Prepare(e.prey[relaxList[i]])
			if err != nil {
				sp.Attr("error", true).End()
				slotErr[e.preySlot[relaxList[i]]] = fmt.Errorf("core: prey %d relaxation: %w", relaxList[i], err)
				return
			}
			e.cache.Fill(e.preySlot[relaxList[i]], p)
			sp.End()
		})
	})
	waveSpan.End()
	badSlots := 0
	var firstSlotErr error
	for _, serr := range slotErr {
		if serr != nil {
			badSlots++
			if firstSlotErr == nil {
				firstSlotErr = serr
			}
		}
	}
	if badSlots == len(relaxList) {
		// Not one relaxation survived: the generation has no fitness
		// signal and continuing would evolve on noise. Terminal.
		e.fail(fmt.Errorf("core: generation %d: every relaxation failed: %w", e.res.Gens+1, firstSlotErr))
		return false
	}
	// preyErr carries each prey's quarantine cause across the waves
	// (nil = healthy so far). Relaxation failures propagate through the
	// shared slot; the prey wave below may add evaluation failures.
	for i := range e.prey {
		e.preyErr[i] = slotErr[e.preySlot[i]]
	}
	if observing {
		d := time.Since(t0)
		evalNanos += int64(d)
		if e.met != nil {
			e.met.relax.Observe(d)
		}
		t0 = time.Now()
	}

	// --- Predator evaluation: mean gap over a fresh prey sample ---
	// With stats on, the per-pairing gaps land in gapMat by pairing
	// index: writes are disjoint, so the matrix is identical regardless
	// of worker scheduling and can be folded sequentially afterwards.
	var gm []float64
	ns := len(sample)
	if statsOn {
		if cap(e.gapMat) < len(e.predators)*ns {
			e.gapMat = make([]float64, len(e.predators)*ns)
		}
		gm = e.gapMat[:len(e.predators)*ns]
		// Quarantined pairings leave their cell untouched, so prefill
		// with NaN — the quantile sketch ignores NaN, keeping the gap
		// percentiles an honest summary of the pairings that ran.
		for i := range gm {
			gm[i] = math.NaN()
		}
	}
	// A predator is quarantined when it has no fitness this generation:
	// either one of its pairings failed (predErr) or every sampled prey
	// was already quarantined (pairs == 0). Healthy pairings against
	// quarantined prey are skipped; the mean gap averages over the
	// pairings that ran, which equals the usual mean when nothing
	// faulted. Writes are per-index disjoint.
	if spansOn {
		waveSpan = e.spans.Start(genSpan.Context(), "pred_eval").Kind(span.KindCompute).
			Attr("pairings", len(e.predators)*ns)
	}
	e.phase(observing, "pred_eval", func() {
		evalStriped(len(e.predators), e.workers, wave, func(i, worker int) {
			ev := e.evs[worker]
			e.predErr[i] = nil
			e.predQuar[i] = true
			// Compile once, evaluate against every sampled context. A
			// compile failure (a hostile injected tree, say) quarantines
			// the predator exactly like an evaluation failure would.
			var prog *gp.Program
			if compiled {
				var cerr error
				prog, cerr = ev.CompileTree(e.predators[i])
				if cerr != nil {
					e.predErr[i] = fmt.Errorf("core: predator %d compile: %w", i, cerr)
					return
				}
			}
			total := 0.0
			pairs := 0
			for si, s := range sample {
				p := e.cache.At(e.preySlot[s])
				if p == nil {
					continue // prey s's relaxation faulted this generation
				}
				var out bcpop.Result
				var err error
				if compiled {
					out, _, err = ev.EvalProgramWith(p, prog)
				} else {
					out, _, err = ev.EvalTreeWith(p, e.predators[i])
				}
				if err != nil {
					e.predErr[i] = fmt.Errorf("core: predator %d evaluation: %w", i, err)
					return
				}
				if gm != nil {
					gm[i*ns+si] = out.GapPct
				}
				if cfg.CostFitness {
					total += out.LLCost // ablation: COBRA-style objective
				} else {
					total += out.GapPct // paper: Eq. 1
				}
				pairs++
			}
			if pairs == 0 {
				return
			}
			e.predQuar[i] = false
			e.predFit[i] = total / float64(pairs)
		})
	})
	waveSpan.End()
	quarPred := 0
	var firstPredErr error
	for i := range e.predators {
		if e.predQuar[i] {
			quarPred++
			if firstPredErr == nil && e.predErr[i] != nil {
				firstPredErr = e.predErr[i]
			}
		}
	}
	if quarPred == len(e.predators) {
		if firstPredErr == nil {
			firstPredErr = firstSlotErr
		}
		e.fail(fmt.Errorf("core: generation %d: every predator evaluation failed: %w", e.res.Gens+1, firstPredErr))
		return false
	}
	if quarPred > 0 {
		// Worst-known fitness (predators minimize mean gap) keeps the
		// quarantined out of selection without skewing anyone else. The
		// substitution itself draws no RNG, so faulted runs replay
		// deterministically per (Seed, Workers, fault pattern).
		worst := math.Inf(-1)
		for i := range e.predators {
			if !e.predQuar[i] && e.predFit[i] > worst {
				worst = e.predFit[i]
			}
		}
		for i := range e.predators {
			if e.predQuar[i] {
				e.predFit[i] = worst
			}
		}
	}
	e.llUsed += len(e.predators) * len(sample)
	if observing {
		d := time.Since(t0)
		evalNanos += int64(d)
		if e.met != nil {
			e.met.predEval.Observe(d)
		}
	}

	// Best forecast and archive additions consider only predators that
	// actually earned a fitness this generation — a quarantined predator
	// can neither hunt nor enter the archive on its assigned worst value.
	bestPred := -1
	for i := range e.predators {
		if e.predQuar[i] {
			continue
		}
		if bestPred < 0 || e.predFit[i] < e.predFit[bestPred] {
			bestPred = i
		}
	}
	gpAdds := 0
	for i, t := range e.predators {
		if e.predQuar[i] {
			continue
		}
		if e.gpArch.Add(t.Clone(), e.predFit[i]) {
			gpAdds++
		}
	}

	// --- Prey evaluation: revenue under the best current forecast ---
	if observing {
		t0 = time.Now()
	}
	hunter := e.predators[bestPred]
	// One hunter scores every prey, so compile it once and share the
	// immutable program read-only across workers (each worker executes
	// it on its own VM). The hunter was just compiled and evaluated in
	// the predator wave, so a compile failure here is impossible short
	// of memory corruption — treat it as terminal.
	var hunterProg *gp.Program
	if compiled {
		hp, cerr := gp.Compile(e.set, hunter)
		if cerr != nil {
			e.fail(fmt.Errorf("core: generation %d: hunter compile: %w", e.res.Gens+1, cerr))
			return false
		}
		hunterProg = hp
	}
	if spansOn {
		waveSpan = e.spans.Start(genSpan.Context(), "prey_eval").Kind(span.KindCompute).
			Attr("prey", len(e.prey))
	}
	e.phase(observing, "prey_eval", func() {
		evalStriped(len(e.prey), e.workers, wave, func(i, worker int) {
			if e.preyErr[i] != nil {
				return // relaxation already quarantined this prey
			}
			if skipping && e.slotSkip[e.preySlot[i]] {
				// Surrogate-scored prey: no Prepared context exists, so
				// the predicted revenue stands in as selection fitness
				// (floored at 0, the engine's revenue floor). The NaN
				// gap keeps the skipped pairing out of the gap stats,
				// and the archive pass below refuses surrogate scores —
				// only exactly-evaluated prey can enter the archive.
				rev := e.slotPred[e.preySlot[i]]
				if rev < 0 {
					rev = 0
				}
				e.preyFit[i] = rev
				e.preyGap[i] = math.NaN()
				return
			}
			var out bcpop.Result
			var err error
			if compiled {
				out, _, err = e.evs[worker].EvalProgramWith(e.cache.At(e.preySlot[i]), hunterProg)
			} else {
				out, _, err = e.evs[worker].EvalTreeWith(e.cache.At(e.preySlot[i]), hunter)
			}
			if err != nil {
				e.preyErr[i] = fmt.Errorf("core: prey %d evaluation: %w", i, err)
				return
			}
			if out.Feasible {
				e.preyFit[i] = out.Revenue
			} else {
				e.preyFit[i] = 0
			}
			e.preyGap[i] = out.GapPct
		})
	})
	waveSpan.End()
	quarPrey := 0
	var firstPreyErr error
	for i := range e.prey {
		if e.preyErr[i] == nil {
			continue
		}
		quarPrey++
		if firstPreyErr == nil {
			firstPreyErr = e.preyErr[i]
		}
		// Worst-known fitness: revenue is maximized and never negative,
		// so 0 is the floor (shared with infeasible follower answers).
		// NaN gap keeps the quarantined pairing out of the gap stats.
		e.preyFit[i] = 0
		e.preyGap[i] = math.NaN()
	}
	if quarPrey == len(e.prey) {
		e.fail(fmt.Errorf("core: generation %d: every prey evaluation failed: %w", e.res.Gens+1, firstPreyErr))
		return false
	}
	e.ulUsed += len(e.prey)
	if observing {
		d := time.Since(t0)
		evalNanos += int64(d)
		if e.met != nil {
			e.met.preyEval.Observe(d)
		}
	}

	ulAdds := 0
	for i, x := range e.prey {
		if e.preyErr[i] != nil {
			continue // quarantined: no archive entry on a made-up fitness
		}
		if skipping && e.slotSkip[e.preySlot[i]] {
			continue // surrogate-scored: no archive entry on a predicted fitness
		}
		if e.ulArch.Add(append([]float64(nil), x...), e.preyFit[i]) {
			ulAdds++
		}
	}

	// --- Surrogate residual feedback ---
	// Every exactly-evaluated genotype becomes a training observation:
	// LB from its Prepared relaxation, revenue from the prey wave. Runs
	// sequentially on the coordinator in slot order, so the model state
	// entering the next generation's skip plan is deterministic.
	var surrStats *SurrStats
	if e.surr != nil {
		surrStats = e.feedSurrogate(skipping)
	}

	// --- Fault accounting for the generation ---
	if genFaults := quarPred + quarPrey; genFaults > 0 {
		e.addFaults(genFaults)
		if em := e.evs[0].Metrics; em != nil {
			em.Faults.Add(int64(genFaults))
		}
	}

	// --- Record convergence ---
	e.res.Gens++
	x := float64(e.ulUsed + e.llUsed)
	if be, ok := e.ulArch.Best(); ok {
		e.res.ULCurve.X = append(e.res.ULCurve.X, x)
		e.res.ULCurve.Y = append(e.res.ULCurve.Y, be.Fitness)
	}
	if be, ok := e.gpArch.Best(); ok {
		e.res.GapCurve.X = append(e.res.GapCurve.X, x)
		e.res.GapCurve.Y = append(e.res.GapCurve.Y, be.Fitness)
	}

	// --- Search-dynamics snapshot (observer runs only) ---
	// Computed before breeding, while the fitness arrays still describe
	// the evaluated populations; consumes no RNG and re-uses the
	// generation's own evaluation results.
	var search *SearchStats
	if statsOn {
		search = e.computeSearchStats(gm, ulAdds, gpAdds)
	}

	// --- Breed next generations ---
	if observing {
		t0 = time.Now()
	}
	if spansOn {
		waveSpan = e.spans.Start(genSpan.Context(), "breed").Kind(span.KindCompute)
	}
	var newPrey [][]float64
	var newPred []gp.Tree
	var preyOr, predOr []origin
	e.phase(observing, "breed", func() {
		newPrey, preyOr = breedPrey(e.r, e.prey, e.preyFit, e.bounds, cfg)
		newPred, predOr = breedPredators(e.r, e.set, e.predators, e.predFit, cfg)
	})
	if statsOn {
		e.prevPreyFit = append(e.prevPreyFit[:0], e.preyFit...)
		e.prevPredFit = append(e.prevPredFit[:0], e.predFit...)
		e.led.advance(preyOr, predOr, e.res.Gens)
		e.preyOrigins, e.predOrigins = preyOr, predOr
	}
	e.prey = newPrey
	e.predators = newPred
	waveSpan.End()
	if observing {
		d := time.Since(t0)
		breedNanos = int64(d)
		if e.met != nil {
			e.met.breed.Observe(d)
			e.met.gens.Inc()
			e.met.ulEvals.Add(int64(cfg.ULPopSize))
			e.met.llEvals.Add(int64(cfg.LLPopSize * len(sample)))
		}
	}
	if e.obs != nil {
		e.obs.OnGeneration(e.genStats(evalNanos, breedNanos, search, surrStats))
	}
	return true
}

// planSurrogate freezes this generation's skip plan. It returns false —
// solve everything, the pre-surrogate behavior — until the model is
// past warmup AND has digested enough observations to rank; after that
// it predicts every distinct genotype (in slot order, consuming no RNG)
// and marks as exact: the slots of sampled prey (the predator wave
// needs their Prepared contexts), the TopK slots by predicted revenue
// (the likely winners must be exactly scored — archives never accept
// predictions), and the Uncertain highest-leverage slots among the rest
// (exploration keeps the model honest on new price regions). All ties
// break by slot index, i.e. first-occurrence prey order: the exact
// subset is a deterministic rule over frozen scores.
func (e *Engine) planSurrogate(sample []int) bool {
	if e.surr == nil || e.res.Gens < e.surrCfg.Warmup || !e.surr.Ready() {
		return false
	}
	n := e.cache.Len()
	if cap(e.slotSkip) < n {
		e.slotSkip = make([]bool, n)
		e.slotPred = make([]float64, n)
		e.slotUnc = make([]float64, n)
		e.slotRank = make([]int, n)
		e.exactIdx = make([]int, 0, n)
	}
	skip := e.slotSkip[:n]
	pred := e.slotPred[:n]
	unc := e.slotUnc[:n]
	rank := e.slotRank[:n]
	e.slotSkip, e.slotPred, e.slotUnc, e.slotRank = skip, pred, unc, rank
	for s := 0; s < n; s++ {
		p := e.surr.Predict(e.prey[e.missing[s]])
		pred[s], unc[s] = p.Rev, p.Unc
		skip[s] = true
		rank[s] = s
	}
	for _, i := range sample {
		skip[e.preySlot[i]] = false
	}
	sort.Slice(rank, func(a, b int) bool {
		if pred[rank[a]] != pred[rank[b]] {
			return pred[rank[a]] > pred[rank[b]]
		}
		return rank[a] < rank[b]
	})
	for _, s := range rank[:min(e.surrCfg.TopK, n)] {
		skip[s] = false
	}
	for s := range rank {
		rank[s] = s
	}
	sort.Slice(rank, func(a, b int) bool {
		if unc[rank[a]] != unc[rank[b]] {
			return unc[rank[a]] > unc[rank[b]]
		}
		return rank[a] < rank[b]
	})
	picked := 0
	for _, s := range rank {
		if picked >= e.surrCfg.Uncertain {
			break
		}
		if skip[s] {
			skip[s] = false
			picked++
		}
	}
	return true
}

// feedSurrogate runs the residual feedback pass after the prey wave and
// returns the generation's surrogate telemetry. Observations go in slot
// order; quarantined or unfilled slots contribute nothing. The reported
// error is the mean relative revenue residual of the generation's
// *pre-update* predictions — the honest out-of-sample error of exactly
// the scores the skip plan acted on — which is what the tracestat drift
// detector watches.
func (e *Engine) feedSurrogate(skipping bool) *SurrStats {
	st := &SurrStats{Active: skipping}
	errSum, lbSum, errN := 0.0, 0.0, 0
	for s := 0; s < e.cache.Len(); s++ {
		if skipping && e.slotSkip[s] {
			st.Skips++
			continue
		}
		st.Exact++
		i := e.missing[s]
		if e.preyErr[i] != nil {
			continue // quarantined: no ground truth this generation
		}
		p := e.cache.At(s)
		if p == nil {
			continue
		}
		rev := e.preyFit[i]
		lb := p.Rx.LB
		revErr, lbErr := e.surr.Observe(e.prey[i], lb, rev)
		den := math.Abs(rev)
		if den < 1 {
			den = 1
		}
		errSum += revErr / den
		den = math.Abs(lb)
		if den < 1 {
			den = 1
		}
		lbSum += lbErr / den
		errN++
	}
	if errN > 0 {
		st.Err = errSum / float64(errN)
		st.ErrLB = lbSum / float64(errN)
	}
	if e.met != nil {
		e.met.surrSkips.Add(int64(st.Skips))
		e.met.surrExact.Add(int64(st.Exact))
	}
	return st
}

// phase runs fn under pprof labels naming the wave ("relax",
// "pred_eval", "prey_eval", "breed") and the island, so CPU and
// goroutine profiles attribute samples to engine phases — worker
// goroutines spawned inside fn inherit the labels. Unobserved engines
// skip the label plumbing entirely, keeping the hot path label-free.
func (e *Engine) phase(observing bool, name string, fn func()) {
	if !observing {
		fn()
		return
	}
	pprof.Do(context.Background(),
		pprof.Labels("phase", name, "island", strconv.Itoa(e.island)),
		func(context.Context) { fn() })
}

// genStats snapshots the generation that just finished. The fitness
// arrays still describe the pre-breeding populations at this point
// (breeding builds fresh slices and never writes the fitness arrays).
func (e *Engine) genStats(evalNanos, breedNanos int64, search *SearchStats, surr *SurrStats) GenStats {
	gs := GenStats{
		Label:      e.cfg.RunLabel,
		Island:     e.island,
		Search:     search,
		Surr:       surr,
		Gen:        e.res.Gens,
		Faults:     e.Faults(),
		ULEvals:    e.ulUsed,
		LLEvals:    e.llUsed,
		ULBudget:   e.cfg.ULEvalBudget,
		LLBudget:   e.cfg.LLEvalBudget,
		ULArchive:  e.ulArch.Len(),
		GPArchive:  e.gpArch.Len(),
		EvalNanos:  evalNanos,
		BreedNanos: breedNanos,
	}
	if be, ok := e.ulArch.Best(); ok {
		gs.BestRevenue = be.Fitness
	}
	if be, ok := e.gpArch.Best(); ok {
		gs.BestGap = be.Fitness
	}
	sum, sq := 0.0, 0.0
	gs.PreyBest = e.preyFit[0]
	for _, f := range e.preyFit {
		sum += f
		sq += float64(f * f)
		if f > gs.PreyBest {
			gs.PreyBest = f
		}
	}
	n := float64(len(e.preyFit))
	gs.PreyMean = sum / n
	if v := sq/n - float64(gs.PreyMean*gs.PreyMean); v > 0 {
		gs.PreyStd = math.Sqrt(v)
	}
	sum = 0.0
	gs.PredBest = e.predFit[0]
	for _, f := range e.predFit {
		sum += f
		if f < gs.PredBest {
			gs.PredBest = f
		}
	}
	gs.PredMean = sum / float64(len(e.predFit))
	return gs
}

// BestPrey returns a copy of the best archived pricing and its revenue.
func (e *Engine) BestPrey() ([]float64, float64, bool) {
	be, ok := e.ulArch.Best()
	if !ok {
		return nil, 0, false
	}
	return append([]float64(nil), be.Item...), be.Fitness, true
}

// BestPredator returns a copy of the best archived heuristic and its
// fitness.
func (e *Engine) BestPredator() (gp.Tree, float64, bool) {
	be, ok := e.gpArch.Best()
	if !ok {
		return gp.Tree{}, 0, false
	}
	return be.Item.Clone(), be.Fitness, true
}

// InjectPrey replaces a random non-elite slot of the prey population
// with a copy of x (island-model migration). The archive is untouched —
// the migrant must earn its place at the next evaluation.
func (e *Engine) InjectPrey(x []float64) error {
	if len(x) != e.mk.Leaders() {
		return errors.New("core: migrant prey has wrong dimension")
	}
	slot := e.cfg.Elites
	if len(e.prey) > e.cfg.Elites+1 {
		slot = e.cfg.Elites + e.r.Intn(len(e.prey)-e.cfg.Elites)
	}
	e.prey[slot] = append([]float64(nil), x...)
	if e.led != nil {
		e.led.replace(e.led.preyIDs, slot, opMigrant, e.res.Gens)
		if slot < len(e.preyOrigins) {
			e.preyOrigins[slot] = origin{op: opMigrant, p1: -1, p2: -1}
		}
	}
	return nil
}

// InjectPredator replaces a random non-elite slot of the predator
// population with a copy of t.
func (e *Engine) InjectPredator(t gp.Tree) error {
	if err := t.Check(e.set); err != nil {
		return err
	}
	slot := e.cfg.Elites
	if len(e.predators) > e.cfg.Elites+1 {
		slot = e.cfg.Elites + e.r.Intn(len(e.predators)-e.cfg.Elites)
	}
	e.predators[slot] = t.Clone()
	if e.led != nil {
		e.led.replace(e.led.predIDs, slot, opMigrant, e.res.Gens)
		if slot < len(e.predOrigins) {
			e.predOrigins[slot] = origin{op: opMigrant, p1: -1, p2: -1}
		}
	}
	return nil
}

// Result finalizes and returns the run summary. The engine may continue
// stepping afterwards; each call snapshots the current state. Every
// slice in the result is a defensive copy — mutating a returned Result
// can never corrupt the live archives (see TestResultDoesNotAliasArchive).
func (e *Engine) Result() (*Result, error) {
	res := &Result{
		Gens:     e.res.Gens,
		Faults:   e.Faults(),
		ULEvals:  e.ulUsed,
		LLEvals:  e.llUsed,
		Label:    e.cfg.RunLabel,
		Island:   e.island,
		Ancestry: e.led.championAncestry(),
		ULCurve: stats.Series{
			X: append([]float64(nil), e.res.ULCurve.X...),
			Y: append([]float64(nil), e.res.ULCurve.Y...),
		},
		GapCurve: stats.Series{
			X: append([]float64(nil), e.res.GapCurve.X...),
			Y: append([]float64(nil), e.res.GapCurve.Y...),
		},
	}
	res.ULArchive = e.ulArch.Entries()
	for i := range res.ULArchive {
		res.ULArchive[i].Item = append([]float64(nil), res.ULArchive[i].Item...)
	}
	res.GPArchive = e.gpArch.Entries()
	for i := range res.GPArchive {
		res.GPArchive[i].Item = res.GPArchive[i].Item.Clone()
	}
	if be, ok := e.ulArch.Best(); ok {
		res.Best.Price = append([]float64(nil), be.Item...)
		res.Best.Revenue = be.Fitness
	}
	if be, ok := e.gpArch.Best(); ok {
		res.Best.Tree = be.Item.Clone()
		res.Best.TreeStr = be.Item.String(e.set)
		res.Best.Simplified = gp.Simplify(e.set, be.Item).String(e.set)
		res.Best.GapPct = be.Fitness
		if e.cfg.CostFitness {
			// Under the ablation the archive fitness is a raw cost, so
			// re-measure the actual gap of the selected tree on a fresh
			// prey sample (reporting only — budgets are spent). The
			// sample comes from an RNG derived from the seed, NOT the
			// live stream: Result may be called mid-run, and consuming
			// e.r here would perturb every subsequent Step, breaking
			// the "engine may continue stepping afterwards" contract
			// (see TestResultMidRunDoesNotPerturbRun). Resetting the
			// warm basis first makes the measurement a pure function of
			// the current populations — repeated calls agree exactly —
			// and the leftover basis cannot leak into a later Step
			// because Step resets every evaluator at entry.
			e.evs[0].ResetWarm()
			r := rng.New(e.cfg.Seed).Split()
			sample := r.SampleDistinct(e.cfg.EffectiveSample(), len(e.prey))
			total := 0.0
			for _, s := range sample {
				if e.lpDue != nil {
					e.lpDue[0] = e.cfg.LPFault()
				}
				p, err := e.evs[0].Prepare(e.prey[s])
				if err != nil {
					return nil, err
				}
				out, _, err := e.evs[0].EvalTreeWith(p, be.Item)
				if err != nil {
					return nil, err
				}
				total += out.GapPct
			}
			res.Best.GapPct = total / float64(len(sample))
		}
	}
	return res, nil
}

// Run executes CARBON on the market until either evaluation budget is
// exhausted. A mid-run evaluation failure (Engine.Err) is returned as
// an error instead of panicking, so long batch sweeps survive one bad
// configuration.
func Run(mk *bcpop.Market, cfg Config) (*Result, error) {
	return RunContext(context.Background(), mk, cfg)
}

// RunContext is Run with cooperative cancellation: the context is
// checked between generations, so cancellation (Ctrl-C, a job deadline,
// a server drain) stops the run at the next generation boundary with an
// error satisfying errors.Is(err, ctx.Err()). Cancellation does not
// perturb determinism — a run that is not canceled is bit-identical to
// one launched without a context.
func RunContext(ctx context.Context, mk *bcpop.Market, cfg Config) (*Result, error) {
	e, err := NewEngine(mk, cfg)
	if err != nil {
		return nil, err
	}
	for e.Step() {
		if cerr := ctx.Err(); cerr != nil {
			return nil, fmt.Errorf("core: run canceled after generation %d: %w", e.Gens(), cerr)
		}
	}
	if err := e.Err(); err != nil {
		return nil, err
	}
	res, err := e.Result()
	if err != nil {
		return nil, err
	}
	if e.obs != nil {
		e.obs.OnDone(res)
	}
	return res, nil
}
