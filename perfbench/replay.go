package main

import (
	"bytes"
	"fmt"
	"sort"
	"time"

	"carbon/internal/bcpop"
	"carbon/internal/checkpoint"
	"carbon/internal/core"
	"carbon/internal/covering"
	"carbon/internal/gp"
	"carbon/internal/lp"
	"carbon/internal/rng"
	"carbon/internal/surrogate"
	"carbon/internal/telemetry"
)

// layers accumulates the traced run's per-layer work and time. Counts
// are deterministic per (workload, seed); times are wall clock around
// the layer's public calls.
type layers struct {
	gens     int
	step     time.Duration // traced Step wall time
	untraced []float64     // untraced ms/gen samples, for the overhead
	traced   []float64     // traced ms/gen samples

	relax, predEval, preyEval, breed time.Duration // engine phase timers

	engineSolves, cacheHits, cacheMisses, engineSkips int64

	solves, pivots       int
	solveTime            time.Duration
	prepares             int
	prepareTime          time.Duration
	evals                int
	evalTime             time.Duration
	compiles, progNodes  int
	compileTime          time.Duration
	scores               int
	scoreTime            time.Duration
	scoreInstrs, vmInstr int64
	greedies, added      int
	greedyTime           time.Duration
	distinct, skipped    int
	predicts, observes   int
	predictTime          time.Duration
	observeTime          time.Duration

	snaps, encodedBytes int
	snapTime, encTime   time.Duration
	restores            int
	restoreTime         time.Duration

	// mismatches counts replay results that disagree with the engine's
	// own: a solve count, skip count, LP bound or greedy cost.
	mismatches int
}

// replayer pushes one generation's work through each layer's public
// functions, reconstructed from the snapshot taken before the Step.
type replayer struct {
	mk      *bcpop.Market
	cfg     core.Config
	surrCfg surrogate.Config
	set     *gp.Set
	ev      *bcpop.Evaluator
	ws      *lp.WarmSolver
	vm      *gp.VM
	greedy  covering.GreedyScratch
	costs   []float64
	scores  []float64
	probe   *surrogate.Model // exact runs: a model fit on the replay's observations
}

func newReplayer(mk *bcpop.Market, cfg core.Config) (*replayer, error) {
	set := covering.TableISet()
	ev, err := bcpop.NewEvaluator(mk, set)
	if err != nil {
		return nil, err
	}
	in := mk.Template()
	up := make([]float64, in.M())
	for j := range up {
		up[j] = 1
	}
	// The relaxation LP exactly as covering builds it: min c·x,
	// Qx ≥ b, 0 ≤ x ≤ 1.
	ws, err := lp.NewWarmSolver(&lp.Problem{
		C: in.C, A: in.Q, Rel: make([]lp.Relation, in.N()), B: in.B,
		Lo: make([]float64, in.M()), Up: up,
	})
	if err != nil {
		return nil, err
	}
	rp := &replayer{
		mk: mk, cfg: cfg, set: set, ev: ev, ws: ws, vm: gp.NewVM(),
		surrCfg: cfg.Surrogate.Resolved(cfg.ULPopSize, mk.Leaders()),
		scores:  make([]float64, in.M()),
	}
	if !cfg.Surrogate.Enabled {
		rp.probe = surrogate.New(mk.Leaders(), rp.surrCfg)
	}
	return rp, nil
}

// generation replays the generation that follows snapshot st. It
// returns the replay's LP solve and surrogate skip counts.
func (rp *replayer) generation(st *checkpoint.State, acc *layers) (solves, skips int, err error) {
	r := rng.New(1)
	if err := r.Restore(st.RngState); err != nil {
		return 0, 0, err
	}
	// Step's first draw is the predator-wave prey sample.
	sample := r.SampleDistinct(rp.cfg.EffectiveSample(), len(st.Prey))
	cache := bcpop.NewCache()
	slotOf := make([]int, len(st.Prey))
	var missing []int // first-occurrence prey index per slot
	for i, x := range st.Prey {
		s, fresh := cache.Slot(x)
		slotOf[i] = s
		if fresh {
			missing = append(missing, i)
		}
	}
	acc.distinct += len(missing)

	model := rp.probe
	skipping := false
	if rp.cfg.Surrogate.Enabled && st.Surrogate != nil {
		if model, err = surrogate.FromState(rp.surrCfg, st.Surrogate); err != nil {
			return 0, 0, err
		}
		skipping = st.Gens >= rp.surrCfg.Warmup && model.Ready()
	}
	skip := make([]bool, len(missing))
	if skipping || rp.probe != nil {
		pred := make([]surrogate.Prediction, len(missing))
		for s, i := range missing {
			t := time.Now()
			pred[s] = model.Predict(st.Prey[i])
			acc.predictTime += time.Since(t)
		}
		acc.predicts += len(missing)
		if skipping {
			rp.plan(skip, pred, sample, slotOf)
		}
	}
	var exact []int
	for s, i := range missing {
		if skip[s] {
			skips++
			continue
		}
		exact = append(exact, i)
	}
	acc.skipped += skips

	// lp: the relax wave's warm-chained solve sequence (one worker, so
	// one chain, reset at the generation boundary like the engine's).
	lbs := make([]float64, len(exact))
	rp.ws.Reset()
	it0 := rp.ws.Iterations()
	for k, i := range exact {
		if rp.costs, err = rp.mk.Costs(st.Prey[i], rp.costs); err != nil {
			return 0, 0, err
		}
		t := time.Now()
		sol, serr := rp.ws.SolveWithCosts(rp.costs)
		acc.solveTime += time.Since(t)
		if serr != nil {
			return 0, 0, serr
		}
		lbs[k] = sol.Obj
	}
	acc.pivots += rp.ws.Iterations() - it0
	acc.solves += len(exact)

	// bcpop: the same solves through Prepare, filling the cache.
	rp.ev.ResetWarm()
	for k, i := range exact {
		t := time.Now()
		p, perr := rp.ev.Prepare(st.Prey[i])
		acc.prepareTime += time.Since(t)
		if perr != nil {
			return 0, 0, perr
		}
		if p.Rx.LB != lbs[k] {
			acc.mismatches++
		}
		cache.Fill(slotOf[i], p)
	}
	acc.prepares += len(exact)

	// gp: compile every predator.
	progs := make([]*gp.Program, len(st.Predators))
	for i, src := range st.Predators {
		tree, perr := gp.Parse(rp.set, src)
		if perr != nil {
			return 0, 0, perr
		}
		t := time.Now()
		prog, cerr := gp.Compile(rp.set, tree)
		acc.compileTime += time.Since(t)
		if cerr != nil {
			return 0, 0, cerr
		}
		progs[i] = prog
		acc.progNodes += prog.Size()
	}
	acc.compiles += len(progs)

	// Predator wave: covering's scorer and greedy, then the same pairing
	// through bcpop.EvalProgramWith, which must agree.
	pairCells := int64(rp.mk.Bundles() * rp.mk.Services())
	best, bestFit := -1, 0.0
	for i, prog := range progs {
		total, pairs := 0.0, 0
		for _, s := range sample {
			p := cache.At(slotOf[s])
			t := time.Now()
			covering.ScoreProgramInto(p.In, p.Rx, rp.vm, prog, rp.scores)
			t1 := time.Now()
			res := p.In.GreedyByScoreInto(rp.scores, !rp.cfg.NoElimination, &rp.greedy)
			t2 := time.Now()
			out, _, eerr := rp.ev.EvalProgramWith(p, prog)
			acc.evalTime += time.Since(t2)
			acc.scoreTime += t1.Sub(t)
			acc.greedyTime += t2.Sub(t1)
			if eerr != nil {
				return 0, 0, eerr
			}
			if out.LLCost != res.Cost {
				acc.mismatches++
			}
			instrs := int64(prog.Size()) * pairCells
			acc.scoreInstrs += instrs
			acc.vmInstr += instrs
			acc.added += res.Added
			total += out.GapPct
			pairs++
		}
		acc.scores += pairs
		acc.greedies += pairs
		acc.evals += pairs
		if fit := total / float64(pairs); best < 0 || fit < bestFit {
			best, bestFit = i, fit
		}
	}

	// Prey wave: every exactly-solved prey against the hunter.
	hunter := progs[best]
	rev := make([]float64, len(st.Prey))
	for i := range st.Prey {
		if skip[slotOf[i]] {
			continue
		}
		t := time.Now()
		out, _, eerr := rp.ev.EvalProgramWith(cache.At(slotOf[i]), hunter)
		acc.evalTime += time.Since(t)
		if eerr != nil {
			return 0, 0, eerr
		}
		acc.evals++
		acc.vmInstr += int64(hunter.Size()) * pairCells
		if out.Feasible {
			rev[i] = out.Revenue
		}
	}

	// Surrogate feedback in slot order.
	if model != nil {
		for s, i := range missing {
			if skip[s] {
				continue
			}
			t := time.Now()
			model.Observe(st.Prey[i], cache.At(s).Rx.LB, rev[i])
			acc.observeTime += time.Since(t)
			acc.observes++
		}
	}
	return len(exact), skips, nil
}

// plan marks the generation's surrogate-scored slots by the engine's
// documented rule (DESIGN.md §5l): everything is skipped except the
// sampled prey's slots, the TopK by predicted revenue and the Uncertain
// highest-leverage rest, ties broken by slot index.
func (rp *replayer) plan(skip []bool, pred []surrogate.Prediction, sample, slotOf []int) {
	n := len(skip)
	rank := make([]int, n)
	for s := range skip {
		skip[s] = true
		rank[s] = s
	}
	for _, i := range sample {
		skip[slotOf[i]] = false
	}
	sort.Slice(rank, func(a, b int) bool {
		if pred[rank[a]].Rev != pred[rank[b]].Rev {
			return pred[rank[a]].Rev > pred[rank[b]].Rev
		}
		return rank[a] < rank[b]
	})
	for _, s := range rank[:min(rp.surrCfg.TopK, n)] {
		skip[s] = false
	}
	for s := range rank {
		rank[s] = s
	}
	sort.Slice(rank, func(a, b int) bool {
		if pred[rank[a]].Unc != pred[rank[b]].Unc {
			return pred[rank[a]].Unc > pred[rank[b]].Unc
		}
		return rank[a] < rank[b]
	})
	picked := 0
	for _, s := range rank {
		if picked >= rp.surrCfg.Uncertain {
			break
		}
		if skip[s] {
			skip[s] = false
			picked++
		}
	}
}

// tracedSteps steps eng up to gens generations (until its budget ends
// when gens < 0) with the engine's Metrics registry on, replaying each
// generation through the layers first. Each generation: Snapshot,
// Encode, a Decode+Restore probe, the replay, then the timed Step.
func tracedSteps(eng *core.Engine, reg *telemetry.Registry, mk *bcpop.Market, cfg core.Config, gens int, acc *layers) error {
	rp, err := newReplayer(mk, cfg)
	if err != nil {
		return err
	}
	ctr := func(name string) int64 { return reg.Counter(name).Load() }
	tm := func(name string) time.Duration { return reg.Timer(name).Total() }
	for g := 0; gens < 0 || g < gens; g++ {
		if !eng.CanStep() {
			if gens < 0 {
				return nil
			}
			return fmt.Errorf("budget exhausted at generation %d", eng.Gens())
		}
		t := time.Now()
		st, err := eng.Snapshot()
		acc.snapTime += time.Since(t)
		if err != nil {
			return err
		}
		var buf bytes.Buffer
		t = time.Now()
		err = st.Encode(&buf)
		acc.encTime += time.Since(t)
		if err != nil {
			return err
		}
		acc.snaps++
		acc.encodedBytes += buf.Len()
		t = time.Now()
		dst, err := checkpoint.DecodeBytes(buf.Bytes())
		if err == nil {
			_, err = core.Restore(mk, cfg, dst)
		}
		acc.restoreTime += time.Since(t)
		if err != nil {
			return err
		}
		acc.restores++

		solves, skips, err := rp.generation(st, acc)
		if err != nil {
			return fmt.Errorf("replay of generation %d: %w", st.Gens+1, err)
		}

		s0, h0, m0, k0 := ctr("bcpop.lp_solves"), ctr("bcpop.cache_hits"), ctr("bcpop.cache_misses"), ctr("core.surrogate_skips")
		r0, p0, q0, b0 := tm("core.relax_precompute"), tm("core.predator_eval"), tm("core.prey_eval"), tm("core.breed")
		t = time.Now()
		ok := eng.Step()
		d := time.Since(t)
		if !ok {
			return fmt.Errorf("step stopped: %v", eng.Err())
		}
		acc.gens++
		acc.step += d
		acc.traced = append(acc.traced, ms(d))
		acc.relax += tm("core.relax_precompute") - r0
		acc.predEval += tm("core.predator_eval") - p0
		acc.preyEval += tm("core.prey_eval") - q0
		acc.breed += tm("core.breed") - b0
		ds := ctr("bcpop.lp_solves") - s0
		dk := ctr("core.surrogate_skips") - k0
		acc.engineSolves += ds
		acc.cacheHits += ctr("bcpop.cache_hits") - h0
		acc.cacheMisses += ctr("bcpop.cache_misses") - m0
		acc.engineSkips += dk
		if ds != int64(solves) || dk != int64(skips) {
			acc.mismatches++
		}
	}
	return nil
}

// metrics renders the per-layer metric set from the accumulated work.
func (acc *layers) metrics() map[string]metric {
	g := float64(max(acc.gens, 1))
	phases := acc.relax + acc.predEval + acc.preyEval + acc.breed
	out := map[string]metric{
		"core.relax_ms":     {ms(acc.relax) / g, "ms"},
		"core.pred_eval_ms": {ms(acc.predEval) / g, "ms"},
		"core.prey_eval_ms": {ms(acc.preyEval) / g, "ms"},
		"core.breed_ms":     {ms(acc.breed) / g, "ms"},
		"core.other_ms":     {ms(acc.step-phases) / g, "ms"},

		"bcpop.lp_solves_per_gen": {float64(acc.engineSolves) / g, "count"},
		"bcpop.cache_hit_ratio":   {ratio(float64(acc.cacheHits), float64(acc.cacheHits+acc.cacheMisses)), "ratio"},
		"bcpop.prepare_us":        {perOp(acc.prepareTime, acc.prepares), "us"},
		"bcpop.eval_program_us":   {perOp(acc.evalTime, acc.evals), "us"},

		"lp.pivots_per_solve": {ratio(float64(acc.pivots), float64(acc.solves)), "count"},
		"lp.solve_us":         {perOp(acc.solveTime, acc.solves), "us"},
		"lp.ns_per_pivot":     {ratio(float64(acc.solveTime), float64(acc.pivots)), "ns"},

		"gp.compile_us":        {perOp(acc.compileTime, acc.compiles), "us"},
		"gp.program_size_mean": {ratio(float64(acc.progNodes), float64(acc.compiles)), "count"},
		"gp.vm_instrs_per_gen": {float64(acc.vmInstr) / g, "count"},
		"gp.vm_ns_per_instr":   {ratio(float64(acc.scoreTime), float64(acc.scoreInstrs)), "ns"},

		"covering.score_us":              {perOp(acc.scoreTime, acc.scores), "us"},
		"covering.greedy_us":             {perOp(acc.greedyTime, acc.greedies), "us"},
		"covering.greedy_added_per_eval": {ratio(float64(acc.added), float64(acc.greedies)), "count"},

		"surrogate.skip_ratio": {ratio(float64(acc.skipped), float64(acc.distinct)), "ratio"},
		"surrogate.predict_us": {perOp(acc.predictTime, acc.predicts), "us"},
		"surrogate.observe_us": {perOp(acc.observeTime, acc.observes), "us"},

		"checkpoint.snapshot_ms": {ms(acc.snapTime) / float64(max(acc.snaps, 1)), "ms"},
		"checkpoint.encode_ms":   {ms(acc.encTime) / float64(max(acc.snaps, 1)), "ms"},
		"checkpoint.bytes":       {ratio(float64(acc.encodedBytes), float64(acc.snaps)), "bytes"},
		"checkpoint.restore_ms":  {ms(acc.restoreTime) / float64(max(acc.restores, 1)), "ms"},
	}
	untraced, traced := median(acc.untraced), median(acc.traced)
	out["trace.overhead_pct"] = metric{100 * (traced - untraced) / untraced, "%"}
	return out
}
