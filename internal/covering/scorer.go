package covering

import (
	"fmt"

	"carbon/internal/gp"
)

// TableITerms is the paper's Table I terminal set, in environment-vector
// order: cost cⱼ, coefficient qⱼᵏ, requirement bᵏ, LP dual d_k, relaxed
// solution value x̄ⱼ.
var TableITerms = []string{"c", "q", "b", "d", "xbar"}

// TableISet returns a fresh primitive set implementing the paper's
// Table I exactly: operators {+, -, *, %, mod} over the five terminals.
func TableISet() *gp.Set {
	return &gp.Set{Ops: gp.TableIOps(), Terms: append([]string(nil), TableITerms...)}
}

// EnvLen is the scorer environment-vector length — Table I's terminal
// count. The scorer hands trees exactly this many features, so a
// primitive set routed into it may declare at most EnvLen terminals;
// bcpop.NewEvaluator enforces that bound, which is what keeps a tree
// decoded against a larger terminal set from indexing past the
// environment at evaluation time.
const EnvLen = 5

// TreeScorer evaluates a GP tree into per-item scores for GreedyByScore.
// Three of Table I's terminals are indexed by service k while the tree
// scores item j, so the scorer evaluates the tree once per (item,
// service) pair and sums over services:
//
//	score(j) = Σₖ tree(cⱼ, qⱼᵏ, bᵏ, d_k, x̄ⱼ)
//
// This additive aggregation is the natural reading of Table I — it makes
// the LP-guided orderings expressible (e.g. the tree (* q d) yields
// score(j) = Σₖ qⱼᵏ·d_k, the dual-weighted coverage whose descending
// order reproduces the reduced-cost greedy) while degenerating gracefully
// for service-independent trees (they scale by N uniformly, preserving
// the order).
type TreeScorer struct {
	Set *gp.Set
	rx  *Relaxation
	in  *Instance
	env [EnvLen]float64
}

// NewTreeScorer binds a scorer to an instance and its relaxation data.
func NewTreeScorer(set *gp.Set, in *Instance, rx *Relaxation) *TreeScorer {
	return &TreeScorer{Set: set, in: in, rx: rx}
}

// Score fills scores[j] for every item. len(scores) must be M.
func (ts *TreeScorer) Score(tree gp.Tree, scores []float64) {
	in, rx := ts.in, ts.rx
	n := in.N()
	for j := range scores {
		col := in.Cols[j]
		ts.env[0] = in.C[j]
		ts.env[4] = rx.XBar[j]
		total := 0.0
		for k := 0; k < n; k++ {
			ts.env[1] = col[k]
			ts.env[2] = in.B[k]
			ts.env[3] = rx.Dual[k]
			total += tree.Eval(ts.Set, ts.env[:])
		}
		scores[j] = total
	}
}

// ScoreProgram is Score for a compiled tree: the same (item, service)
// sweep and the same additive aggregation, but each pair is evaluated
// by replaying bytecode instead of re-decoding tree nodes. The VM
// reproduces gp.Tree.Eval bit-for-bit, so scores are bit-identical to
// Score on the program's source tree.
func (ts *TreeScorer) ScoreProgram(vm *gp.VM, p *gp.Program, scores []float64) {
	ScoreProgramInto(ts.in, ts.rx, vm, p, scores)
}

// ScoreProgramInto is the allocation-free form of ScoreProgram used by
// the evaluation hot path. It runs the program on the VM's lanes, one
// lane per (item, service) pair: items go in blocks of
// ⌊gp.LaneWidth/N⌋ whole items (at least one), lane i·N+k holding item
// j0+i against service k. Only the terminals the program reads are
// filled — c and x̄ broadcast per item, q copied from the item's
// column, b and d tiled once per call. Each lane performs Tree.Eval's
// exact operations, root NaN→0 included, and each item then sums its N
// lanes in ascending k from 0.0, as Score does, so scores are
// bit-identical to Score on the program's source tree.
func ScoreProgramInto(in *Instance, rx *Relaxation, vm *gp.VM, p *gp.Program, scores []float64) {
	if p.Terms() > EnvLen {
		panic(fmt.Sprintf("covering: program reads %d terminals, scorer supplies %d", p.Terms(), EnvLen))
	}
	n := in.N()
	block := min(max(gp.LaneWidth/n, 1), len(scores))
	terms, out := vm.Scratch(p, block*n)
	readC, readQ, readB, readD, readX := p.ReadsTerm(0), p.ReadsTerm(1), p.ReadsTerm(2), p.ReadsTerm(3), p.ReadsTerm(4)
	for lo := 0; lo < block*n; lo += n {
		if readB {
			copy(terms[2][lo:lo+n], in.B)
		}
		if readD {
			copy(terms[3][lo:lo+n], rx.Dual)
		}
	}
	for j0 := 0; j0 < len(scores); j0 += block {
		items := min(block, len(scores)-j0)
		for i := 0; i < items; i++ {
			j, lo := j0+i, i*n
			if readC {
				fill(terms[0][lo:lo+n], in.C[j])
			}
			if readQ {
				copy(terms[1][lo:lo+n], in.Cols[j])
			}
			if readX {
				fill(terms[4][lo:lo+n], rx.XBar[j])
			}
		}
		vm.EvalLanes(p, terms, out[:items*n])
		for i := 0; i < items; i++ {
			total := 0.0
			for _, v := range out[i*n : (i+1)*n] {
				total += v
			}
			scores[j0+i] = total
		}
	}
}

func fill(dst []float64, v float64) {
	for i := range dst {
		dst[i] = v
	}
}

// ApplyHeuristic scores the items with the tree and runs the greedy,
// returning the greedy result — one lower-level fitness evaluation in
// the paper's accounting.
func (ts *TreeScorer) ApplyHeuristic(tree gp.Tree, eliminate bool) GreedyResult {
	scores := make([]float64, ts.in.M())
	ts.Score(tree, scores)
	return ts.in.GreedyByScore(scores, eliminate)
}
