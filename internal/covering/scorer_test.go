package covering

import (
	"math"
	"testing"

	"carbon/internal/gp"
	"carbon/internal/rng"
)

// hostileInstance builds an M×N instance and relaxation directly,
// bypassing New's validation, so the scorer sees NaN, ±Inf and −0 in
// every terminal: the lane path must carry them exactly as Tree.Eval
// does.
func hostileInstance(r *rng.Rand, m, n int) (*Instance, *Relaxation) {
	special := []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 0, 1e-13}
	draw := func() float64 {
		if r.Bool(0.2) {
			return special[r.Intn(len(special))]
		}
		return r.Range(-5, 5)
	}
	in := &Instance{C: make([]float64, m), Q: make([][]float64, n), B: make([]float64, n)}
	rx := &Relaxation{Dual: make([]float64, n), XBar: make([]float64, m)}
	for j := 0; j < m; j++ {
		in.C[j], rx.XBar[j] = draw(), draw()
	}
	for k := 0; k < n; k++ {
		in.B[k], rx.Dual[k] = draw(), draw()
		in.Q[k] = make([]float64, m)
		for j := range in.Q[k] {
			in.Q[k][j] = draw()
		}
	}
	in.buildCols()
	return in, rx
}

// The lane-batched scorer must return Score's exact bits for every
// item: across service counts below, at and above the lane width, item
// counts that leave a partial last block or fit in less than one
// block, constants, custom (non-builtin) operators and non-finite
// inputs. One VM serves every case, so regrown and reused scratch is
// covered too.
func TestScoreProgramLanesMatchTreeScore(t *testing.T) {
	sets := map[string]*gp.Set{
		"tableI": TableISet(),
		"erc": {Ops: gp.TableIOps(), Terms: append([]string(nil), TableITerms...),
			ConstProb: 0.3, ConstMin: -2, ConstMax: 2},
		"custom": {Ops: []gp.Op{
			gp.Add, gp.Mod, gp.Div,
			{Name: "sq", Arity: 1, F1: func(a float64) float64 { return a * a }},
			{Name: "hyp", Arity: 2, F2: math.Hypot},
		}, Terms: append([]string(nil), TableITerms...)},
	}
	r := rng.New(5)
	vm := gp.NewVM()
	for _, name := range []string{"tableI", "erc", "custom"} {
		set := sets[name]
		for _, n := range []int{1, 5, 30, 64, 65, 100} {
			for _, m := range []int{1, 3, 13, 29} {
				in, rx := hostileInstance(r, m, n)
				ts := NewTreeScorer(set, in, rx)
				for trial := 0; trial < 4; trial++ {
					tree := set.Ramped(r, 1, 5)
					prog, err := gp.Compile(set, tree)
					if err != nil {
						t.Fatal(err)
					}
					want := make([]float64, m)
					ts.Score(tree, want)
					got := make([]float64, m)
					ScoreProgramInto(in, rx, vm, prog, got)
					for j := range want {
						if math.Float64bits(got[j]) != math.Float64bits(want[j]) {
							t.Fatalf("%s N=%d M=%d tree %s item %d: lanes %v (%x), tree %v (%x)",
								name, n, m, tree.String(set), j, got[j], math.Float64bits(got[j]),
								want[j], math.Float64bits(want[j]))
						}
					}
				}
			}
		}
	}
}

// grownProgram compiles a deterministic Table I tree of 40–50 nodes,
// the size predators reach after tens of generations.
func grownProgram(tb testing.TB, r *rng.Rand, set *gp.Set) *gp.Program {
	tb.Helper()
	for {
		tree := set.Ramped(r, 4, 8)
		if s := tree.Size(); s < 40 || s > 50 {
			continue
		}
		p, err := gp.Compile(set, tree)
		if err != nil {
			tb.Fatal(err)
		}
		return p
	}
}

func TestScoreProgramIntoZeroAlloc(t *testing.T) {
	r := rng.New(12)
	in := randomInstance(t, r, 100, 5)
	rx, err := in.Relax()
	if err != nil {
		t.Fatal(err)
	}
	prog := grownProgram(t, r, TableISet())
	vm := gp.NewVM()
	scores := make([]float64, in.M())
	ScoreProgramInto(in, rx, vm, prog, scores) // grow the lanes once
	allocs := testing.AllocsPerRun(100, func() {
		ScoreProgramInto(in, rx, vm, prog, scores)
	})
	if allocs != 0 {
		t.Fatalf("ScoreProgramInto allocates %v per call, want 0", allocs)
	}
}

// benchScoreProgram sweeps one compiled program across an M×N instance
// and reports the cost per VM instruction (program size × M × N
// instructions per op).
func benchScoreProgram(b *testing.B, m, n int, prog func(*rng.Rand) *gp.Program) {
	r := rng.New(13)
	in := randomInstance(b, r, m, n)
	rx, err := in.Relax()
	if err != nil {
		b.Fatal(err)
	}
	p := prog(r)
	vm := gp.NewVM()
	scores := make([]float64, m)
	ScoreProgramInto(in, rx, vm, p, scores)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ScoreProgramInto(in, rx, vm, p, scores)
	}
	instrs := float64(b.N) * float64(p.Size()*m*n)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/instrs, "ns/instr")
}

// BenchmarkScoreProgram100x5Grown is the vmwave-n100m5 shape: 100
// items, 5 services, a grown tree.
func BenchmarkScoreProgram100x5Grown(b *testing.B) {
	benchScoreProgram(b, 100, 5, func(r *rng.Rand) *gp.Program {
		return grownProgram(b, r, TableISet())
	})
}

// BenchmarkScoreProgram250x30 is the relax-n250m30 shape: 250 items,
// 30 services, a full depth-4 tree.
func BenchmarkScoreProgram250x30(b *testing.B) {
	benchScoreProgram(b, 250, 30, func(r *rng.Rand) *gp.Program {
		set := TableISet()
		p, err := gp.Compile(set, set.Full(r, 4))
		if err != nil {
			b.Fatal(err)
		}
		return p
	})
}
