package lp

import (
	"math"
	"testing"

	"carbon/internal/rng"
)

// The production solver must reproduce the sparse-column reference
// solver (oracle_test.go) bit for bit: same status, same iteration
// count, and the same bits in every objective, primal, dual and
// reduced-cost value. Pricing order, entering choice and pivot path are
// internal, but any difference in them shows in these outputs.

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

func requireSameSolution(t *testing.T, label string, got, want *Solution) {
	t.Helper()
	switch {
	case got.Status != want.Status:
		t.Fatalf("%s: status %v, reference %v", label, got.Status, want.Status)
	case got.Iterations != want.Iterations:
		t.Fatalf("%s: %d iterations, reference %d", label, got.Iterations, want.Iterations)
	case math.Float64bits(got.Obj) != math.Float64bits(want.Obj):
		t.Fatalf("%s: obj %v, reference %v", label, got.Obj, want.Obj)
	case !sameBits(got.X, want.X):
		t.Fatalf("%s: X %v, reference %v", label, got.X, want.X)
	case !sameBits(got.Dual, want.Dual):
		t.Fatalf("%s: Dual %v, reference %v", label, got.Dual, want.Dual)
	case !sameBits(got.ReducedCost, want.ReducedCost):
		t.Fatalf("%s: ReducedCost %v, reference %v", label, got.ReducedCost, want.ReducedCost)
	}
}

// randomEquivLP draws an LP with mixed row senses. density is the
// chance that a coefficient is nonzero; integral draws small integers,
// which makes ties and degenerate vertices common. Some variables get
// no upper bound, so unbounded problems occur too, and some cost −0,
// the one input where skipping a zero product shows in the bits of a
// reduced cost.
func randomEquivLP(r *rng.Rand, density float64, integral bool) *Problem {
	n := r.IntRange(1, 40)
	m := r.IntRange(1, 12)
	draw := func(lo, hi float64) float64 {
		if integral {
			return float64(r.IntRange(int(lo), int(hi)))
		}
		return r.Range(lo, hi)
	}
	p := &Problem{
		C:   make([]float64, n),
		A:   make([][]float64, m),
		Rel: make([]Relation, m),
		B:   make([]float64, m),
		Lo:  make([]float64, n),
		Up:  make([]float64, n),
	}
	for j := 0; j < n; j++ {
		p.C[j] = draw(-5, 5)
		if r.Bool(0.1) {
			p.C[j] = math.Copysign(0, -1)
		}
		p.Lo[j] = draw(-2, 0)
		switch {
		case r.Bool(0.15):
			p.Up[j] = math.Inf(1)
		case r.Bool(0.05):
			p.Up[j] = p.Lo[j] // fixed variable
		default:
			p.Up[j] = p.Lo[j] + draw(1, 5)
		}
	}
	for i := 0; i < m; i++ {
		p.A[i] = make([]float64, n)
		for j := 0; j < n; j++ {
			if r.Bool(density) {
				if v := draw(-4, 4); v != 0 {
					p.A[i][j] = v
				} else {
					p.A[i][j] = 1
				}
			}
		}
		p.Rel[i] = []Relation{GE, LE, EQ}[r.Intn(3)]
		p.B[i] = draw(-6, 6)
		if integral && r.Bool(0.3) {
			p.B[i] = 0 // degenerate vertex at the origin
		}
	}
	return p
}

func TestSolveMatchesReferenceBitForBit(t *testing.T) {
	r := rng.New(4242)
	statuses := map[Status]int{}
	phase1 := 0
	for trial := 0; trial < 3000; trial++ {
		density := []float64{1, 0.6, 0.25}[trial%3]
		p := randomEquivLP(r, density, trial%2 == 0)
		want, err := refSolve(p)
		if err != nil {
			t.Fatal(err)
		}
		got, err := Solve(p)
		if err != nil {
			t.Fatal(err)
		}
		requireSameSolution(t, "trial", got, want)
		statuses[got.Status]++
		lo, up, _ := validate(p)
		if !newSolver(p, lo, up).crash() {
			phase1++
		}
	}
	// The draws must reach every outcome the comparison is meant to
	// cover, or the test proves less than it claims.
	for _, st := range []Status{Optimal, Infeasible, Unbounded} {
		if statuses[st] == 0 {
			t.Errorf("no %v problem among the draws: %v", st, statuses)
		}
	}
	if phase1 == 0 {
		t.Error("no draw needed phase 1")
	}
}

// TestBlandPricingMatchesReference starts both solvers with the
// degenerate-pivot counter already at the trigger, so pricing runs
// under Bland's rule from the first iteration.
func TestBlandPricingMatchesReference(t *testing.T) {
	r := rng.New(9001)
	for trial := 0; trial < 1000; trial++ {
		p := randomEquivLP(r, []float64{1, 0.4}[trial%2], true)
		lo, up, err := validate(p)
		if err != nil {
			t.Fatal(err)
		}
		ref := newRefSolver(p, lo, up)
		ref.degen = blandTrigger
		want := ref.run()
		s := newSolver(p, lo, up)
		s.degen = blandTrigger
		got := s.solution(s.run())
		requireSameSolution(t, "bland", got, want)
	}
}

// TestDegenerateConeMatchesReference solves min c·x over the cone
// Ax ≥ 0, x ≥ 0. The origin is the only vertex and every pivot from it
// is a zero step, so long runs of them push the solvers into Bland's
// rule on their own.
func TestDegenerateConeMatchesReference(t *testing.T) {
	r := rng.New(515)
	bland := 0
	for trial := 0; trial < 200; trial++ {
		n, m := r.IntRange(20, 120), r.IntRange(5, 30)
		p := &Problem{
			C:   make([]float64, n),
			A:   make([][]float64, m),
			Rel: make([]Relation, m),
			B:   make([]float64, m),
		}
		for j := range p.C {
			p.C[j] = float64(r.IntRange(-3, 3))
		}
		for i := range p.A {
			p.A[i] = make([]float64, n)
			for j := range p.A[i] {
				if r.Bool(0.5) {
					p.A[i][j] = float64(r.IntRange(-3, 3))
				}
			}
		}
		want, err := refSolve(p)
		if err != nil {
			t.Fatal(err)
		}
		lo, up, err := validate(p)
		if err != nil {
			t.Fatal(err)
		}
		s := newSolver(p, lo, up)
		requireSameSolution(t, "cone", s.solution(s.run()), want)
		// Every pivot here is degenerate, so a solve that ran into
		// Bland's rule ends with the counter still past the trigger.
		if s.degen >= blandTrigger {
			bland++
		}
	}
	if bland == 0 {
		t.Error("no draw reached Bland's rule")
	}
}

// TestWarmSolverMatchesReference replays one cost sequence through both
// warm solvers, with a Reset every few solves, as CARBON does at each
// generation boundary.
func TestWarmSolverMatchesReference(t *testing.T) {
	r := rng.New(77)
	for trial := 0; trial < 6; trial++ {
		var p *Problem
		if trial%2 == 0 {
			p = randomCoveringLP(r, 250, 30)
		} else {
			p = randomEquivLP(r, 0.5, false)
		}
		ws, err := NewWarmSolver(p)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := newRefWarmSolver(p)
		if err != nil {
			t.Fatal(err)
		}
		c := append([]float64(nil), p.C...)
		for k := 0; k < 60; k++ {
			if k%7 == 6 {
				ws.Reset()
				ref.Reset()
			}
			for j := range c {
				if r.Bool(0.3) {
					c[j] = r.Range(-50, 100)
				}
			}
			got, err := ws.SolveWithCosts(c)
			if err != nil {
				t.Fatal(err)
			}
			want, err := ref.SolveWithCosts(c)
			if err != nil {
				t.Fatal(err)
			}
			requireSameSolution(t, "warm", got, want)
			if ws.Iterations() != ref.Iterations() {
				t.Fatalf("cumulative iterations %d, reference %d", ws.Iterations(), ref.Iterations())
			}
		}
	}
}
