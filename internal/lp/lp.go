// Package lp implements a dense, two-phase, bounded-variable revised
// simplex method for linear programs of the form
//
//	min  c·x
//	s.t. Aᵢ·x  {≥, ≤, =}  bᵢ        i = 1..m
//	     loⱼ ≤ xⱼ ≤ upⱼ             j = 1..n   (upⱼ may be +Inf)
//
// It returns the primal solution, the objective, the row dual values and
// the structural reduced costs. The solver exists because the paper's
// %-gap metric (Eq. 1) and two of its GP terminals (Table I: dual values
// d_k and relaxed solution values x̄_j) require the LP relaxation of
// every induced lower-level covering instance.
//
// Design notes. The relaxations solved here have very few rows
// (m ∈ {5,10,30}) and up to ~1000 columns, so the solver keeps a dense
// m×m basis inverse and one dense row-major copy of the structural
// block of A; slack and artificial columns are a ±1 sign per row.
// Bounded variables are handled natively (nonbasic-at-upper status and
// bound flips) rather than by adding n explicit bound rows, which keeps
// the basis tiny. Cycling is prevented by switching from Dantzig to
// Bland's rule after a burst of degenerate pivots.
//
// Pricing computes every structural reduced cost per iteration in one
// row-major sweep, d_j -= y_i·A_ij, four rows per pass over d, skipping
// rows whose dual y_i is zero: O(m² + m'·n) per iteration for m' nonzero
// duals, with unit-stride inner loops instead of a gather per column.
// Rows are taken in ascending i, which is the order a walk down a
// sparse column accumulates its terms, so every d_j equals the
// column-walk value except possibly in the sign of a zero, which the
// entering test d_j < −tol cannot see. The other column walks (crash
// activity, phase-1 residual, B⁻¹·A_enter and the reported reduced
// costs) read the same row-major copy and skip zero coefficients. So
// the pivot sequence, the iteration counts and every output bit are
// those of a solver that walks sparse columns; oracle_test.go keeps
// one, and equiv_test.go checks the equality bit for bit.
//
// Two fast paths matter for the co-evolutionary workload:
//
//   - a crash basis: when setting every structural variable at one of
//     its bounds already satisfies all rows through the slacks (true for
//     covering instances, where x = 1 is feasible), phase 1 is skipped
//     entirely;
//   - WarmSolver: the BCPOP leader only changes *costs* between
//     evaluations (the covering matrix and requirements are fixed), so
//     the previous optimal basis stays primal feasible and re-solving
//     needs only a handful of phase-2 pivots.
package lp

import (
	"errors"
	"fmt"
	"math"
)

// Relation is the sense of a linear constraint row.
type Relation int8

const (
	GE Relation = iota // Aᵢ·x ≥ bᵢ
	LE                 // Aᵢ·x ≤ bᵢ
	EQ                 // Aᵢ·x = bᵢ
)

func (r Relation) String() string {
	switch r {
	case GE:
		return ">="
	case LE:
		return "<="
	case EQ:
		return "="
	}
	return "?"
}

// Problem is a dense LP. All slices must be fully populated; A is m rows
// by n columns. Lo/Up are per-variable bounds; Up entries may be
// math.Inf(1). A nil Lo means all zeros; a nil Up means all +Inf.
type Problem struct {
	C   []float64
	A   [][]float64
	Rel []Relation
	B   []float64
	Lo  []float64
	Up  []float64
}

// Status reports how a solve terminated.
type Status int8

const (
	Optimal Status = iota
	Infeasible
	Unbounded
	IterLimit
)

func (s Status) String() string {
	switch s {
	case Optimal:
		return "optimal"
	case Infeasible:
		return "infeasible"
	case Unbounded:
		return "unbounded"
	case IterLimit:
		return "iteration-limit"
	}
	return "unknown"
}

// Solution is the result of Solve.
type Solution struct {
	Status      Status
	Obj         float64
	X           []float64 // structural variable values, length n
	Dual        []float64 // row duals y, length m
	ReducedCost []float64 // structural reduced costs c_j - y·A_j, length n
	Iterations  int
}

const (
	tol          = 1e-9
	feasTol      = 1e-7
	blandTrigger = 64 // consecutive degenerate pivots before Bland's rule
)

// Solve runs the two-phase bounded-variable simplex. It returns an error
// for malformed input (dimension mismatches, NaN, inverted bounds); model
// outcomes (infeasible/unbounded) are reported via Solution.Status.
func Solve(p *Problem) (*Solution, error) {
	lo, up, err := validate(p)
	if err != nil {
		return nil, err
	}
	s := newSolver(p, lo, up)
	return s.solution(s.run()), nil
}

func validate(p *Problem) (lo, up []float64, err error) {
	m := len(p.B)
	n := len(p.C)
	if len(p.A) != m || len(p.Rel) != m {
		return nil, nil, fmt.Errorf("lp: %d rows in B but %d in A, %d in Rel", m, len(p.A), len(p.Rel))
	}
	for i, row := range p.A {
		if len(row) != n {
			return nil, nil, fmt.Errorf("lp: row %d has %d coefficients, want %d", i, len(row), n)
		}
	}
	lo = p.Lo
	if lo == nil {
		lo = make([]float64, n)
	}
	up = p.Up
	if up == nil {
		up = make([]float64, n)
		for j := range up {
			up[j] = math.Inf(1)
		}
	}
	if len(lo) != n || len(up) != n {
		return nil, nil, errors.New("lp: bound vector length mismatch")
	}
	for j := 0; j < n; j++ {
		if math.IsNaN(lo[j]) || math.IsNaN(up[j]) || math.IsInf(lo[j], 0) {
			return nil, nil, fmt.Errorf("lp: bad bounds on variable %d: [%v,%v]", j, lo[j], up[j])
		}
		if up[j] < lo[j] {
			return nil, nil, fmt.Errorf("lp: inverted bounds on variable %d: [%v,%v]", j, lo[j], up[j])
		}
	}
	for j, c := range p.C {
		if math.IsNaN(c) || math.IsInf(c, 0) {
			return nil, nil, fmt.Errorf("lp: bad cost on variable %d: %v", j, c)
		}
	}
	for i := 0; i < m; i++ {
		if math.IsNaN(p.B[i]) || math.IsInf(p.B[i], 0) {
			return nil, nil, fmt.Errorf("lp: bad rhs on row %d: %v", i, p.B[i])
		}
		for j, a := range p.A[i] {
			if math.IsNaN(a) || math.IsInf(a, 0) {
				return nil, nil, fmt.Errorf("lp: bad coefficient at (%d,%d): %v", i, j, a)
			}
		}
	}
	return lo, up, nil
}

// solver holds the working state of one solve. Column layout:
// [0,n) structural, [n,n+m) slack/surplus, [n+m,n+2m) artificial.
// Every scratch buffer is sized here, so a solve allocates only the
// Solution it returns.
type solver struct {
	m, n  int
	nTot  int       // n + m + m
	a     []float64 // m×n row-major copy of the structural block of A
	slack []float64 // ±1: coefficient of slack column n+i in row i
	art   []float64 // ±1: coefficient of artificial column n+m+i in row i
	cost  []float64 // phase-2 costs (0 for slack & artificial)
	p1    []float64 // phase-1 costs: 1 on the artificials, 0 elsewhere
	lo    []float64
	up    []float64
	b     []float64
	x     []float64 // current value of every variable
	atUp  []bool    // nonbasic-at-upper flag
	inB   []bool    // basic flag
	basis []int     // basic variable per row
	binv  []float64 // m×m row-major basis inverse
	xB    []float64 // values of basic variables (mirror of x[basis[i]])
	yBuf  []float64 // scratch: duals
	wBuf  []float64 // scratch: B⁻¹·A_enter
	dBuf  []float64 // scratch: reduced costs of every column
	sgn   []float64 // scratch: entering direction of every column (see iterate)
	rBuf  []float64 // scratch: crash row activity, phase-1 residual
	sBuf  []float64 // scratch: crash slack values
	nzBuf []int     // scratch: rows with a nonzero dual
	iters int
	degen int // consecutive degenerate pivots (Bland trigger)
}

func newSolver(p *Problem, lo, up []float64) *solver {
	m, n := len(p.B), len(p.C)
	s := &solver{
		m: m, n: n, nTot: n + 2*m,
		a:     make([]float64, m*n),
		slack: make([]float64, m),
		art:   make([]float64, m),
		cost:  make([]float64, n+2*m),
		p1:    make([]float64, n+2*m),
		lo:    make([]float64, n+2*m),
		up:    make([]float64, n+2*m),
		b:     append([]float64(nil), p.B...),
		x:     make([]float64, n+2*m),
		atUp:  make([]bool, n+2*m),
		inB:   make([]bool, n+2*m),
		basis: make([]int, m),
		binv:  make([]float64, m*m),
		xB:    make([]float64, m),
		yBuf:  make([]float64, m),
		wBuf:  make([]float64, m),
		dBuf:  make([]float64, n+2*m),
		sgn:   make([]float64, n+2*m),
		rBuf:  make([]float64, m),
		sBuf:  make([]float64, m),
		nzBuf: make([]int, 0, m),
	}
	copy(s.cost[:n], p.C)
	copy(s.lo[:n], lo)
	copy(s.up[:n], up)
	for i, row := range p.A {
		copy(s.row(i), row)
	}
	// Slack/surplus columns: ≤ gets +1 slack in [0,∞); ≥ gets a -1
	// coefficient so the slack variable itself stays ≥ 0; = gets a slack
	// fixed to [0,0].
	for i := 0; i < m; i++ {
		j := n + i
		s.slack[i] = 1
		switch p.Rel[i] {
		case GE:
			s.slack[i] = -1
			s.up[j] = math.Inf(1)
		case LE:
			s.up[j] = math.Inf(1)
		case EQ:
			s.up[j] = 0
		}
		s.p1[n+m+i] = 1
	}
	// Artificial signs are set by crash or by phase-1 setup.
	return s
}

// row returns row i of the structural block of A.
func (s *solver) row(i int) []float64 { return s.a[i*s.n : (i+1)*s.n] }

// unit returns the row and the ±1 coefficient of logical column j ≥ n,
// a slack or an artificial.
func (s *solver) unit(j int) (int, float64) {
	if i := j - s.n; i < s.m {
		return i, s.slack[i]
	}
	i := j - s.n - s.m
	return i, s.art[i]
}

// run executes (crash basis | phase 1) then phase 2 and reports how the
// solve ended; solution turns the final state into a Solution.
func (s *solver) run() Status {
	if !s.crash() {
		if st, ok := s.phase1(); !ok {
			return st
		}
	}
	return s.iterate(s.cost, false)
}

// crash tries to start from a pure slack basis: put every structural
// variable at one of its bounds (all-lower first, then all-upper) and
// check whether the implied slack values are within the slack bounds.
// On success the basis inverse is diagonal (±1) and phase 1 is skipped.
func (s *solver) crash() bool {
	for _, upper := range []bool{false, true} {
		if upper {
			allFinite := true
			for j := 0; j < s.n; j++ {
				if math.IsInf(s.up[j], 1) {
					allFinite = false
					break
				}
			}
			if !allFinite {
				continue
			}
		}
		point := s.lo[:s.n]
		if upper {
			point = s.up[:s.n]
		}
		// Row activity with the chosen nonbasic point, summed over the
		// nonzero terms in ascending column order.
		act := s.rBuf
		for i := range act {
			sum := 0.0
			for j, a := range s.row(i) {
				if v := point[j]; v != 0 && a != 0 {
					sum += float64(a * v)
				}
			}
			act[i] = sum
		}
		ok := true
		slack := s.sBuf
		for i := 0; i < s.m; i++ {
			j := s.n + i
			// Row: act + coef·slack = b  →  slack = (b-act)/coef.
			sv := (s.b[i] - act[i]) / s.slack[i]
			if sv < s.lo[j]-feasTol || sv > s.up[j]+feasTol {
				ok = false
				break
			}
			slack[i] = math.Max(sv, s.lo[j])
		}
		if !ok {
			continue
		}
		// Install the slack basis.
		for j := 0; j < s.n; j++ {
			s.atUp[j] = upper
			s.x[j] = point[j]
			s.inB[j] = false
		}
		for i := 0; i < s.m; i++ {
			j := s.n + i
			s.basis[i] = j
			s.inB[j] = true
			s.xB[i] = slack[i]
			s.x[j] = slack[i]
			row := s.binv[i*s.m : (i+1)*s.m]
			for k := range row {
				row[k] = 0
			}
			row[i] = 1 / s.slack[i]
		}
		// Artificials stay out of the basis and locked at zero.
		for i := 0; i < s.m; i++ {
			j := s.n + s.m + i
			s.art[i] = 1
			s.lo[j], s.up[j] = 0, 0
			s.x[j] = 0
			s.inB[j] = false
		}
		return true
	}
	return false
}

// phase1 installs an artificial basis and minimizes total infeasibility.
// It reports the terminal status and whether a feasible basis was found.
func (s *solver) phase1() (Status, bool) {
	// Initial point: every structural and slack variable at its lower
	// bound (finite by validation).
	for j := 0; j < s.n+s.m; j++ {
		s.x[j] = s.lo[j]
		s.atUp[j] = false
		s.inB[j] = false
	}
	// Residual r = b - A·x determines artificial signs and values,
	// summed over the nonzero terms in ascending column order. Slack
	// lower bounds are 0, so the slacks contribute nothing.
	r := s.rBuf
	for i := range r {
		ri := s.b[i]
		for j, a := range s.row(i) {
			if v := s.x[j]; v != 0 && a != 0 {
				ri -= float64(a * v)
			}
		}
		r[i] = ri
	}
	for i := range s.binv {
		s.binv[i] = 0
	}
	for i := 0; i < s.m; i++ {
		j := s.n + s.m + i
		coef := 1.0
		if r[i] < 0 {
			coef = -1
		}
		s.art[i] = coef
		s.lo[j], s.up[j] = 0, math.Inf(1)
		s.x[j] = math.Abs(r[i])
		s.basis[i] = j
		s.inB[j] = true
		s.atUp[j] = false
		s.xB[i] = s.x[j]
		s.binv[i*s.m+i] = 1 / coef
	}

	st := s.iterate(s.p1, true)
	if st == IterLimit {
		return IterLimit, false
	}
	infeas := 0.0
	for i := 0; i < s.m; i++ {
		if s.basis[i] >= s.n+s.m {
			infeas += s.xB[i]
		}
	}
	if infeas > feasTol {
		return Infeasible, false
	}
	// Lock artificials at zero for phase 2. Basic artificials stuck at
	// value 0 are harmless; they just can't re-grow.
	for i := 0; i < s.m; i++ {
		j := s.n + s.m + i
		s.up[j] = 0
		if !s.inB[j] {
			s.x[j] = 0
		}
	}
	return Optimal, true
}

// solution assembles the Solution of a solve that ended with st: the
// optimum read off the final basis, or zero vectors for any other
// status. Its slices are freshly allocated, so it stays valid across
// later solves.
func (s *solver) solution(st Status) *Solution {
	sol := &Solution{
		Status:      st,
		X:           make([]float64, s.n),
		Dual:        make([]float64, s.m),
		ReducedCost: make([]float64, s.n),
		Iterations:  s.iters,
	}
	if st != Optimal {
		return sol
	}
	for i := 0; i < s.m; i++ {
		s.x[s.basis[i]] = s.xB[i]
	}
	copy(sol.X, s.x[:s.n])
	y := s.duals(s.cost)
	copy(sol.Dual, y)
	obj := 0.0
	for j := 0; j < s.n; j++ {
		obj += s.cost[j] * s.x[j]
	}
	sol.Obj = obj
	// c_j − y·A_j summed over the nonzero coefficients in ascending row
	// order: exactly the operations of a walk down column j.
	rc := sol.ReducedCost
	copy(rc, s.cost[:s.n])
	for i, yi := range y {
		for j, a := range s.row(i) {
			if a != 0 {
				rc[j] -= float64(yi * a)
			}
		}
	}
	return sol
}

// duals computes y = c_B·B⁻¹ for the given cost vector into the shared
// scratch buffer.
func (s *solver) duals(cost []float64) []float64 {
	y := s.yBuf
	for i := range y {
		y[i] = 0
	}
	for i := 0; i < s.m; i++ {
		cb := cost[s.basis[i]]
		if cb == 0 {
			continue
		}
		row := s.binv[i*s.m : (i+1)*s.m]
		for k, v := range row {
			y[k] += cb * v
		}
	}
	return y
}

// price fills dBuf with the reduced cost c_j − y·A_j of every column.
// The structural ones come from one sweep over the row-major copy of A,
// d_j -= yᵢ·Aᵢⱼ. Rows are taken in ascending i, so each column
// accumulates its terms in the order a walk down the column would;
// rows with yᵢ = 0 are skipped. The sweep and a column walk that skips
// Aᵢⱼ = 0 differ only in which zero products they subtract. With finite
// duals a zero product leaves a nonzero d_j unchanged and can flip only
// the sign of a zero one, and pricing compares d_j with −tol, so the
// choice of entering column does not depend on the sign of a zero. Four
// rows go per pass over dBuf; the explicit float64 conversions keep
// every product rounded, so no architecture may fuse it into the
// subtraction.
func (s *solver) price(cost, y []float64) {
	n, m := s.n, s.m
	d := s.dBuf[:n]
	copy(d, cost[:n])
	nz := s.nzBuf[:0]
	for i, yi := range y {
		if yi != 0 {
			nz = append(nz, i)
		}
	}
	k := 0
	for ; k+4 <= len(nz); k += 4 {
		y0, y1, y2, y3 := y[nz[k]], y[nz[k+1]], y[nz[k+2]], y[nz[k+3]]
		a0 := s.row(nz[k])[:len(d)]
		a1 := s.row(nz[k+1])[:len(d)]
		a2 := s.row(nz[k+2])[:len(d)]
		a3 := s.row(nz[k+3])[:len(d)]
		for j, v := range d {
			v -= float64(y0 * a0[j])
			v -= float64(y1 * a1[j])
			v -= float64(y2 * a2[j])
			v -= float64(y3 * a3[j])
			d[j] = v
		}
	}
	for ; k < len(nz); k++ {
		yi, a := y[nz[k]], s.row(nz[k])[:len(d)]
		for j := range d {
			d[j] -= float64(yi * a[j])
		}
	}
	// Slack and artificial columns have a single ±1 entry.
	for i, yi := range y {
		s.dBuf[n+i] = cost[n+i] - float64(yi*s.slack[i])
		s.dBuf[n+m+i] = cost[n+m+i] - float64(yi*s.art[i])
	}
}

// iterate runs primal simplex iterations with cost vector `cost` until
// optimality, unboundedness or the iteration cap. In phase 1 artificial
// columns may price; afterwards they are excluded.
func (s *solver) iterate(cost []float64, phase1 bool) Status {
	maxIter := s.iters + 5000 + 50*(s.n+s.m)
	w := s.wBuf
	// sgn[j] is the direction nonbasic column j may move from its bound:
	// +1 at lower (attractive to increase if d_j < 0), −1 at upper
	// (attractive to decrease if d_j > 0), and 0 for basic and fixed
	// columns, which never enter. The pricing score d_j·sgn[j] is then
	// exactly d_j or −d_j, and ±0 or NaN, which never beats −tol, for
	// the columns that cannot enter.
	sgn := s.sgn
	for j := range sgn {
		sgn[j] = s.direction(j)
	}
	for {
		if s.iters >= maxIter {
			return IterLimit
		}
		s.iters++
		y := s.duals(cost)
		s.price(cost, y)

		// Pricing: pick the entering variable.
		limit := s.nTot
		if !phase1 {
			limit = s.n + s.m
		}
		bland := s.degen >= blandTrigger
		enter, dir := -1, 0.0
		best := -tol
		dirs := sgn[:limit]
		for j, d := range s.dBuf[:limit] {
			if score := d * dirs[j]; score < best {
				enter, dir = j, dirs[j]
				if bland {
					break
				}
				best = score
			}
		}
		if enter < 0 {
			return Optimal
		}

		// Direction through the basis: w = B⁻¹·A_enter, summed over the
		// entering column's nonzeros in ascending row order.
		for i := range w {
			w[i] = 0
		}
		if enter < s.n {
			for i := 0; i < s.m; i++ {
				if v := s.a[i*s.n+enter]; v != 0 {
					s.addBinvCol(w, i, v)
				}
			}
		} else {
			i, coef := s.unit(enter)
			s.addBinvCol(w, i, coef)
		}

		// Ratio test. Basic variable i moves by -t·dir·w[i].
		tMax := s.up[enter] - s.lo[enter] // bound-flip cap (may be +Inf)
		leave, leaveToUp := -1, false
		consider := func(i int, t float64, toUp bool) {
			switch {
			case t < tMax-tol:
				tMax, leave, leaveToUp = t, i, toUp
			case t <= tMax+tol:
				// Tie within tolerance: under Bland's rule prefer the
				// smallest leaving variable index (anti-cycling);
				// otherwise keep the first hit.
				if leave < 0 || (bland && s.basis[i] < s.basis[leave]) {
					if t < tMax {
						tMax = t
					}
					leave, leaveToUp = i, toUp
				}
			}
		}
		for i := 0; i < s.m; i++ {
			delta := -dir * w[i]
			bi := s.basis[i]
			switch {
			case delta < -tol:
				consider(i, (s.xB[i]-s.lo[bi])/(-delta), false)
			case delta > tol:
				if !math.IsInf(s.up[bi], 1) {
					consider(i, (s.up[bi]-s.xB[i])/delta, true)
				}
			}
		}
		if math.IsInf(tMax, 1) {
			return Unbounded
		}
		if tMax < tol {
			s.degen++
		} else {
			s.degen = 0
		}
		if tMax < 0 {
			tMax = 0
		}

		// Apply the step to the basic values.
		for i := 0; i < s.m; i++ {
			s.xB[i] -= tMax * dir * w[i]
		}

		if leave < 0 {
			// Pure bound flip: the entering variable crosses to its
			// opposite bound; the basis is unchanged.
			if dir > 0 {
				s.x[enter] = s.up[enter]
				s.atUp[enter] = true
			} else {
				s.x[enter] = s.lo[enter]
				s.atUp[enter] = false
			}
			sgn[enter] = -dir
			continue
		}

		// Pivot: `enter` becomes basic in row `leave`.
		out := s.basis[leave]
		s.inB[out] = false
		if leaveToUp {
			s.x[out] = s.up[out]
			s.atUp[out] = true
		} else {
			s.x[out] = s.lo[out]
			s.atUp[out] = false
		}
		var enterVal float64
		if dir > 0 {
			enterVal = s.lo[enter] + tMax
		} else {
			enterVal = s.up[enter] - tMax
		}
		s.basis[leave] = enter
		s.inB[enter] = true
		s.atUp[enter] = false
		s.xB[leave] = enterVal
		sgn[out], sgn[enter] = s.direction(out), 0

		// Update B⁻¹: eliminate w in all rows but `leave`.
		piv := w[leave]
		prow := s.binv[leave*s.m : (leave+1)*s.m]
		inv := 1 / piv
		for k := range prow {
			prow[k] *= inv
		}
		for i := 0; i < s.m; i++ {
			if i == leave {
				continue
			}
			f := w[i]
			if f == 0 {
				continue
			}
			row := s.binv[i*s.m : (i+1)*s.m][:len(prow)]
			for k, p := range prow {
				row[k] -= f * p
			}
		}
	}
}

// direction returns the entering direction of column j: 0 if it is
// basic or fixed, −1 at its upper bound, +1 at its lower bound.
func (s *solver) direction(j int) float64 {
	switch {
	case s.inB[j] || s.lo[j] == s.up[j]:
		return 0
	case s.atUp[j]:
		return -1
	}
	return 1
}

// addBinvCol adds v times column col of B⁻¹ to w.
func (s *solver) addBinvCol(w []float64, col int, v float64) {
	binv, m := s.binv, s.m
	for r := range w {
		w[r] += float64(binv[r*m+col] * v)
	}
}

// WarmSolver solves a sequence of LPs that share A, b, Rel and bounds
// and differ only in the cost vector — the access pattern of the BCPOP
// workload, where every upper-level pricing decision re-prices the same
// covering matrix. After the first solve the optimal basis remains
// primal feasible for any new costs, so subsequent solves run phase 2
// only, typically converging in a few pivots.
type WarmSolver struct {
	s      *solver
	n      int
	solved bool // a feasible basis is installed
	infeas bool // the feasible region is empty regardless of costs

	// Fault, when non-nil, is consulted before every solve; a non-nil
	// return aborts the solve with that error and leaves the solver
	// state (warm basis, infeasibility latch) untouched, so a later
	// retry behaves as if the faulted call never happened. Used by the
	// fault-injection layer; nil in production.
	Fault func() error
}

// NewWarmSolver validates the problem shape and prepares a reusable
// solver. p.C provides the initial costs. A WarmSolver is not safe for
// concurrent use; clone one per goroutine via NewWarmSolver.
func NewWarmSolver(p *Problem) (*WarmSolver, error) {
	lo, up, err := validate(p)
	if err != nil {
		return nil, err
	}
	return &WarmSolver{s: newSolver(p, lo, up), n: len(p.C)}, nil
}

// SolveWithCosts solves with a fresh cost vector (length n). The
// returned Solution is freshly allocated and remains valid across later
// calls.
func (ws *WarmSolver) SolveWithCosts(c []float64) (*Solution, error) {
	if len(c) != ws.n {
		return nil, fmt.Errorf("lp: got %d costs, want %d", len(c), ws.n)
	}
	for j, v := range c {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("lp: bad cost on variable %d: %v", j, v)
		}
	}
	if ws.Fault != nil {
		if err := ws.Fault(); err != nil {
			return nil, fmt.Errorf("lp: %w", err)
		}
	}
	return ws.s.solution(ws.solve(c)), nil
}

// solve re-optimizes for the validated costs c and reports the final
// status, leaving the result in the solver's state. It allocates
// nothing.
func (ws *WarmSolver) solve(c []float64) Status {
	s := ws.s
	copy(s.cost[:s.n], c)
	if ws.infeas {
		return Infeasible
	}
	if ws.solved {
		// Warm path: current basis is primal feasible; re-optimize.
		s.degen = 0
		if st := s.iterate(s.cost, false); st == Optimal {
			return st
		}
		// Numerical trouble on the warm path (e.g. accumulated basis
		// drift): fall back to a cold solve once.
	}
	st := s.run()
	ws.solved = st == Optimal
	if st == Infeasible {
		ws.infeas = true
	}
	return st
}

// Iterations returns the cumulative simplex iterations across all solves.
func (ws *WarmSolver) Iterations() int { return ws.s.iters }

// Reset discards the installed warm basis, so the next SolveWithCosts
// runs cold, exactly like the first solve of a fresh WarmSolver. The
// infeasibility latch is kept — an empty feasible region is a property
// of the matrix, not the costs.
//
// Solvers accumulate basis state (and its floating-point history) across
// solves; callers that need solve results to depend only on the current
// cost vector and not on which solves came before — e.g. checkpointed
// runs that must replay bit-identically after a restore — call Reset at
// their replay boundaries.
func (ws *WarmSolver) Reset() { ws.solved = false }
