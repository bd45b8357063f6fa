package covering

import (
	"math"
)

// LagrangianResult is the outcome of subgradient optimization of the
// covering problem's Lagrangian dual.
type LagrangianResult struct {
	Bound      float64   // best lower bound found, ≤ optimal ILP cost
	Lambda     []float64 // multipliers achieving it (length N)
	Iterations int
}

// LagrangianBound computes a lower bound on the covering optimum by
// subgradient ascent on the Lagrangian dual
//
//	L(λ) = Σₖ λₖ·bₖ + Σⱼ min(0, cⱼ − Σₖ λₖ·qⱼᵏ),    λ ≥ 0,
//
// whose inner minimization decomposes per item (xⱼ = 1 exactly when the
// Lagrangian reduced cost is negative). It is the classic alternative to
// the LP bound used in Eq. 1's denominator: because the inner problem
// has the integrality property, max_λ L(λ) equals the LP-relaxation
// value, so this routine doubles as an independent cross-check of the
// simplex solver (see TestLagrangianApproachesLPBound) and as a
// fallback when an LP solve is unwanted.
//
// ub is an upper bound used by the Polyak step rule (any feasible
// selection cost works; pass the Chvátal greedy's). iters caps the
// subgradient steps; 200 is plenty for the paper's instance sizes.
func (in *Instance) LagrangianBound(ub float64, iters int) LagrangianResult {
	m, n := in.M(), in.N()
	if iters <= 0 {
		iters = 200
	}
	lambda := make([]float64, n)
	bestLambda := make([]float64, n)
	// Warm start: uniform multipliers scaled so that an average item is
	// roughly break-even — purely heuristic, any λ ≥ 0 is valid.
	avgC, avgQ := 0.0, 0.0
	for _, c := range in.C {
		avgC += c
	}
	avgC /= float64(m)
	for k := 0; k < n; k++ {
		for j := 0; j < m; j++ {
			avgQ += in.Q[k][j]
		}
	}
	avgQ /= float64(m * n)
	if avgQ > 0 {
		init := avgC / (avgQ * float64(n))
		for k := range lambda {
			lambda[k] = init
		}
	}

	best := math.Inf(-1)
	theta := 2.0 // Polyak step scale, halved on stalls
	stall := 0
	g := make([]float64, n)
	red := make([]float64, m)

	for it := 0; it < iters; it++ {
		// Inner minimization: reduced costs and the dual value.
		val := 0.0
		for k := 0; k < n; k++ {
			val += float64(lambda[k] * in.B[k])
		}
		for j := 0; j < m; j++ {
			rc := in.C[j]
			col := in.Cols[j]
			for k := 0; k < n; k++ {
				rc -= float64(lambda[k] * col[k])
			}
			red[j] = rc
			if rc < 0 {
				val += rc
			}
		}
		if val > best {
			best = val
			copy(bestLambda, lambda)
			stall = 0
		} else {
			stall++
			if stall >= 10 {
				theta /= 2
				stall = 0
				if theta < 1e-4 {
					return LagrangianResult{Bound: best, Lambda: bestLambda, Iterations: it + 1}
				}
			}
		}

		// Subgradient g = b − Q·x(λ).
		norm2 := 0.0
		for k := 0; k < n; k++ {
			gk := in.B[k]
			for j := 0; j < m; j++ {
				if red[j] < 0 {
					gk -= in.Q[k][j]
				}
			}
			g[k] = gk
			norm2 += float64(gk * gk)
		}
		if norm2 < 1e-18 {
			// x(λ) satisfies every requirement exactly: λ is optimal.
			return LagrangianResult{Bound: best, Lambda: bestLambda, Iterations: it + 1}
		}
		step := theta * (ub - val) / norm2
		if step <= 0 {
			step = theta*math.Abs(val)*1e-3/norm2 + 1e-9
		}
		for k := 0; k < n; k++ {
			lambda[k] += float64(step * g[k])
			if lambda[k] < 0 {
				lambda[k] = 0
			}
		}
	}
	return LagrangianResult{Bound: best, Lambda: bestLambda, Iterations: iters}
}
