package core

// bestResponseIterations halvings of [0, pmax] resolve p* to
// pmax·2^-64 — below float64 resolution for any physical power level.
const bestResponseIterations = 64

// BestResponse solves Lemma IV.3: the total power request p* that
// maximizes F_n(p) = U_n(p) − Ψ_n(p) over [0, pmax].
//
// F_n is strictly concave (U strictly concave, Ψ convex), so
// F'_n(p) = U'_n(p) − Z'(λ*(p)) is strictly decreasing and the
// three-case structure of Eq. (22) reduces to a bisection on the sign
// of F'_n:
//
//	F'_n(0)    ≤ 0  →  p* = 0
//	F'_n(pmax) ≥ 0  →  p* = pmax
//	otherwise       →  the unique root of F'_n in (0, pmax)
//
// The request is additionally clamped to what the quoted schedule can
// physically place (C·drawCap under an Eq. (3) draw cap).
func (f *PaymentFunction) BestResponse(sat Satisfaction, pmax float64) float64 {
	if ceiling := f.maxAllocatable(); pmax > ceiling {
		pmax = ceiling
	}
	if pmax <= 0 {
		return 0
	}
	// The bisection evaluates deriv dozens of times, so U' has a
	// concrete fast path for the evaluation's LogSatisfaction that
	// performs the same operations as its Marginal method.
	logSat, isLog := sat.(LogSatisfaction)
	deriv := func(p float64) float64 {
		var u float64
		if isLog {
			if p < 0 {
				p = 0
			}
			u = logSat.Weight / (1 + p)
		} else {
			u = sat.Marginal(p)
		}
		return u - f.Marginal(p)
	}

	if deriv(0) <= 0 {
		return 0
	}
	if deriv(pmax) >= 0 {
		return pmax
	}
	lo, hi := 0.0, pmax
	for i := 0; i < bestResponseIterations; i++ {
		mid := lo + (hi-lo)/2
		if deriv(mid) > 0 {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo + (hi-lo)/2
}
