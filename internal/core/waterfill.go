package core

import (
	"math"
	"sort"
)

// Bisection controls for the λ-search variants. They were inline magic
// numbers; naming them makes the solver's precision contract explicit
// and testable (see the saturated-boundary regression tests).
const (
	// defaultLevelTol is the absolute error bound on the allocated
	// total when WaterFillBisect's caller passes no tolerance.
	defaultLevelTol = 1e-9
	// maxLevelIterations caps the λ bisection; 200 halvings shrink any
	// physically meaningful bracket far below defaultLevelTol, so the
	// cap only guards against non-finite inputs stalling the loop.
	maxLevelIterations = 200
	// perDrawLevelRelTol is PerDrawWaterFill's relative bracket width
	// target; the residual repair afterwards makes the row sum exact.
	perDrawLevelRelTol = 1e-12
)

// WaterFill solves Lemma IV.1: split an OLEV's total power request
// across charging sections so post-allocation section totals equalize
// at a water level λ*,
//
//	alloc_c = [λ* − others_c]^+  with  Σ_c alloc_c = total,
//
// which is the unique minimum-cost schedule when every section shares
// the same strictly convex cost. others_c is P_−n,c, the load already
// scheduled by the other OLEVs on section c.
//
// It returns the per-section allocation and the level λ*. A
// non-positive total yields a zero allocation with λ* equal to the
// smallest entry of others (the level at which water would first
// start to pool). The input slice is not modified.
//
// The exact O(C log C) breakpoint algorithm is used; WaterFillBisect
// provides the paper's bisection formulation and the tests cross-check
// the two. Solvers reach Lemma IV.1 through PaymentFunction, whose
// uncapped level the tests assert bit-identical to this one; WaterFill
// stays as the allocating reference form.
func WaterFill(others []float64, total float64) (alloc []float64, level float64) {
	alloc = make([]float64, len(others))
	if len(others) == 0 {
		return alloc, 0
	}
	if total <= 0 {
		min := others[0]
		for _, o := range others[1:] {
			if o < min {
				min = o
			}
		}
		return alloc, min
	}

	sorted := make([]float64, len(others))
	copy(sorted, others)
	sort.Float64s(sorted)

	// Find the smallest k such that filling the k lowest sections up
	// to a common level absorbs the whole request before the level
	// reaches the (k+1)-th section's load.
	var prefix float64
	level = sorted[len(sorted)-1] + total // fallback: all sections flooded
	for k := 1; k <= len(sorted); k++ {
		prefix += sorted[k-1]
		candidate := (total + prefix) / float64(k)
		if k == len(sorted) || candidate <= sorted[k] {
			level = candidate
			break
		}
	}

	for i, o := range others {
		if level > o {
			alloc[i] = level - o
		}
	}
	return alloc, level
}

// WaterFillBisect solves the same problem by bisecting on the root of
// Y(λ) = Σ_c [λ − others_c]^+ − total, the method the paper's
// Section IV-F prescribes. It exists as an independently derived
// implementation for cross-checking and for the benches that compare
// the two. tol bounds the absolute error on the allocated total.
func WaterFillBisect(others []float64, total float64, tol float64) (alloc []float64, level float64) {
	alloc = make([]float64, len(others))
	if len(others) == 0 {
		return alloc, 0
	}
	if tol <= 0 {
		tol = defaultLevelTol
	}
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, o := range others {
		lo = math.Min(lo, o)
		hi = math.Max(hi, o)
	}
	if total <= 0 {
		return alloc, lo
	}
	hi += total // Y(hi) >= total with equality only if all others equal

	yOf := func(lambda float64) float64 {
		var sum float64
		for _, o := range others {
			if lambda > o {
				sum += lambda - o
			}
		}
		return sum
	}
	for i := 0; i < maxLevelIterations && hi-lo > tol/float64(len(others)+1); i++ {
		mid := lo + (hi-lo)/2
		if yOf(mid) < total {
			lo = mid
		} else {
			hi = mid
		}
	}
	level = lo + (hi-lo)/2

	// Distribute, then repair the rounding residual proportionally so the
	// allocation sums exactly to total.
	var sum float64
	for i, o := range others {
		if level > o {
			alloc[i] = level - o
			sum += alloc[i]
		}
	}
	if sum > 0 {
		scale := total / sum
		for i := range alloc {
			alloc[i] *= scale
		}
	}
	return alloc, level
}

// PerDrawWaterFill solves the Lemma IV.1 schedule under Eq. (3)'s
// per-vehicle coupling constraint: no single section may supply this
// vehicle more than drawCap kW (its own line capacity P_line(vel_n)),
// so the allocation is
//
//	alloc_c = min([λ − others_c]^+, drawCap)  with  Σ_c alloc_c = total.
//
// Y(λ) is still non-decreasing and piecewise linear, so λ is found by
// bisection with an exact residual repair. A non-positive drawCap
// means "uncapped" and defers to the plain WaterFill. When total
// exceeds the allocatable C·drawCap, the allocation saturates at the
// cap everywhere and the shortfall is the caller's to handle (the
// best response never requests it).
//
// Like WaterFillBisect it is an independent reference: production code
// schedules through PaymentFunction.Fill, whose exact breakpoint walk
// the tests cross-check against this bisection.
func PerDrawWaterFill(others []float64, drawCap, total float64) (alloc []float64, level float64) {
	if drawCap <= 0 {
		return WaterFill(others, total)
	}
	alloc = make([]float64, len(others))
	if len(others) == 0 {
		return alloc, 0
	}
	if total <= 0 {
		_, level = WaterFill(others, 0)
		return alloc, level
	}
	maxAllocatable := float64(len(others)) * drawCap
	if total >= maxAllocatable {
		lo := math.Inf(1)
		for i, o := range others {
			alloc[i] = drawCap
			lo = math.Min(lo, o)
		}
		return alloc, lo + drawCap + (total-maxAllocatable)/float64(len(others))
	}

	yOf := func(lambda float64) float64 {
		var sum float64
		for _, o := range others {
			a := lambda - o
			if a <= 0 {
				continue
			}
			if a > drawCap {
				a = drawCap
			}
			sum += a
		}
		return sum
	}
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, o := range others {
		lo = math.Min(lo, o)
		hi = math.Max(hi, o)
	}
	hi += drawCap // Y(hi) = C·drawCap > total
	for i := 0; i < maxLevelIterations && hi-lo > perDrawLevelRelTol*(1+math.Abs(hi)); i++ {
		mid := lo + (hi-lo)/2
		if yOf(mid) < total {
			lo = mid
		} else {
			hi = mid
		}
	}
	level = lo + (hi-lo)/2

	var sum float64
	for i, o := range others {
		a := level - o
		if a <= 0 {
			continue
		}
		if a > drawCap {
			a = drawCap
		}
		alloc[i] = a
		sum += a
	}
	// Repair bisection residue proportionally over the uncapped,
	// active sections so the total is exact.
	if diff := total - sum; math.Abs(diff) > 1e-15 {
		var slack float64
		for i := range alloc {
			if alloc[i] > 0 && alloc[i] < drawCap {
				slack += alloc[i]
			}
		}
		if slack > 0 {
			for i := range alloc {
				if alloc[i] > 0 && alloc[i] < drawCap {
					alloc[i] += diff * alloc[i] / slack
				}
			}
		}
	}
	return alloc, level
}
