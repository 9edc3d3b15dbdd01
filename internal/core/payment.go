package core

import (
	"math"
	"slices"
)

// Payment computes ξ_n of Eq. (9): the cost-difference payment an
// OLEV owes for the allocation alloc against the background load
// others, summed across sections:
//
//	ξ_n = Σ_c [ Z(P_−n,c + p_n,c) − Z(P_−n,c) ]
//
// costs[c] is section c's Z. The function is unbiased — a zero
// allocation pays zero — which tests assert. It panics on length
// mismatches, which are programming errors.
func Payment(costs []CostFunction, others, alloc []float64) float64 {
	if len(costs) != len(others) || len(others) != len(alloc) {
		panic("core: Payment length mismatch")
	}
	var total float64
	for c := range costs {
		if alloc[c] == 0 {
			continue
		}
		total += costs[c].Cost(others[c]+alloc[c]) - costs[c].Cost(others[c])
	}
	return total
}

// PaymentFunction is Ψ_n of Eq. (16): the payment the smart grid
// quotes OLEV n for any total request p_n, assuming the grid schedules
// the request at minimum cost (water-filling, Lemma IV.1) against the
// frozen background load of the other OLEVs, optionally under the
// vehicle's Eq. (3) per-section draw cap.
//
// It is the one implementation of Lemma IV.1 and Lemma IV.3 every
// solver shares: the round engine, Game.UpdateOne, RunSynchronous, the
// V2I agent and the coordinator all Reset a PaymentFunction against
// the background they see, then call BestResponse and Fill. Reset
// sorts the background once and builds prefix sums, so each water
// level is an exact O(log C) breakpoint search (O(C) under a draw cap)
// and a reused PaymentFunction never allocates. The zero value is
// ready for Reset; a PaymentFunction is not safe for concurrent use.
type PaymentFunction struct {
	cost    CostFunction
	zPrime  zPrime    // cost.Marginal, devirtualized
	drawCap float64   // Eq. (3) per-section limit; non-positive means uncapped
	others  []float64 // P_−n snapshot
	sorted  []float64 // others, ascending
	prefix  []float64 // prefix[k] = Σ of the k smallest others
	row     []float64 // At's scratch allocation
}

// Reset re-quotes Ψ against a new background: the shared section cost
// Z, the other OLEVs' per-section totals P_−n (copied) and the
// vehicle's per-section draw cap (non-positive for none). Buffers are
// reused, so Reset allocates only when the section count grows.
func (f *PaymentFunction) Reset(cost CostFunction, others []float64, drawCap float64) {
	f.others = append(f.others[:0], others...)
	f.prepare(cost, drawCap)
}

// prepare finishes a Reset once f.others holds the background; the
// round engine writes P_−n there in place.
func (f *PaymentFunction) prepare(cost CostFunction, drawCap float64) {
	f.cost, f.zPrime, f.drawCap = cost, newZPrime(cost), drawCap
	c := len(f.others)
	f.sorted = append(f.sorted[:0], f.others...)
	slices.Sort(f.sorted)
	if cap(f.prefix) < c+1 {
		f.prefix = make([]float64, c+1)
		f.row = make([]float64, c)
	}
	f.prefix, f.row = f.prefix[:c+1], f.row[:c]
	f.prefix[0] = 0
	for k, v := range f.sorted {
		f.prefix[k+1] = f.prefix[k] + v
	}
}

// maxAllocatable is the most power the quoted schedule can place:
// unbounded without a draw cap, C·drawCap with one.
func (f *PaymentFunction) maxAllocatable() float64 {
	if f.drawCap <= 0 {
		return math.Inf(1)
	}
	return float64(len(f.others)) * f.drawCap
}

// level returns the water level λ*(p) of the minimum-cost schedule.
func (f *PaymentFunction) level(p float64) float64 {
	switch {
	case len(f.sorted) == 0:
		return 0
	case f.drawCap > 0:
		return cappedLevelSorted(f.sorted, f.prefix, f.drawCap, p)
	}
	return levelSorted(f.sorted, f.prefix, p)
}

// At evaluates Ψ_n(p): the total payment for requesting p kW.
func (f *PaymentFunction) At(p float64) float64 {
	if p <= 0 {
		return 0
	}
	f.Fill(f.row, p)
	var total float64
	for c, a := range f.row {
		if a == 0 {
			continue
		}
		total += f.cost.Cost(f.others[c]+a) - f.cost.Cost(f.others[c])
	}
	return total
}

// Marginal evaluates Ψ'_n(p). By the envelope theorem the derivative
// of the minimum-cost schedule's payment is the marginal section cost
// at the water level: Ψ'_n(p) = Z'(λ*(p)). With an Eq. (3) draw cap
// the marginal power still lands on sections below their cap at the
// level, so the identity carries over.
func (f *PaymentFunction) Marginal(p float64) float64 {
	if p < 0 {
		p = 0
	}
	return f.zPrime.at(f.level(p))
}

// Fill writes the water-filled allocation p̂_n(p) the quote is based
// on into dst (length C):
//
//	dst_c = min([λ* − P_−n,c]^+, drawCap)  with  Σ_c dst_c = p.
//
// Uncapped, it is bit-identical to WaterFill. Under a draw cap a
// request of at least C·drawCap saturates every section, and any
// float residual of the level solve is spread over the active
// sections below the cap so the row sums exactly to p.
func (f *PaymentFunction) Fill(dst []float64, p float64) {
	if p <= 0 {
		clear(dst)
		return
	}
	capped := f.drawCap > 0
	if capped && p >= f.maxAllocatable() {
		for c := range dst {
			dst[c] = f.drawCap
		}
		return
	}
	level := f.level(p)
	var sum float64
	for c, o := range f.others {
		a := level - o
		if a <= 0 {
			dst[c] = 0
			continue
		}
		if capped && a > f.drawCap {
			a = f.drawCap
		}
		dst[c] = a
		sum += a
	}
	if !capped {
		return
	}
	if diff := p - sum; math.Abs(diff) > 1e-15 {
		var slack float64
		for _, a := range dst {
			if a > 0 && a < f.drawCap {
				slack += a
			}
		}
		if slack > 0 {
			for c, a := range dst {
				if a > 0 && a < f.drawCap {
					dst[c] += diff * a / slack
				}
			}
		}
	}
}

// levelSorted returns the exact water level λ*(total) for a sorted
// background with prefix sums: the same breakpoint solution WaterFill
// computes, found by binary search instead of a linear scan. The
// predicate "filling the k lowest sections absorbs the request before
// the level reaches section k+1" is monotone in k, so the first true
// index is the active-set size.
func levelSorted(sorted, prefix []float64, total float64) float64 {
	c := len(sorted)
	if total <= 0 {
		return sorted[0]
	}
	// Inline sort.Search: the closure would be called from the hottest
	// loop in the solver, several probes per derivative evaluation.
	i, j := 0, c-1
	for i < j {
		h := int(uint(i+j) >> 1)
		k := h + 1
		if (total+prefix[k])/float64(k) > sorted[k] {
			i = h + 1
		} else {
			j = h
		}
	}
	k := i + 1
	return (total + prefix[k]) / float64(k)
}

// cappedLevelSorted solves Y(λ) = Σ_c min([λ − o_c]^+, cap) = total on
// a sorted background by walking the 2C breakpoints {o_i} ∪ {o_i+cap}
// with two pointers — exact and allocation-free, where
// PerDrawWaterFill bisects. Between breakpoints Y is linear:
// Y(λ) = cap·j + (k−j)·λ − (prefix_k − prefix_j) with k sections
// entered (λ > o_i) and j of them capped (λ ≥ o_i + cap).
func cappedLevelSorted(sorted, prefix []float64, cap, total float64) float64 {
	c := len(sorted)
	if total <= 0 {
		return sorted[0]
	}
	if maxAlloc := float64(c) * cap; total >= maxAlloc {
		// Every section saturates; mirror PerDrawWaterFill's convention
		// for the shortfall-carrying level.
		return sorted[0] + cap + (total-maxAlloc)/float64(c)
	}
	k, j := 0, 0
	for {
		// The next breakpoint is the smaller of "section k enters" and
		// "section j caps out".
		enter := k < c && (j >= k || sorted[k] <= sorted[j]+cap)
		bp := sorted[j] + cap
		if enter {
			bp = sorted[k]
		}
		// Y at the candidate breakpoint with the current (k, j).
		y := cap*float64(j) + float64(k-j)*bp - (prefix[k] - prefix[j])
		if y >= total {
			if k == j { // flat segment; cannot happen with y rising past total
				return bp
			}
			return (total - cap*float64(j) + prefix[k] - prefix[j]) / float64(k-j)
		}
		if enter {
			k++
		} else {
			j++
		}
		if j >= c {
			// All capped before absorbing total — excluded by the
			// maxAlloc clamp above, but keep the walk total.
			return sorted[c-1] + cap
		}
	}
}
