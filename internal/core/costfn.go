package core

import (
	"fmt"
	"math"
)

// CostFunction is a section's power charging cost: a convex,
// non-decreasing function of the section's total scheduled power
// (kW), returning a cost rate in $/h. The best-response machinery
// additionally needs the first derivative.
type CostFunction interface {
	// Cost returns the cost rate at load x kW.
	Cost(x float64) float64
	// Marginal returns dCost/dx at load x kW, in $/kWh.
	Marginal(x float64) float64
}

// QuadraticCharging is the paper's nonlinear charging cost V(·),
// normalized so the *unit* price sweeps from roughly
// β·α²/(α+1)² at zero load up to β at full capacity:
//
//	V(x) = β · x · (α + x/cap)² / (α+1)²
//
// β is in $/kWh (the experiment harness converts from the $/MWh LBMP
// the grid substrate quotes), α ≥ 0 shapes the grid's profit floor
// (the paper sets 0.875), and cap is the section's capacity ηP_line.
// V is strictly convex and strictly increasing on x ≥ 0.
type QuadraticCharging struct {
	Beta     float64
	Alpha    float64
	Capacity float64
}

var _ CostFunction = QuadraticCharging{}

// NewQuadraticCharging validates and constructs the charging cost.
func NewQuadraticCharging(betaPerKWh, alpha, capacityKW float64) (QuadraticCharging, error) {
	switch {
	case betaPerKWh <= 0 || math.IsNaN(betaPerKWh):
		return QuadraticCharging{}, fmt.Errorf("core: beta %v must be positive", betaPerKWh)
	case alpha < 0 || math.IsNaN(alpha):
		return QuadraticCharging{}, fmt.Errorf("core: alpha %v must be non-negative", alpha)
	case capacityKW <= 0 || math.IsNaN(capacityKW):
		return QuadraticCharging{}, fmt.Errorf("core: capacity %v must be positive", capacityKW)
	}
	return QuadraticCharging{Beta: betaPerKWh, Alpha: alpha, Capacity: capacityKW}, nil
}

// Cost implements CostFunction.
func (q QuadraticCharging) Cost(x float64) float64 {
	if x <= 0 {
		return 0
	}
	u := q.Alpha + x/q.Capacity
	norm := (q.Alpha + 1) * (q.Alpha + 1)
	return q.Beta * x * u * u / norm
}

// Marginal implements CostFunction.
func (q QuadraticCharging) Marginal(x float64) float64 {
	if x < 0 {
		x = 0
	}
	u := q.Alpha + x/q.Capacity
	norm := (q.Alpha + 1) * (q.Alpha + 1)
	return q.Beta * (u*u + 2*x*u/q.Capacity) / norm
}

// LinearCharging is the comparison baseline V(x) = β·x: a flat unit
// price that never reacts to congestion. It is convex but not strictly
// convex, which is exactly why the linear policy cannot load-balance.
type LinearCharging struct {
	Beta float64
}

var _ CostFunction = LinearCharging{}

// Cost implements CostFunction.
func (l LinearCharging) Cost(x float64) float64 {
	if x <= 0 {
		return 0
	}
	return l.Beta * x
}

// Marginal implements CostFunction.
func (l LinearCharging) Marginal(float64) float64 { return l.Beta }

// OverloadPenalty is A(·) of Eq. (6): a convex penalty on load beyond
// the safe capacity ηP_line, zero below it:
//
//	A(x) = κ/(2·cap) · ([x − cap]^+)²
//
// κ is in $/kWh and sets how violently the marginal price climbs once
// a section is overloaded; cap is ηP_line.
type OverloadPenalty struct {
	Kappa    float64
	Capacity float64
}

var _ CostFunction = OverloadPenalty{}

// Cost implements CostFunction.
func (o OverloadPenalty) Cost(x float64) float64 {
	over := x - o.Capacity
	if over <= 0 {
		return 0
	}
	return o.Kappa / (2 * o.Capacity) * over * over
}

// Marginal implements CostFunction.
func (o OverloadPenalty) Marginal(x float64) float64 {
	over := x - o.Capacity
	if over <= 0 {
		return 0
	}
	return o.Kappa * over / o.Capacity
}

// zPrime is a section cost's Z' with the interface dispatch stripped
// for the compositions the experiments actually run — SectionCost over
// the quadratic or linear charging curve with the overload penalty —
// falling back to the interface method for anything else. The
// specialized branches perform the same floating-point operations in
// the same order as the Marginal methods they shortcut, so results are
// bit-identical; they exist only to take the double interface dispatch
// out of the best-response bisection, the solvers' hottest loop. It is
// a plain value, so re-quoting a PaymentFunction never allocates.
type zPrime struct {
	kind zPrimeKind
	cost CostFunction // the fallback
	q    QuadraticCharging
	l    LinearCharging
	o    OverloadPenalty
}

type zPrimeKind uint8

const (
	zPrimeGeneric zPrimeKind = iota
	zPrimeQuadratic
	zPrimeLinear
)

func newZPrime(cost CostFunction) zPrime {
	m := zPrime{cost: cost}
	sc, ok := cost.(SectionCost)
	if !ok {
		return m
	}
	if m.o, ok = sc.Overload.(OverloadPenalty); !ok {
		return m
	}
	switch q := sc.Charging.(type) {
	case QuadraticCharging:
		m.kind, m.q = zPrimeQuadratic, q
	case LinearCharging:
		m.kind, m.l = zPrimeLinear, q
	}
	return m
}

func (m *zPrime) at(x float64) float64 {
	var d float64
	switch m.kind {
	case zPrimeQuadratic:
		q := &m.q
		if x < 0 {
			x = 0
		}
		u := q.Alpha + x/q.Capacity
		norm := (q.Alpha + 1) * (q.Alpha + 1)
		d = q.Beta * (u*u + 2*x*u/q.Capacity) / norm
	case zPrimeLinear:
		d = m.l.Beta
	default:
		return m.cost.Marginal(x)
	}
	if over := x - m.o.Capacity; over > 0 {
		d += m.o.Kappa * over / m.o.Capacity
	}
	return d
}

// SectionCost is Z(·) = V(·) + A(· − ηP_line) of Eq. (6): the total
// power charging plus overload cost of one charging section.
type SectionCost struct {
	Charging CostFunction
	Overload CostFunction
}

var _ CostFunction = SectionCost{}

// Cost implements CostFunction.
func (s SectionCost) Cost(x float64) float64 {
	return s.Charging.Cost(x) + s.Overload.Cost(x)
}

// Marginal implements CostFunction.
func (s SectionCost) Marginal(x float64) float64 {
	return s.Charging.Marginal(x) + s.Overload.Marginal(x)
}
