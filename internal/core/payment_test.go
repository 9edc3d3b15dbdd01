package core

import (
	"math"
	"testing"

	"olevgrid/internal/stats"
)

func testCost(t *testing.T) CostFunction {
	t.Helper()
	v, err := NewQuadraticCharging(0.02, 0.875, 50)
	if err != nil {
		t.Fatal(err)
	}
	return SectionCost{Charging: v, Overload: OverloadPenalty{Kappa: 1, Capacity: 45}}
}

// quote returns Ψ_n re-quoted against others under drawCap.
func quote(cost CostFunction, others []float64, drawCap float64) *PaymentFunction {
	psi := new(PaymentFunction)
	psi.Reset(cost, others, drawCap)
	return psi
}

// schedule returns the water-filled allocation Ψ_n quotes for p.
func schedule(psi *PaymentFunction, p float64) []float64 {
	alloc := make([]float64, len(psi.others))
	psi.Fill(alloc, p)
	return alloc
}

func TestPaymentUnbiased(t *testing.T) {
	// Eq. (9): ξ_n(p_−n, 0) = 0 — no power, no payment.
	z := testCost(t)
	costs := []CostFunction{z, z, z}
	others := []float64{10, 20, 30}
	if got := Payment(costs, others, []float64{0, 0, 0}); got != 0 {
		t.Errorf("zero allocation pays %v, want 0", got)
	}
}

func TestPaymentEqualsCostDifference(t *testing.T) {
	z := testCost(t)
	costs := []CostFunction{z, z}
	others := []float64{10, 25}
	alloc := []float64{5, 3}
	want := (z.Cost(15) - z.Cost(10)) + (z.Cost(28) - z.Cost(25))
	if got := Payment(costs, others, alloc); math.Abs(got-want) > 1e-12 {
		t.Errorf("Payment = %v, want %v", got, want)
	}
}

func TestPaymentPositiveForPositiveAllocation(t *testing.T) {
	z := testCost(t)
	costs := []CostFunction{z}
	if got := Payment(costs, []float64{0}, []float64{1}); got <= 0 {
		t.Errorf("Payment = %v, want positive", got)
	}
}

func TestPaymentPanicsOnMismatch(t *testing.T) {
	z := testCost(t)
	defer func() {
		if recover() == nil {
			t.Error("length mismatch did not panic")
		}
	}()
	Payment([]CostFunction{z}, []float64{1, 2}, []float64{1})
}

func TestPaymentFunctionConsistentWithPayment(t *testing.T) {
	// Ψ_n(p) must equal ξ_n evaluated at the water-filled schedule.
	z := testCost(t)
	others := []float64{5, 0, 12, 3}
	psi := quote(z, others, 0)
	costs := make([]CostFunction, len(others))
	for i := range costs {
		costs[i] = z
	}
	for _, p := range []float64{0, 1, 7.5, 40, 120} {
		alloc := schedule(psi, p)
		want := Payment(costs, others, alloc)
		if got := psi.At(p); math.Abs(got-want) > 1e-9 {
			t.Errorf("Psi(%v) = %v, want %v", p, got, want)
		}
	}
}

func TestPaymentFunctionZeroAtZero(t *testing.T) {
	psi := quote(testCost(t), []float64{1, 2}, 0)
	if got := psi.At(0); got != 0 {
		t.Errorf("Psi(0) = %v", got)
	}
	if got := psi.At(-5); got != 0 {
		t.Errorf("Psi(-5) = %v", got)
	}
}

func TestPaymentFunctionConvexIncreasing(t *testing.T) {
	psi := quote(testCost(t), []float64{2, 9, 4}, 0)
	prev, prevM := psi.At(0.5), psi.Marginal(0.5)
	for p := 1.0; p <= 60; p++ {
		v, m := psi.At(p), psi.Marginal(p)
		if v <= prev {
			t.Fatalf("Psi not increasing at %v", p)
		}
		if m < prevM-1e-9 {
			t.Fatalf("Psi' decreasing at %v: %v < %v (convexity)", p, m, prevM)
		}
		prev, prevM = v, m
	}
}

func TestPaymentFunctionEnvelopeTheorem(t *testing.T) {
	// Ψ'(p) computed via Z'(λ*) must match the numeric derivative of
	// Ψ — the envelope theorem in action.
	psi := quote(testCost(t), []float64{3, 7, 11, 2}, 0)
	for _, p := range []float64{2, 9, 18, 35} {
		const h = 1e-5
		numeric := (psi.At(p+h) - psi.At(p-h)) / (2 * h)
		if got := psi.Marginal(p); math.Abs(got-numeric) > 1e-4*(1+numeric) {
			t.Errorf("Marginal(%v) = %v, numeric %v", p, got, numeric)
		}
	}
}

func TestPaymentFunctionSnapshotsOthers(t *testing.T) {
	others := []float64{1, 2}
	psi := quote(testCost(t), others, 0)
	before := psi.At(5)
	others[0] = 100 // mutate the caller's slice
	if after := psi.At(5); after != before {
		t.Error("payment function did not copy the background load")
	}
}

func TestPaymentFunctionScheduleSumsToRequest(t *testing.T) {
	r := stats.NewRand(5)
	for trial := 0; trial < 100; trial++ {
		n := 1 + r.Intn(20)
		others := make([]float64, n)
		for i := range others {
			others[i] = r.Float64() * 30
		}
		psi := quote(testCost(t), others, 0)
		p := r.Float64() * 100
		alloc := schedule(psi, p)
		var sum float64
		for _, a := range alloc {
			sum += a
		}
		if math.Abs(sum-p) > 1e-6*(1+p) {
			t.Fatalf("schedule sums to %v, want %v", sum, p)
		}
	}
}

func TestPaymentFunctionResetRequotes(t *testing.T) {
	// A reused Ψ must answer exactly like a fresh one after every
	// Reset, whether the section count shrinks, grows or the cap moves.
	z := testCost(t)
	r := stats.NewRand(9)
	reused := new(PaymentFunction)
	u := LogSatisfaction{Weight: 1.3}
	for trial := 0; trial < 200; trial++ {
		others := make([]float64, 1+r.Intn(25))
		for i := range others {
			others[i] = r.Float64() * 40
		}
		drawCap := 0.0
		if trial%2 == 1 {
			drawCap = 1 + r.Float64()*10
		}
		reused.Reset(z, others, drawCap)
		fresh := quote(z, others, drawCap)
		p := r.Float64() * 80
		if a, b := reused.BestResponse(u, 120), fresh.BestResponse(u, 120); a != b {
			t.Fatalf("trial %d: reused best response %v != fresh %v", trial, a, b)
		}
		if a, b := reused.At(p), fresh.At(p); a != b {
			t.Fatalf("trial %d: reused Psi(%v) = %v != fresh %v", trial, p, a, b)
		}
		got, want := schedule(reused, p), schedule(fresh, p)
		for c := range want {
			if got[c] != want[c] {
				t.Fatalf("trial %d: reused fill %v != fresh %v", trial, got, want)
			}
		}
	}
}

func TestPaymentFunctionReusedZeroAllocs(t *testing.T) {
	z := testCost(t)
	others := []float64{12, 3, 30, 7, 0, 18, 25, 9}
	dst := make([]float64, len(others))
	psi := quote(z, others, 0)
	var u Satisfaction = LogSatisfaction{Weight: 2} // boxed once, as Player holds it
	for _, drawCap := range []float64{0, 4} {
		allocs := testing.AllocsPerRun(100, func() {
			psi.Reset(z, others, drawCap)
			psi.Fill(dst, psi.BestResponse(u, 60))
		})
		if allocs != 0 {
			t.Fatalf("drawCap %v: reused Reset+BestResponse+Fill allocates %v times, want 0", drawCap, allocs)
		}
	}
}
