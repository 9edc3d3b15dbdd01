package core

import (
	"fmt"
	"math"
	"testing"

	"olevgrid/internal/stats"
)

func TestPerDrawWaterFillUncappedFallback(t *testing.T) {
	others := []float64{0, 5, 20}
	a1, l1 := PerDrawWaterFill(others, 0, 10)
	a2, l2 := WaterFill(others, 10)
	for i := range a1 {
		if a1[i] != a2[i] {
			t.Errorf("alloc[%d] = %v, want %v", i, a1[i], a2[i])
		}
	}
	if l1 != l2 {
		t.Errorf("level %v, want %v", l1, l2)
	}
}

func TestPerDrawWaterFillCapsIndividualDraws(t *testing.T) {
	// Deep valley at section 0: uncapped fill would pour 7.5 there,
	// but a draw cap of 4 spills the excess to the next section.
	others := []float64{0, 5, 20}
	alloc, _ := PerDrawWaterFill(others, 4, 10)
	var sum float64
	for i, a := range alloc {
		if a > 4+1e-9 {
			t.Errorf("alloc[%d] = %v exceeds draw cap 4", i, a)
		}
		sum += a
	}
	if math.Abs(sum-10) > 1e-9 {
		t.Errorf("sum = %v, want 10", sum)
	}
	if alloc[0] < 4-1e-9 {
		t.Errorf("valley section should be at the cap, got %v", alloc[0])
	}
	if alloc[1] <= 2.5 {
		t.Errorf("overflow should spill to section 1: %v", alloc[1])
	}
}

func TestPerDrawWaterFillSaturation(t *testing.T) {
	others := []float64{1, 2}
	alloc, _ := PerDrawWaterFill(others, 3, 100)
	if alloc[0] != 3 || alloc[1] != 3 {
		t.Errorf("alloc = %v, want full caps", alloc)
	}
}

func TestPerDrawWaterFillInvariants(t *testing.T) {
	r := stats.NewRand(3)
	for trial := 0; trial < 300; trial++ {
		c := 1 + r.Intn(15)
		others := make([]float64, c)
		for i := range others {
			others[i] = r.Float64() * 40
		}
		drawCap := 0.5 + r.Float64()*20
		total := r.Float64() * 150
		alloc, level := PerDrawWaterFill(others, drawCap, total)

		want := math.Min(total, float64(c)*drawCap)
		var sum float64
		for i, a := range alloc {
			if a < -1e-12 || a > drawCap+1e-9 {
				t.Fatalf("alloc[%d] = %v outside [0, %v]", i, a, drawCap)
			}
			// Sections strictly below the cap and active sit at the level.
			if a > 1e-9 && a < drawCap-1e-9 {
				if got := others[i] + a; math.Abs(got-level) > 1e-6*(1+level) {
					t.Fatalf("uncapped active section %d at %v, level %v", i, got, level)
				}
			}
			sum += a
		}
		if math.Abs(sum-want) > 1e-6*(1+want) {
			t.Fatalf("allocated %v, want %v", sum, want)
		}
	}
}

func TestPaymentFunctionWithDrawCap(t *testing.T) {
	z := testCost(t)
	base := quote(z, []float64{2, 9, 4}, 0)
	capped := quote(z, []float64{2, 9, 4}, 3)

	// The draw cap bounds what the quote can place: C·drawCap = 9
	// capped, unbounded otherwise.
	greedy := LogSatisfaction{Weight: 1e6}
	if got := base.BestResponse(greedy, 500); got != 500 {
		t.Errorf("uncapped insatiable request = %v, want pmax 500", got)
	}
	if got := capped.BestResponse(greedy, 500); got != 9 {
		t.Errorf("capped insatiable request = %v, want allocatable 9", got)
	}
	for _, a := range schedule(capped, 8) {
		if a > 3+1e-9 {
			t.Errorf("capped schedule draws %v", a)
		}
	}
	// The capped schedule costs at least as much: it is a constrained
	// version of the same minimization.
	if capped.At(8) < base.At(8)-1e-9 {
		t.Errorf("capped payment %v below unconstrained %v", capped.At(8), base.At(8))
	}
	// Envelope marginal still matches numerics under the cap.
	for _, p := range []float64{1, 4, 7} {
		const h = 1e-5
		numeric := (capped.At(p+h) - capped.At(p-h)) / (2 * h)
		if got := capped.Marginal(p); math.Abs(got-numeric) > 1e-3*(1+numeric) {
			t.Errorf("Marginal(%v) = %v, numeric %v", p, got, numeric)
		}
	}
}

func TestBestResponseRespectsDrawCap(t *testing.T) {
	z := testCost(t)
	psi := quote(z, []float64{0, 0}, 5)
	// Insatiable demand: the request must stop at C·drawCap = 10.
	got := psi.BestResponse(LogSatisfaction{Weight: 1000}, 500)
	if math.Abs(got-10) > 1e-9 {
		t.Errorf("BestResponse = %v, want allocatable ceiling 10", got)
	}
	// At the ceiling every section saturates, whatever the background.
	psi.Reset(z, []float64{0, 7}, 5)
	for c, a := range schedule(psi, psi.BestResponse(LogSatisfaction{Weight: 1000}, 500)) {
		if a != 5 {
			t.Errorf("saturated section %d draws %v, want the cap 5", c, a)
		}
	}
}

func TestGameWithHeterogeneousDrawCaps(t *testing.T) {
	v, err := NewQuadraticCharging(0.02, 0.875, 53.55)
	if err != nil {
		t.Fatal(err)
	}
	players := make([]Player, 6)
	for i := range players {
		players[i] = Player{
			ID:           fmt.Sprintf("p%d", i),
			MaxPowerKW:   80,
			Satisfaction: LogSatisfaction{Weight: 1},
			// Fast vehicles couple weakly: small per-section draws.
			MaxSectionDrawKW: 2 + float64(i),
		}
	}
	g, err := NewGame(Config{
		Players: players, NumSections: 5, LineCapacityKW: 53.55, Eta: 0.9,
		Cost: SectionCost{Charging: v, Overload: OverloadPenalty{Kappa: 10, Capacity: 48.2}},
	})
	if err != nil {
		t.Fatal(err)
	}
	res := g.Run(RunOptions{MaxUpdates: 20000, Tolerance: 1e-7})
	if !res.Converged {
		t.Fatal("heterogeneous-cap game did not converge")
	}
	s := g.Schedule()
	for n := 0; n < g.NumPlayers(); n++ {
		limit := g.Player(n).MaxSectionDrawKW
		for c := 0; c < g.NumSections(); c++ {
			if s.At(n, c) > limit+1e-9 {
				t.Errorf("player %d draws %v from section %d, cap %v", n, s.At(n, c), c, limit)
			}
		}
		if total := s.OLEVTotal(n); total > float64(g.NumSections())*limit+1e-9 {
			t.Errorf("player %d total %v exceeds allocatable", n, total)
		}
	}
	// Welfare stays monotone (the potential argument holds with the
	// extra box constraints).
	series := stats.Series{Name: "w"}
	for i, w := range res.Welfare {
		series.Add(float64(i), w)
	}
	if !series.IsNonDecreasing(1e-7) {
		t.Error("welfare not monotone under draw caps")
	}
}
