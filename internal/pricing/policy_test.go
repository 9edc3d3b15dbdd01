package pricing

import (
	"fmt"
	"math"
	"testing"

	"olevgrid/internal/core"
	"olevgrid/internal/units"
)

func testScenario(t *testing.T, n, c int, eta float64) Scenario {
	t.Helper()
	_, players, err := BuildFleet(FleetConfig{N: n, Velocity: units.MPH(60), Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	return Scenario{
		Players:        players,
		NumSections:    c,
		LineCapacityKW: LineCapacityKW(units.Meters(15), units.MPH(60)),
		Eta:            eta,
		BetaPerMWh:     20,
		Seed:           1,
	}
}

func TestScenarioValidate(t *testing.T) {
	valid := testScenario(t, 5, 10, 0.9)
	if err := valid.Validate(); err != nil {
		t.Fatalf("valid scenario rejected: %v", err)
	}
	tests := []struct {
		name   string
		mutate func(*Scenario)
	}{
		{name: "no players", mutate: func(s *Scenario) { s.Players = nil }},
		{name: "no sections", mutate: func(s *Scenario) { s.NumSections = 0 }},
		{name: "zero capacity", mutate: func(s *Scenario) { s.LineCapacityKW = 0 }},
		{name: "bad eta", mutate: func(s *Scenario) { s.Eta = 1.2 }},
		{name: "zero beta", mutate: func(s *Scenario) { s.BetaPerMWh = 0 }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			s := testScenario(t, 5, 10, 0.9)
			tt.mutate(&s)
			if err := s.Validate(); err == nil {
				t.Error("invalid scenario accepted")
			}
			// Both policies must surface the validation error.
			if _, err := (Nonlinear{}).Run(s); err == nil {
				t.Error("nonlinear ran an invalid scenario")
			}
			if _, err := (Linear{}).Run(s); err == nil {
				t.Error("linear ran an invalid scenario")
			}
		})
	}
}

func TestLineCapacityEquation1Bridge(t *testing.T) {
	// 0.399 kV · 240 A · 15 m / 26.8224 m/s ≈ 53.55 kW.
	got := LineCapacityKW(units.Meters(15), units.MPH(60))
	want := 0.399 * 240 * 15 / 26.8224
	if math.Abs(got-want) > 1e-9 {
		t.Errorf("LineCapacityKW = %v, want %v", got, want)
	}
	// Velocity inverse: 80 mph capacity is 60/80 of the 60 mph one.
	c80 := LineCapacityKW(units.Meters(15), units.MPH(80))
	if math.Abs(c80-got*60/80) > 1e-9 {
		t.Errorf("80mph capacity = %v, want %v", c80, got*60/80)
	}
	if LineCapacityKW(units.Meters(15), 0) != 0 {
		t.Error("zero velocity should yield zero capacity")
	}
}

func TestBuildFleet(t *testing.T) {
	vehicles, players, err := BuildFleet(FleetConfig{N: 20, Velocity: units.MPH(60), Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if len(vehicles) != 20 || len(players) != 20 {
		t.Fatalf("fleet sizes %d/%d", len(vehicles), len(players))
	}
	ids := make(map[string]struct{})
	for i, p := range players {
		if _, dup := ids[p.ID]; dup {
			t.Errorf("duplicate ID %q", p.ID)
		}
		ids[p.ID] = struct{}{}
		if p.MaxPowerKW <= 0 || p.MaxPowerKW > 95.76+1e-9 {
			t.Errorf("player %d ceiling %v outside (0, P_max]", i, p.MaxPowerKW)
		}
		if math.Abs(p.MaxPowerKW-vehicles[i].PowerHeadroom().KW()) > 1e-12 {
			t.Errorf("player %d ceiling does not match vehicle headroom", i)
		}
	}
	// Determinism.
	_, again, err := BuildFleet(FleetConfig{N: 20, Velocity: units.MPH(60), Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	for i := range players {
		if players[i].MaxPowerKW != again[i].MaxPowerKW {
			t.Fatal("same seed produced a different fleet")
		}
	}
	if _, _, err := BuildFleet(FleetConfig{N: 0}); err == nil {
		t.Error("empty fleet accepted")
	}
}

func TestNonlinearRunBasics(t *testing.T) {
	// Parallelism 0 is Game.Run, 2 the round engine; both record one
	// history entry per update.
	for _, parallelism := range []int{0, 2} {
		t.Run(fmt.Sprintf("parallelism%d", parallelism), func(t *testing.T) {
			s := testScenario(t, 20, 30, 0.9)
			s.Parallelism = parallelism
			out, err := Nonlinear{}.Run(s)
			if err != nil {
				t.Fatal(err)
			}
			if out.Policy != "nonlinear" {
				t.Errorf("policy = %q", out.Policy)
			}
			if !out.Converged {
				t.Error("nonlinear dynamics did not converge")
			}
			if out.TotalPowerKW <= 0 {
				t.Error("no power scheduled")
			}
			if out.UnitPaymentPerMWh <= 0 {
				t.Error("no payment collected")
			}
			if len(out.SectionTotalsKW) != 30 {
				t.Errorf("section totals length %d", len(out.SectionTotalsKW))
			}
			if len(out.CongestionHistory) != out.Updates || len(out.WelfareHistory) != out.Updates {
				t.Errorf("history lengths %d/%d disagree with update count %d",
					len(out.CongestionHistory), len(out.WelfareHistory), out.Updates)
			}
			// Feasibility: every section within the hard cap plus the small
			// overload the soft penalty permits.
			cap := s.Eta * s.LineCapacityKW
			for c, load := range out.SectionTotalsKW {
				if load > cap*1.10 {
					t.Errorf("section %d load %v far above capacity %v", c, load, cap)
				}
			}
		})
	}
}

func TestNonlinearPaymentRisesWithCongestion(t *testing.T) {
	// The defining property of the policy (Fig. 5a): unit payment
	// strictly increases with the realized congestion degree. Each
	// congestion level is realized the way the sweep harness does it:
	// a demand level whose interior equilibrium sits at that degree.
	lineCap := LineCapacityKW(units.Meters(15), units.MPH(60))
	const n, c = 50, 20
	var prev float64
	for i, x := range []float64{0.2, 0.5, 0.9} {
		w, err := CongestionTargetWeight(Nonlinear{}, 20, lineCap, c, n, x)
		if err != nil {
			t.Fatal(err)
		}
		_, players, err := BuildFleet(FleetConfig{N: n, Velocity: units.MPH(60), SatisfactionWeight: w, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		out, err := Nonlinear{}.Run(Scenario{
			Players: players, NumSections: c, LineCapacityKW: lineCap,
			Eta: 1.0, BetaPerMWh: 20, Seed: 1,
		})
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(out.CongestionDegree-x) > 0.15*x {
			t.Errorf("realized congestion %v far from target %v", out.CongestionDegree, x)
		}
		if i > 0 && out.UnitPaymentPerMWh <= prev {
			t.Errorf("unit payment at congestion %v (%v) not above previous (%v)",
				x, out.UnitPaymentPerMWh, prev)
		}
		prev = out.UnitPaymentPerMWh
	}
}

func TestCongestionTargetWeightRealizesTarget(t *testing.T) {
	lineCap := LineCapacityKW(units.Meters(15), units.MPH(60))
	for _, tt := range []struct{ x float64 }{{0.1}, {0.4}, {0.8}} {
		w, err := CongestionTargetWeight(Nonlinear{}, 20, lineCap, 10, 25, tt.x)
		if err != nil {
			t.Fatal(err)
		}
		if w <= 0 {
			t.Fatalf("weight %v for target %v", w, tt.x)
		}
		_, players, err := BuildFleet(FleetConfig{N: 25, Velocity: units.MPH(60), SatisfactionWeight: w, Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		out, err := Nonlinear{}.Run(Scenario{
			Players: players, NumSections: 10, LineCapacityKW: lineCap,
			Eta: 1.0, BetaPerMWh: 20, Seed: 3,
		})
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(out.CongestionDegree-tt.x) > 0.1*tt.x+0.02 {
			t.Errorf("target %v realized %v", tt.x, out.CongestionDegree)
		}
	}
}

func TestCongestionTargetWeightValidation(t *testing.T) {
	lineCap := LineCapacityKW(units.Meters(15), units.MPH(60))
	if _, err := CongestionTargetWeight(Nonlinear{}, 20, lineCap, 10, 25, 0); err == nil {
		t.Error("x=0 accepted")
	}
	if _, err := CongestionTargetWeight(Nonlinear{}, 20, lineCap, 10, 25, 1.5); err == nil {
		t.Error("x>1 accepted")
	}
	if _, err := CongestionTargetWeight(Nonlinear{}, 20, lineCap, 0, 25, 0.5); err == nil {
		t.Error("zero sections accepted")
	}
	if _, err := CongestionTargetWeight(Nonlinear{}, 20, lineCap, 10, 0, 0.5); err == nil {
		t.Error("zero fleet accepted")
	}
}

func TestNonlinearWallPinsCongestionNearEta(t *testing.T) {
	// With demand well above capacity, the overload penalty holds the
	// equilibrium congestion within a few percent above η.
	_, players, err := BuildFleet(FleetConfig{N: 50, Velocity: units.MPH(60), SatisfactionWeight: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	out, err := Nonlinear{}.Run(Scenario{
		Players: players, NumSections: 12,
		LineCapacityKW: LineCapacityKW(units.Meters(15), units.MPH(60)),
		Eta:            0.9, BetaPerMWh: 20, Seed: 1, MaxUpdates: 20000,
	})
	if err != nil {
		t.Fatal(err)
	}
	if out.CongestionDegree < 0.88 || out.CongestionDegree > 0.98 {
		t.Errorf("congestion %v not pinned near η=0.9", out.CongestionDegree)
	}
}

func TestLinearRunBasics(t *testing.T) {
	s := testScenario(t, 20, 30, 0.9)
	out, err := Linear{}.Run(s)
	if err != nil {
		t.Fatal(err)
	}
	if out.Policy != "linear" {
		t.Errorf("policy = %q", out.Policy)
	}
	if !out.Converged {
		t.Error("linear allocation is one-shot; must report converged")
	}
	if out.TotalPowerKW <= 0 {
		t.Error("no power allocated")
	}
	// Flat price: unit payment equals the scaled beta exactly.
	want := s.BetaPerMWh * DefaultLinearBetaScale
	if math.Abs(out.UnitPaymentPerMWh-want) > 1e-9 {
		t.Errorf("unit payment = %v, want flat %v", out.UnitPaymentPerMWh, want)
	}
	// Conservation: the section totals carry exactly the allocated
	// demand (no cap polices the baseline — that is its failure mode).
	var sum float64
	for _, load := range out.SectionTotalsKW {
		sum += load
	}
	if math.Abs(sum-out.TotalPowerKW) > 1e-9 {
		t.Errorf("section totals %v disagree with total power %v", sum, out.TotalPowerKW)
	}
}

func TestLinearSpreadControlsLumpiness(t *testing.T) {
	s := testScenario(t, 40, 100, 0.9)
	narrow, err := Linear{SpreadSections: 1}.Run(s)
	if err != nil {
		t.Fatal(err)
	}
	wide, err := Linear{SpreadSections: 100}.Run(s)
	if err != nil {
		t.Fatal(err)
	}
	if narrow.LoadImbalance() <= wide.LoadImbalance() {
		t.Errorf("spread=1 CV %v should exceed spread=100 CV %v",
			narrow.LoadImbalance(), wide.LoadImbalance())
	}
	// Spreading across every section evenly is perfectly balanced.
	if wide.LoadImbalance() > 1e-9 {
		t.Errorf("full spread CV = %v, want 0", wide.LoadImbalance())
	}
}

func TestLinearPaymentFlatAcrossCongestion(t *testing.T) {
	var first float64
	for i, eta := range []float64{0.2, 0.5, 0.9} {
		out, err := Linear{}.Run(testScenario(t, 30, 20, eta))
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			first = out.UnitPaymentPerMWh
			continue
		}
		if math.Abs(out.UnitPaymentPerMWh-first) > 1e-9 {
			t.Errorf("linear unit payment moved with congestion: %v vs %v",
				out.UnitPaymentPerMWh, first)
		}
	}
}

func TestNonlinearBalancesLoadBetterThanLinear(t *testing.T) {
	// The Fig. 5(c)/6(c) claim, reduced to its scalar: the nonlinear
	// policy's per-section coefficient of variation is far below the
	// linear policy's. Capacity must exceed demand — when every
	// section saturates, both policies are trivially "balanced".
	s := testScenario(t, 40, 100, 0.9)
	nl, err := Nonlinear{}.Run(s)
	if err != nil {
		t.Fatal(err)
	}
	lin, err := Linear{}.Run(s)
	if err != nil {
		t.Fatal(err)
	}
	if nl.LoadImbalance() >= lin.LoadImbalance() {
		t.Errorf("nonlinear CV %v not below linear CV %v",
			nl.LoadImbalance(), lin.LoadImbalance())
	}
	if nl.LoadImbalance() > 0.25 {
		t.Errorf("nonlinear CV %v unexpectedly high — load not balanced", nl.LoadImbalance())
	}
}

func TestFlatPriceDemandClosedForm(t *testing.T) {
	// For U = w·log(1+p), U'(p) = β ⇒ p = w/β − 1.
	u := core.LogSatisfaction{Weight: 1}
	got := flatPriceDemand(u, 0.02, 1000)
	if want := 49.0; math.Abs(got-want) > 1e-6 {
		t.Errorf("demand = %v, want %v", got, want)
	}
	// Corners.
	if got := flatPriceDemand(u, 2, 1000); got != 0 {
		t.Errorf("price above U'(0): demand = %v, want 0", got)
	}
	if got := flatPriceDemand(u, 1e-6, 10); got != 10 {
		t.Errorf("cheap power: demand = %v, want pmax", got)
	}
	if got := flatPriceDemand(u, 0.02, 0); got != 0 {
		t.Errorf("pmax=0: demand = %v", got)
	}
}

func TestNonlinearSeedDeterminism(t *testing.T) {
	s := testScenario(t, 15, 10, 0.8)
	a, err := Nonlinear{}.Run(s)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Nonlinear{}.Run(s)
	if err != nil {
		t.Fatal(err)
	}
	if a.Welfare != b.Welfare || a.Updates != b.Updates {
		t.Error("same scenario+seed produced different runs")
	}
}
