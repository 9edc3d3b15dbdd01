package core

import (
	"fmt"
	"math"
	"testing"

	"olevgrid/internal/stats"
)

func testConfig(t *testing.T, n, c int) Config {
	t.Helper()
	capacity := 0.9 * 50.0
	v, err := NewQuadraticCharging(0.02, 0.875, capacity)
	if err != nil {
		t.Fatal(err)
	}
	players := make([]Player, n)
	for i := range players {
		players[i] = Player{
			ID:           fmt.Sprintf("olev-%d", i),
			MaxPowerKW:   60 + float64(i%5)*8,
			Satisfaction: LogSatisfaction{Weight: 1 + 0.1*float64(i%3)},
		}
	}
	return Config{
		Players:        players,
		NumSections:    c,
		LineCapacityKW: 50,
		Eta:            0.9,
		Cost: SectionCost{
			Charging: v,
			Overload: OverloadPenalty{Kappa: 1, Capacity: capacity},
		},
	}
}

func TestConfigValidate(t *testing.T) {
	valid := testConfig(t, 3, 4)
	if err := valid.Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	tests := []struct {
		name   string
		mutate func(*Config)
	}{
		{name: "no players", mutate: func(c *Config) { c.Players = nil }},
		{name: "empty player ID", mutate: func(c *Config) { c.Players[0].ID = "" }},
		{name: "duplicate player ID", mutate: func(c *Config) { c.Players[1].ID = c.Players[0].ID }},
		{name: "negative max power", mutate: func(c *Config) { c.Players[0].MaxPowerKW = -1 }},
		{name: "nil satisfaction", mutate: func(c *Config) { c.Players[0].Satisfaction = nil }},
		{name: "zero sections", mutate: func(c *Config) { c.NumSections = 0 }},
		{name: "zero line capacity", mutate: func(c *Config) { c.LineCapacityKW = 0 }},
		{name: "eta zero", mutate: func(c *Config) { c.Eta = 0 }},
		{name: "eta above one", mutate: func(c *Config) { c.Eta = 1.5 }},
		{name: "nil cost", mutate: func(c *Config) { c.Cost = nil }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			cfg := testConfig(t, 3, 4)
			tt.mutate(&cfg)
			if _, err := NewGame(cfg); err == nil {
				t.Error("invalid config accepted")
			}
		})
	}
}

func TestGameInitialState(t *testing.T) {
	g, err := NewGame(testConfig(t, 5, 8))
	if err != nil {
		t.Fatal(err)
	}
	if g.NumPlayers() != 5 || g.NumSections() != 8 {
		t.Errorf("dims = %d, %d", g.NumPlayers(), g.NumSections())
	}
	if got := g.TotalPowerKW(); got != 0 {
		t.Errorf("initial power = %v", got)
	}
	if got := g.CongestionDegree(); got != 0 {
		t.Errorf("initial congestion = %v", got)
	}
	if got := g.Welfare(); got != 0 {
		t.Errorf("initial welfare = %v", got)
	}
	if got := g.SectionCapacityKW(); math.Abs(got-45) > 1e-12 {
		t.Errorf("section capacity = %v, want 45", got)
	}
}

func TestUpdateOneImprovesOwnUtility(t *testing.T) {
	g, err := NewGame(testConfig(t, 4, 6))
	if err != nil {
		t.Fatal(err)
	}
	// Warm up the others.
	for i := 1; i < 4; i++ {
		g.UpdateOne(i)
	}
	before := g.UtilityOf(0)
	g.UpdateOne(0)
	after := g.UtilityOf(0)
	if after < before-1e-9 {
		t.Errorf("utility fell after own best response: %v -> %v", before, after)
	}
}

// TestPotentialGameProperty is Theorem IV.1's engine: a unilateral
// best-response move changes social welfare by exactly the mover's
// utility change, so welfare never decreases along the dynamics.
func TestPotentialGameProperty(t *testing.T) {
	g, err := NewGame(testConfig(t, 6, 5))
	if err != nil {
		t.Fatal(err)
	}
	r := stats.NewRand(17)
	for step := 0; step < 120; step++ {
		n := r.Intn(g.NumPlayers())
		welfareBefore := g.Welfare()
		utilityBefore := g.UtilityOf(n)
		g.UpdateOne(n)
		welfareAfter := g.Welfare()
		utilityAfter := g.UtilityOf(n)

		dW := welfareAfter - welfareBefore
		dF := utilityAfter - utilityBefore
		if math.Abs(dW-dF) > 1e-6*(1+math.Abs(dW)) {
			t.Fatalf("step %d: ΔW = %v but ΔF_n = %v — potential property violated", step, dW, dF)
		}
		if dW < -1e-7 {
			t.Fatalf("step %d: welfare decreased by %v along best response", step, -dW)
		}
	}
}

func TestWelfareBreakdownConsistent(t *testing.T) {
	g, err := NewGame(testConfig(t, 5, 6))
	if err != nil {
		t.Fatal(err)
	}
	g.Run(RunOptions{MaxUpdates: 500})
	parts := g.WelfareBreakdown()
	if parts.Satisfaction <= 0 || parts.SectionCost <= 0 {
		t.Errorf("degenerate breakdown %+v", parts)
	}
	if math.Abs(parts.Welfare()-g.Welfare()) > 1e-12 {
		t.Errorf("breakdown welfare %v != Welfare() %v", parts.Welfare(), g.Welfare())
	}
}

func TestRunConvergesAndWelfareMonotone(t *testing.T) {
	g, err := NewGame(testConfig(t, 8, 10))
	if err != nil {
		t.Fatal(err)
	}
	res := g.Run(RunOptions{MaxUpdates: 5000, Tolerance: 1e-7})
	if !res.Converged {
		t.Fatalf("did not converge in %d updates", res.Updates)
	}
	w := stats.Series{Name: "welfare"}
	for i, v := range res.Welfare {
		w.Add(float64(i), v)
	}
	if !w.IsNonDecreasing(1e-7) {
		t.Error("welfare trajectory decreased")
	}
	if len(res.Congestion) != res.Updates {
		t.Errorf("history lengths: %d congestion vs %d updates", len(res.Congestion), res.Updates)
	}
}

// TestEquilibriumUniqueAcrossOrders: Theorem IV.1 claims convergence
// to the *unique* socially optimal schedule, so round-robin and
// different random orders must land on the same totals.
func TestEquilibriumUniqueAcrossOrders(t *testing.T) {
	run := func(order UpdateOrder, seed int64) []float64 {
		g, err := NewGame(testConfig(t, 7, 9))
		if err != nil {
			t.Fatal(err)
		}
		res := g.Run(RunOptions{MaxUpdates: 20000, Tolerance: 1e-9, Order: order, Seed: seed})
		if !res.Converged {
			t.Fatalf("order %v seed %d did not converge", order, seed)
		}
		totals := make([]float64, g.NumPlayers())
		s := g.Schedule()
		for n := range totals {
			totals[n] = s.OLEVTotal(n)
		}
		return totals
	}
	ref := run(OrderRoundRobin, 0)
	for _, seed := range []int64{1, 2, 3} {
		got := run(OrderRandom, seed)
		if d := stats.MaxAbsDiff(ref, got); d > 1e-4 {
			t.Errorf("random order (seed %d) equilibrium differs from round-robin by %v", seed, d)
		}
	}
}

func TestEquilibriumIsNashNoProfitableDeviation(t *testing.T) {
	g, err := NewGame(testConfig(t, 5, 6))
	if err != nil {
		t.Fatal(err)
	}
	if res := g.Run(RunOptions{MaxUpdates: 10000, Tolerance: 1e-9}); !res.Converged {
		t.Fatal("did not converge")
	}
	r := stats.NewRand(23)
	for n := 0; n < g.NumPlayers(); n++ {
		current := g.UtilityOf(n)
		psi := quote(g.cfg.Cost, g.schedule.OthersSectionTotals(n), g.Player(n).MaxSectionDrawKW)
		u := g.Player(n).Satisfaction
		for i := 0; i < 200; i++ {
			q := r.Float64() * g.Player(n).MaxPowerKW
			if dev := u.Value(q) - psi.At(q); dev > current+1e-5 {
				t.Fatalf("player %d profits by deviating to %v: %v > %v", n, q, dev, current)
			}
		}
	}
}

func TestCongestionConvergesTowardEta(t *testing.T) {
	// With demand well above capacity, the overload penalty pins the
	// equilibrium congestion degree near the safety factor η = 0.9.
	cfg := testConfig(t, 30, 10) // demand ~2000 kW vs capacity 500 kW
	for i := range cfg.Players {
		cfg.Players[i].MaxPowerKW = 90
		cfg.Players[i].Satisfaction = LogSatisfaction{Weight: 2}
	}
	g, err := NewGame(cfg)
	if err != nil {
		t.Fatal(err)
	}
	g.Run(RunOptions{MaxUpdates: 20000, Tolerance: 1e-7})
	got := g.CongestionDegree()
	if got < 0.85 || got > 1.0 {
		t.Errorf("equilibrium congestion = %v, want near η = 0.9", got)
	}
}

func TestRunDefaultsAndHooks(t *testing.T) {
	g, err := NewGame(testConfig(t, 3, 3))
	if err != nil {
		t.Fatal(err)
	}
	var hookCalls int
	res := g.Run(RunOptions{OnUpdate: func(step int, g *Game) {
		hookCalls++
		if step != hookCalls {
			t.Errorf("hook step %d on call %d", step, hookCalls)
		}
	}})
	if !res.Converged {
		t.Error("defaults should converge a tiny game")
	}
	if hookCalls != res.Updates {
		t.Errorf("hook called %d times for %d updates", hookCalls, res.Updates)
	}
}

func TestUpdateOneOutOfRange(t *testing.T) {
	g, err := NewGame(testConfig(t, 2, 2))
	if err != nil {
		t.Fatal(err)
	}
	if got := g.UpdateOne(-1); got != 0 {
		t.Errorf("UpdateOne(-1) = %v", got)
	}
	if got := g.UpdateOne(99); got != 0 {
		t.Errorf("UpdateOne(99) = %v", got)
	}
}

func TestScheduleAccessorIsACopy(t *testing.T) {
	g, err := NewGame(testConfig(t, 2, 2))
	if err != nil {
		t.Fatal(err)
	}
	g.UpdateOne(0)
	s := g.Schedule()
	s.Set(0, 0, 9999)
	if g.Schedule().At(0, 0) == 9999 {
		t.Error("Schedule() leaked internal state")
	}
}

func TestGamePlayersSliceCopied(t *testing.T) {
	cfg := testConfig(t, 2, 2)
	g, err := NewGame(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Players[0].MaxPowerKW = 0 // mutate caller's slice
	if g.Player(0).MaxPowerKW == 0 {
		t.Error("game shares the caller's player slice")
	}
}
