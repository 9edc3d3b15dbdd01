package olevgrid_test

import (
	"io"
	"testing"
	"time"

	"olevgrid"
	"olevgrid/internal/core"
	"olevgrid/internal/experiments"
	"olevgrid/internal/grid"
	"olevgrid/internal/pricing"
	"olevgrid/internal/stats"
	"olevgrid/internal/traffic"
	"olevgrid/internal/units"
)

// --- Figure benches: each regenerates one of the paper's figures. ---

// BenchmarkFig2GridDay regenerates the four Fig. 2 grid series.
func BenchmarkFig2GridDay(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig2(grid.DefaultConfig())
		if err != nil {
			b.Fatal(err)
		}
		if res.PeakLoadMW <= res.MinLoadMW {
			b.Fatal("degenerate day")
		}
	}
}

// BenchmarkFig3Traffic regenerates the Fig. 3(b)/3(c) motivation study
// over a three-hour evening window (the full-day variant runs in the
// wpt-experiments binary).
func BenchmarkFig3Traffic(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig3(experiments.Fig3Config{
			Seed:  1,
			Start: 16 * time.Hour,
			End:   19 * time.Hour,
		})
		if err != nil {
			b.Fatal(err)
		}
		if res.AtLight.TotalEnergy <= res.MidBlock.TotalEnergy {
			b.Fatal("shape violated: mid-block beat at-light")
		}
	}
}

func benchPayment(b *testing.B, vel units.Speed) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		points, err := experiments.PaymentVsCongestion(vel, experiments.GameDefaults{})
		if err != nil {
			b.Fatal(err)
		}
		if points[len(points)-1].NonlinearPerMWh <= points[0].NonlinearPerMWh {
			b.Fatal("shape violated: payment not rising")
		}
	}
}

// BenchmarkFig5aPaymentVsCongestion regenerates Fig. 5(a) at 60 mph.
func BenchmarkFig5aPaymentVsCongestion(b *testing.B) { benchPayment(b, units.MPH(60)) }

// BenchmarkFig6aPaymentVsCongestion regenerates Fig. 6(a) at 80 mph.
func BenchmarkFig6aPaymentVsCongestion(b *testing.B) { benchPayment(b, units.MPH(80)) }

func benchWelfare(b *testing.B, vel units.Speed) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		series, err := experiments.WelfareVsSections(vel, []int{30, 40, 50}, experiments.GameDefaults{})
		if err != nil {
			b.Fatal(err)
		}
		if len(series) != 3 {
			b.Fatal("missing fleet series")
		}
	}
}

// BenchmarkFig5bWelfare regenerates Fig. 5(b) at 60 mph.
func BenchmarkFig5bWelfare(b *testing.B) { benchWelfare(b, units.MPH(60)) }

// BenchmarkFig6bWelfare regenerates Fig. 6(b) at 80 mph.
func BenchmarkFig6bWelfare(b *testing.B) { benchWelfare(b, units.MPH(80)) }

func benchLoadBalance(b *testing.B, vel units.Speed) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		res, err := experiments.LoadBalance(vel, experiments.GameDefaults{})
		if err != nil {
			b.Fatal(err)
		}
		if res.NonlinearCV >= res.LinearCV {
			b.Fatal("shape violated: nonlinear not better balanced")
		}
	}
}

// BenchmarkFig5cLoadBalance regenerates Fig. 5(c) at 60 mph.
func BenchmarkFig5cLoadBalance(b *testing.B) { benchLoadBalance(b, units.MPH(60)) }

// BenchmarkFig6cLoadBalance regenerates Fig. 6(c) at 80 mph.
func BenchmarkFig6cLoadBalance(b *testing.B) { benchLoadBalance(b, units.MPH(80)) }

func benchConvergence(b *testing.B, vel units.Speed) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		res, err := experiments.Convergence(vel, []int{30, 40, 50}, 5, 120, experiments.GameDefaults{})
		if err != nil {
			b.Fatal(err)
		}
		for _, n := range []int{30, 40, 50} {
			traj := res.Trajectories[n]
			final := traj.Points[traj.Len()-1].Y
			if final < 0.8 {
				b.Fatalf("N=%d did not approach the 0.9 target: %v", n, final)
			}
		}
	}
}

// BenchmarkFig5dConvergence regenerates Fig. 5(d) at 60 mph.
func BenchmarkFig5dConvergence(b *testing.B) { benchConvergence(b, units.MPH(60)) }

// BenchmarkFig6dConvergence regenerates Fig. 6(d) at 80 mph.
func BenchmarkFig6dConvergence(b *testing.B) { benchConvergence(b, units.MPH(80)) }

// --- Kernel benches: the primitives the game executes per update. ---

func buildWaterFillInput(c int) []float64 {
	r := stats.NewRand(9)
	others := make([]float64, c)
	for i := range others {
		others[i] = r.Float64() * 50
	}
	return others
}

// BenchmarkWaterFillExact measures the O(C log C) breakpoint solver.
func BenchmarkWaterFillExact(b *testing.B) {
	others := buildWaterFillInput(100)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.WaterFill(others, 40)
	}
}

// BenchmarkWaterFillBisect measures the paper's bisection formulation
// — the ablation partner of the exact solver.
func BenchmarkWaterFillBisect(b *testing.B) {
	others := buildWaterFillInput(100)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.WaterFillBisect(others, 40, 1e-9)
	}
}

// BenchmarkBestResponse measures one OLEV's quote and utility
// maximization on a reused Ψ kernel — Reset against the background,
// Lemma IV.3's best response, Lemma IV.1's fill — the work every
// solver does per update. It allocates nothing.
func BenchmarkBestResponse(b *testing.B) {
	q, err := core.NewQuadraticCharging(0.02, 0.875, 53.55)
	if err != nil {
		b.Fatal(err)
	}
	var v core.CostFunction = q // boxed once, as a Game holds it
	others := buildWaterFillInput(100)
	row := make([]float64, len(others))
	var sat core.Satisfaction = core.LogSatisfaction{Weight: 1}
	var psi core.PaymentFunction
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		psi.Reset(v, others, 0)
		psi.Fill(row, psi.BestResponse(sat, 95.76))
	}
}

// BenchmarkGameUpdate measures one full asynchronous update in a
// 50×100 game: snapshot P_−n, re-quote the Ψ kernel, best-respond,
// fill and install the row.
func BenchmarkGameUpdate(b *testing.B) {
	_, players, err := pricing.BuildFleet(pricing.FleetConfig{
		N: 50, Velocity: units.MPH(60), SatisfactionWeight: 1, Seed: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	cost, err := pricing.Nonlinear{}.CostFunction(20, 53.55, 0.9)
	if err != nil {
		b.Fatal(err)
	}
	g, err := core.NewGame(core.Config{
		Players: players, NumSections: 100, LineCapacityKW: 53.55, Eta: 0.9, Cost: cost,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.UpdateOne(i % 50)
	}
}

// BenchmarkKraussStep measures the car-following kernel.
func BenchmarkKraussStep(b *testing.B) {
	p := traffic.DefaultDriverParams()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.NextSpeed(12, 10, 25, 13.9, 0.5, 0.3)
	}
}

// --- Ablation benches: design choices DESIGN.md calls out. ---

// BenchmarkAblationEtaSweep measures equilibrium welfare across the
// safety factor η, quantifying the capacity/welfare trade-off.
func BenchmarkAblationEtaSweep(b *testing.B) {
	_, players, err := pricing.BuildFleet(pricing.FleetConfig{
		N: 30, Velocity: units.MPH(60), SatisfactionWeight: 1, Seed: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	lineCap := pricing.LineCapacityKW(units.Meters(15), units.MPH(60))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var prev float64
		for _, eta := range []float64{0.3, 0.6, 0.9} {
			out, err := pricing.Nonlinear{}.Run(pricing.Scenario{
				Players: players, NumSections: 15, LineCapacityKW: lineCap,
				Eta: eta, BetaPerMWh: 20, Seed: 1, MaxUpdates: 3000,
			})
			if err != nil {
				b.Fatal(err)
			}
			if out.Welfare < prev {
				b.Fatalf("welfare fell as eta rose: %v < %v", out.Welfare, prev)
			}
			prev = out.Welfare
		}
	}
}

// BenchmarkAblationUpdateOrder compares round-robin vs random player
// ordering — Theorem IV.1 says both land on the same optimum.
func BenchmarkAblationUpdateOrder(b *testing.B) {
	for _, order := range []struct {
		name string
		ord  core.UpdateOrder
	}{
		{name: "round-robin", ord: core.OrderRoundRobin},
		{name: "random", ord: core.OrderRandom},
	} {
		b.Run(order.name, func(b *testing.B) {
			_, players, err := pricing.BuildFleet(pricing.FleetConfig{
				N: 20, Velocity: units.MPH(60), SatisfactionWeight: 1, Seed: 1,
			})
			if err != nil {
				b.Fatal(err)
			}
			for i := 0; i < b.N; i++ {
				out, err := pricing.Nonlinear{Order: order.ord}.Run(pricing.Scenario{
					Players: players, NumSections: 25,
					LineCapacityKW: pricing.LineCapacityKW(units.Meters(15), units.MPH(60)),
					Eta:            1.0, BetaPerMWh: 20, Seed: int64(i),
				})
				if err != nil {
					b.Fatal(err)
				}
				if !out.Converged {
					b.Fatal("did not converge")
				}
			}
		})
	}
}

// BenchmarkRunAllQuick exercises the whole harness end to end, as the
// facade exposes it.
func BenchmarkRunAllQuick(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if err := olevgrid.RunAllExperiments(io.Discard, true); err != nil {
			b.Fatal(err)
		}
	}
}
