package core_test

import (
	"fmt"

	"olevgrid/internal/core"
)

// ExampleWaterFill shows Lemma IV.1's allocation: a request pools in
// the least-loaded sections first.
func ExampleWaterFill() {
	others := []float64{0, 5, 20} // kW already scheduled per section
	alloc, level := core.WaterFill(others, 10)
	fmt.Printf("alloc: %.1f kW at water level %.1f kW\n", alloc, level)
	// Output:
	// alloc: [7.5 2.5 0.0] kW at water level 7.5 kW
}

// ExamplePaymentFunction_BestResponse shows one OLEV's
// utility-maximizing request against a quoted payment function.
func ExamplePaymentFunction_BestResponse() {
	v, err := core.NewQuadraticCharging(0.02, 0.875, 50)
	if err != nil {
		panic(err)
	}
	var psi core.PaymentFunction
	psi.Reset(v, []float64{10, 10, 10}, 0) // P_−n per section, no draw cap
	request := psi.BestResponse(core.LogSatisfaction{Weight: 1}, 95.76)
	fmt.Printf("request %.1f kW\n", request)
	// Output:
	// request 49.7 kW
}

// ExampleGame runs the asynchronous best-response iteration to the
// socially optimal schedule.
func ExampleGame() {
	v, err := core.NewQuadraticCharging(0.02, 0.875, 53.55)
	if err != nil {
		panic(err)
	}
	players := []core.Player{
		{ID: "ev-a", MaxPowerKW: 60, Satisfaction: core.LogSatisfaction{Weight: 1}},
		{ID: "ev-b", MaxPowerKW: 60, Satisfaction: core.LogSatisfaction{Weight: 1}},
	}
	g, err := core.NewGame(core.Config{
		Players:        players,
		NumSections:    4,
		LineCapacityKW: 53.55,
		Eta:            0.9,
		Cost:           v,
	})
	if err != nil {
		panic(err)
	}
	res := g.Run(core.RunOptions{Tolerance: 1e-6})
	fmt.Printf("converged=%v, players split %.1f kW\n", res.Converged, g.TotalPowerKW())
	// Output:
	// converged=true, players split 106.4 kW
}
