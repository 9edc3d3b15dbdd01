package sched

import (
	"context"
	"math"
	"testing"
	"time"

	"olevgrid/internal/core"
	"olevgrid/internal/v2i"
)

// The agent keeps its built cost function across quotes, so a quote
// carrying a different CostSpec (a price-feed step) must still be
// priced at the quoted β: every answer equals a fresh best response to
// that quote's cost.
func TestAgentRepricesWhenCostChanges(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	sat := core.LogSatisfaction{Weight: 1.2}
	grid, done := autonomyRig(t, ctx, AgentConfig{VehicleID: "ev", MaxPowerKW: 60, Satisfaction: sat})
	others := []float64{12, 30, 7, 18}
	base := nonlinearSpec()
	for k, scale := range []float64{1, 3, 3, 1, 0.5} {
		spec := base
		spec.BetaPerKWh *= scale
		env, err := v2i.Seal(v2i.TypeQuote, "grid", uint64(k+1), v2i.Quote{
			VehicleID: "ev", Others: others, Cost: spec, Round: k + 1, Epoch: uint64(k + 1),
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := grid.Send(ctx, env); err != nil {
			t.Fatal(err)
		}
		reply, err := grid.Recv(ctx)
		if err != nil {
			t.Fatal(err)
		}
		var req v2i.Request
		if err := v2i.Open(reply, v2i.TypeRequest, &req); err != nil {
			t.Fatal(err)
		}
		cost, err := BuildCost(spec)
		if err != nil {
			t.Fatal(err)
		}
		var psi core.PaymentFunction
		psi.Reset(cost, others, 0)
		if want := psi.BestResponse(sat, 60); math.Float64bits(req.TotalKW) != math.Float64bits(want) {
			t.Errorf("quote %d (β×%v): requested %v, fresh best response %v", k, scale, req.TotalKW, want)
		}
	}
	sendBye(t, ctx, grid, 99)
	<-done
}
