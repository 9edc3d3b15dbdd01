package sched

import (
	"context"
	"fmt"
	"math"
	"sync"
	"testing"
	"time"

	"olevgrid/internal/core"
	"olevgrid/internal/v2i"
)

// TestDistributedDrawCappedEquilibriumProperties runs the paper's
// equilibrium invariants on the distributed engine path — agents
// best-responding through their local Ψ kernel, the coordinator
// water-filling through its own — with Eq. (3) draw caps that bind:
//
//   - Lemma IV.1 KKT flatness: each vehicle's active sections below its
//     cap sit at one level P_c = λ_n, inactive sections carry a
//     background at or above λ_n, capped sections sit at or below it;
//   - no row breaks its draw cap, and every row places exactly the
//     total its vehicle requested (the best response never asks for
//     more than the quoted schedule can place);
//   - payments ξ_n are nonnegative, both as the grid quoted them and
//     recomputed (Eq. 9) on the final schedule.
func TestDistributedDrawCappedEquilibriumProperties(t *testing.T) {
	const n, sections = 8, 6
	cost, err := BuildCost(nonlinearSpec())
	if err != nil {
		t.Fatal(err)
	}
	links := make(map[string]v2i.Transport, n)
	agents := make([]*Agent, n)
	caps := make([]float64, n)
	for i := range agents {
		id := fmt.Sprintf("ev-%02d", i)
		gridSide, vehicleSide := v2i.NewPair(8)
		links[id] = gridSide
		if i%2 == 0 {
			caps[i] = 2 + float64(i) // binding for the eager even vehicles
		}
		if agents[i], err = NewAgent(AgentConfig{
			VehicleID:        id,
			MaxPowerKW:       60,
			Satisfaction:     core.LogSatisfaction{Weight: 1 + 0.5*float64(i%3)},
			MaxSectionDrawKW: caps[i],
		}, vehicleSide); err != nil {
			t.Fatal(err)
		}
	}
	coord, err := NewCoordinator(CoordinatorConfig{
		NumSections:    sections,
		LineCapacityKW: 53.55,
		Cost:           nonlinearSpec(),
		Tolerance:      1e-9,
		MaxRounds:      2000,
		Seed:           3,
	}, links)
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	results := make([]AgentResult, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i, a := range agents {
		wg.Add(1)
		go func(i int, a *Agent) {
			defer wg.Done()
			results[i], errs[i] = a.Run(ctx)
		}(i, a)
	}
	report, err := coord.Run(ctx)
	wg.Wait()
	if err != nil {
		t.Fatalf("coordinator: %v", err)
	}
	for i, err := range errs {
		if err != nil {
			t.Fatalf("agent %d: %v", i, err)
		}
	}
	if !report.Converged {
		t.Fatalf("did not converge in %d rounds", report.Rounds)
	}

	totals := make([]float64, sections)
	for _, r := range results {
		if len(r.FinalAllocKW) != sections {
			t.Fatalf("final row has %d sections", len(r.FinalAllocKW))
		}
		for c, a := range r.FinalAllocKW {
			totals[c] += a
		}
	}
	const active = 1e-7
	var binding bool
	for i, r := range results {
		row, drawCap := r.FinalAllocKW, caps[i]
		capped := func(a float64) bool { return drawCap > 0 && a >= drawCap-active }
		var placed float64
		for _, a := range row {
			placed += a
		}
		if req := report.Requests[fmt.Sprintf("ev-%02d", i)]; math.Abs(placed-req) > 1e-9*(1+req) {
			t.Fatalf("vehicle %d requested %v but was placed %v", i, req, placed)
		}
		level, haveLevel := 0.0, false
		for c, a := range row {
			if drawCap > 0 && a > drawCap+1e-9 {
				t.Fatalf("vehicle %d section %d draws %v over its cap %v", i, c, a, drawCap)
			}
			if capped(a) {
				binding = true
			}
			if a <= active || capped(a) {
				continue
			}
			if !haveLevel {
				level, haveLevel = totals[c], true
			} else if d := math.Abs(totals[c] - level); d > 1e-5*(1+level) {
				t.Fatalf("vehicle %d: active sections not flat: %v vs %v", i, totals[c], level)
			}
		}
		for c, a := range row {
			switch {
			case !haveLevel:
			case a <= active:
				if bg := totals[c] - a; bg < level-1e-4*(1+level) {
					t.Fatalf("vehicle %d section %d: inactive but background %v below level %v", i, c, bg, level)
				}
			case capped(a):
				if totals[c] > level+1e-4*(1+level) {
					t.Fatalf("vehicle %d section %d: capped yet above level (%v > %v)", i, c, totals[c], level)
				}
			}
		}

		if r.FinalPaymentH < 0 {
			t.Fatalf("vehicle %d quoted a negative payment %v", i, r.FinalPaymentH)
		}
		others := make([]float64, sections)
		costs := make([]core.CostFunction, sections)
		for c := range others {
			others[c] = math.Max(totals[c]-row[c], 0)
			costs[c] = cost
		}
		if xi := core.Payment(costs, others, row); xi < -1e-9 {
			t.Fatalf("vehicle %d payment negative on the final schedule: %v", i, xi)
		}
	}
	if !binding {
		t.Fatal("no draw cap binds: the capped kernel path went unexercised")
	}
}
