package pricing

import (
	"fmt"

	"olevgrid/internal/core"
)

// DefaultAlpha is the paper's α = 0.875, chosen "based on the profit
// the smart grid wants to make".
const DefaultAlpha = 0.875

// DefaultOverloadKappaFactor scales the overload penalty's κ as a
// multiple of β. It trades congestion-overshoot against best-response
// conditioning: a stiffer wall pins Σp closer to ηP_line but makes the
// marginal price nearly a step, which slows the equalization of
// allocations across OLEVs (the dynamics degenerate toward
// order-dependent capacity grabbing). 500× keeps the equilibrium
// within a few percent of the safety factor while the asynchronous
// updates still converge to the equal-marginal optimum.
const DefaultOverloadKappaFactor = 500

// Nonlinear is the paper's pricing policy.
type Nonlinear struct {
	// Alpha is α; zero means DefaultAlpha.
	Alpha float64
	// OverloadKappaFactor is κ/β; zero means the default.
	OverloadKappaFactor float64
	// Order selects the update order; zero means random, the
	// "randomly chosen OLEV" of Section IV-D.
	Order core.UpdateOrder
}

var _ Policy = Nonlinear{}

// Name implements Policy.
func (Nonlinear) Name() string { return "nonlinear" }

// CostFunction builds the section cost Z = V + A the policy induces.
// The charging cost V is normalized by the *full* line capacity
// P_line, so the unit price tracks the paper's congestion degree
// P_c/P_line; the overload penalty A guards the *usable* capacity
// ηP_line (Eq. 4).
func (p Nonlinear) CostFunction(betaPerMWh, lineCapacityKW, eta float64) (core.CostFunction, error) {
	alpha := p.Alpha
	if alpha == 0 {
		alpha = DefaultAlpha
	}
	kf := p.OverloadKappaFactor
	if kf == 0 {
		kf = DefaultOverloadKappaFactor
	}
	if eta <= 0 || eta > 1 {
		return nil, fmt.Errorf("pricing: eta %v outside (0, 1]", eta)
	}
	betaPerKWh := betaPerMWh / 1000
	v, err := core.NewQuadraticCharging(betaPerKWh, alpha, lineCapacityKW)
	if err != nil {
		return nil, err
	}
	return core.SectionCost{
		Charging: v,
		Overload: core.OverloadPenalty{Kappa: kf * betaPerKWh, Capacity: eta * lineCapacityKW},
	}, nil
}

// Run implements Policy: build the core game and drive the
// asynchronous best-response dynamics to convergence.
func (p Nonlinear) Run(s Scenario) (Outcome, error) {
	if err := s.Validate(); err != nil {
		return Outcome{}, err
	}
	if idx := s.liveIndices(); idx != nil {
		return p.runCompacted(s, idx)
	}
	if s.Solver == SolverMeanField {
		return p.runMeanField(s)
	}
	cost, err := p.CostFunction(s.BetaPerMWh, s.LineCapacityKW, s.Eta)
	if err != nil {
		return Outcome{}, err
	}
	game, err := core.NewGame(core.Config{
		Players:         s.Players,
		NumSections:     s.NumSections,
		LineCapacityKW:  s.LineCapacityKW,
		Eta:             s.Eta,
		Cost:            cost,
		InitialSchedule: s.InitialSchedule,
	})
	if err != nil {
		return Outcome{}, fmt.Errorf("pricing: nonlinear game: %w", err)
	}
	order := p.Order
	if order == 0 {
		order = core.OrderRandom
	}
	var res core.Result
	var rounds, degraded int
	if s.Parallelism > 0 {
		// Round-engine path: MaxUpdates is a per-player budget in the
		// asynchronous dynamics, so it maps onto whole fleet rounds.
		maxRounds := 0
		if s.MaxUpdates > 0 {
			maxRounds = (s.MaxUpdates + len(s.Players) - 1) / len(s.Players)
		}
		pres := game.RunParallel(core.ParallelOptions{
			MaxRounds:   maxRounds,
			Tolerance:   s.Tolerance,
			Parallelism: s.Parallelism,
			Order:       order,
			Seed:        s.Seed,
			Metrics:     s.Metrics,
		})
		res, rounds, degraded = pres.Result, pres.Rounds, pres.Replayed
	} else {
		res = game.Run(core.RunOptions{
			MaxUpdates: s.MaxUpdates,
			Tolerance:  s.Tolerance,
			Order:      order,
			Seed:       s.Seed,
		})
		rounds = (res.Updates + len(s.Players) - 1) / len(s.Players)
	}
	playerTotals := make([]float64, game.NumPlayers())
	schedule := game.Schedule()
	for n := range playerTotals {
		playerTotals[n] = schedule.OLEVTotal(n)
	}
	return Outcome{
		Policy:              p.Name(),
		UnitPaymentPerMWh:   clampNonNegative(game.UnitPaymentPerMWh()),
		TotalPaymentPerHour: clampNonNegative(game.TotalPayment()),
		Welfare:             game.Welfare(),
		TotalPowerKW:        game.TotalPowerKW(),
		SectionTotalsKW:     game.SectionTotals(),
		PlayerTotalsKW:      playerTotals,
		CongestionDegree:    game.CongestionDegree(),
		CongestionHistory:   res.Congestion,
		WelfareHistory:      res.Welfare,
		Updates:             res.Updates,
		Rounds:              rounds,
		DegradedRounds:      degraded,
		Converged:           res.Converged,
		Schedule:            schedule,
	}, nil
}

// runCompacted solves a scenario with dead sections over the surviving
// ones only, then scatters the results back to full width with zeroed
// dead columns. The per-section economics are untouched — each
// survivor keeps its own P_line and ηP_line guard — so the compacted
// game is exactly the paper's game on a shorter roadway; only the
// congestion degree's denominator shrinks to the surviving capacity,
// which is the operationally meaningful reading during an outage.
func (p Nonlinear) runCompacted(s Scenario, liveIdx []int) (Outcome, error) {
	cs := s
	cs.DeadSections = nil
	cs.NumSections = len(liveIdx)
	if s.InitialSchedule != nil {
		// A full-width warm start is re-projected onto the surviving
		// sections: the row totals carry over (the demand guess), the
		// shape is rebuilt by the first best responses.
		ids := make([]string, len(s.Players))
		for i, pl := range s.Players {
			ids[i] = pl.ID
		}
		proj, err := core.ProjectSchedule(s.InitialSchedule, ids, s.Players, cs.NumSections)
		if err != nil {
			return Outcome{}, fmt.Errorf("pricing: project warm start off dead sections: %w", err)
		}
		cs.InitialSchedule = proj
	}
	out, err := p.Run(cs)
	if err != nil {
		return out, err
	}
	full := make([]float64, s.NumSections)
	for i, j := range liveIdx {
		full[j] = out.SectionTotalsKW[i]
	}
	out.SectionTotalsKW = full
	if out.Schedule != nil {
		exp, err := core.NewSchedule(out.Schedule.NumOLEVs(), s.NumSections)
		if err != nil {
			return Outcome{}, err
		}
		for n := 0; n < out.Schedule.NumOLEVs(); n++ {
			for i, j := range liveIdx {
				exp.Set(n, j, out.Schedule.At(n, i))
			}
		}
		out.Schedule = exp
	}
	return out, nil
}
