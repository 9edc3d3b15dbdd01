// Package pricing assembles the paper's two pricing policies into
// runnable scenarios:
//
//   - Nonlinear (Section IV): the quadratic congestion-reactive price
//     V(x) = β(α + x/cap)², driven through the core game's
//     asynchronous best-response dynamics; and
//   - Linear (the comparison baseline of Section V): a flat unit price
//     V(x) = βx that cannot react to congestion, with the
//     uncoordinated first-fit allocation that flat prices induce.
//
// Both take the same Scenario and produce the same Outcome, so the
// experiment harnesses can overlay them the way Figs. 5 and 6 do.
package pricing

import (
	"fmt"
	"math"

	"olevgrid/internal/core"
	"olevgrid/internal/stats"
	"olevgrid/internal/units"
)

// Scenario is one experimental condition: a fleet, an infrastructure,
// and a price level.
type Scenario struct {
	// Players is the OLEV fleet.
	Players []core.Player
	// NumSections is C.
	NumSections int
	// LineCapacityKW is P_line per section (Eq. 1 at the scenario's
	// velocity).
	LineCapacityKW float64
	// Eta is the safety factor η; the target congestion degree of the
	// evaluation sweeps.
	Eta float64
	// BetaPerMWh is β, the LBMP-derived unit price in $/MWh.
	BetaPerMWh float64
	// Seed drives every stochastic choice in the scenario.
	Seed int64
	// MaxUpdates bounds the best-response iteration; 0 means 1000·N.
	MaxUpdates int
	// Parallelism, when positive, routes the nonlinear policy through
	// the block-speculative round engine (core.RunParallel) with that
	// many proposal workers instead of the asynchronous single-player
	// dynamics. The engine's schedules are worker-count independent,
	// so any positive value yields the same outcome; the linear policy
	// is one-shot and ignores it.
	Parallelism int
	// Tolerance overrides the convergence tolerance of the nonlinear
	// dynamics; 0 means the solver default (1e-6). Warm-start
	// comparisons tighten it so cold and warm equilibria can be
	// compared entrywise.
	Tolerance float64
	// InitialSchedule, when non-nil, warm-starts the nonlinear game
	// from a prior equilibrium (see core.Config.InitialSchedule and
	// core.ProjectSchedule). The linear policy is one-shot and ignores
	// it. Dimensions must match Players × NumSections.
	InitialSchedule *core.Schedule
	// Metrics, if non-nil, receives solver telemetry from the round
	// engine when Parallelism routes the nonlinear dynamics through
	// it (see core.ParallelOptions.Metrics). The asynchronous path
	// and the linear policy ignore it; nil is the zero-overhead off
	// switch either way.
	Metrics *core.Metrics
	// DeadSections lists de-energized charging sections (a roadway
	// segment outage): the nonlinear game is solved over the surviving
	// sections only — the overload penalty keeps guarding ηP_line on
	// each survivor — and the reported section totals and schedule are
	// zero at the dead columns. Empty means all sections live. The
	// one-shot linear policy ignores it, like InitialSchedule.
	DeadSections []int
	// Solver selects the nonlinear policy's equilibrium engine: "" or
	// SolverExact runs the paper's per-player dynamics (the default
	// everywhere); SolverMeanField routes through the aggregated
	// population tier (internal/meanfield), which clusters the fleet,
	// solves a K-player macro game and disaggregates — the approximate
	// engine for fleets the exact tier cannot afford. The linear policy
	// is one-shot and ignores it. The mean-field path ignores
	// InitialSchedule (the macro game cold-starts; its rounds are
	// population-level).
	Solver string
	// MeanFieldClusters is the population budget K for SolverMeanField;
	// 0 means meanfield.DefaultClusters. Ignored by the exact solver.
	MeanFieldClusters int
}

// Solver values for Scenario.Solver.
const (
	// SolverExact is the paper's per-player best-response engine —
	// equivalent to leaving Solver empty.
	SolverExact = "exact"
	// SolverMeanField is the aggregated population tier.
	SolverMeanField = "meanfield"
)

// Validate reports the first problem with the scenario.
func (s Scenario) Validate() error {
	if len(s.Players) == 0 {
		return fmt.Errorf("pricing: scenario needs players")
	}
	if s.NumSections < 1 {
		return fmt.Errorf("pricing: scenario needs sections, got %d", s.NumSections)
	}
	if s.LineCapacityKW <= 0 {
		return fmt.Errorf("pricing: line capacity %v must be positive", s.LineCapacityKW)
	}
	if s.Eta <= 0 || s.Eta > 1 {
		return fmt.Errorf("pricing: eta %v outside (0, 1]", s.Eta)
	}
	if s.BetaPerMWh <= 0 {
		return fmt.Errorf("pricing: beta %v must be positive", s.BetaPerMWh)
	}
	seen := make(map[int]bool, len(s.DeadSections))
	for _, d := range s.DeadSections {
		if d < 0 || d >= s.NumSections {
			return fmt.Errorf("pricing: dead section %d outside [0, %d)", d, s.NumSections)
		}
		if seen[d] {
			return fmt.Errorf("pricing: dead section %d listed twice", d)
		}
		seen[d] = true
	}
	if len(seen) > 0 && len(seen) == s.NumSections {
		return fmt.Errorf("pricing: all %d sections dead", s.NumSections)
	}
	switch s.Solver {
	case "", SolverExact, SolverMeanField:
	default:
		return fmt.Errorf("pricing: unknown solver %q", s.Solver)
	}
	if s.MeanFieldClusters < 0 {
		return fmt.Errorf("pricing: mean-field cluster count %d must be non-negative", s.MeanFieldClusters)
	}
	return nil
}

// liveIndices returns the surviving sections' indices, or nil when no
// section is dead (the fast path: no compaction needed).
func (s Scenario) liveIndices() []int {
	if len(s.DeadSections) == 0 {
		return nil
	}
	dead := make(map[int]bool, len(s.DeadSections))
	for _, d := range s.DeadSections {
		dead[d] = true
	}
	idx := make([]int, 0, s.NumSections-len(dead))
	for c := 0; c < s.NumSections; c++ {
		if !dead[c] {
			idx = append(idx, c)
		}
	}
	return idx
}

// Outcome reports what a policy produced on a scenario.
type Outcome struct {
	// Policy names the policy that produced the outcome.
	Policy string
	// UnitPaymentPerMWh is total payment over total power, in $/MWh —
	// the Fig. 5(a) y-axis.
	UnitPaymentPerMWh float64
	// TotalPaymentPerHour is Σ_n ξ_n in $/h.
	TotalPaymentPerHour float64
	// Welfare is W(p) in $/h — the Fig. 5(b) y-axis.
	Welfare float64
	// TotalPowerKW is the scheduled power Σ_n p_n.
	TotalPowerKW float64
	// SectionTotalsKW is (P_1…P_C) — the Fig. 5(c) series.
	SectionTotalsKW []float64
	// PlayerTotalsKW is (p_1…p_N), index-aligned with the scenario's
	// players — the fairness analyses read it.
	PlayerTotalsKW []float64
	// CongestionDegree is Σ P_c / Σ P_line.
	CongestionDegree float64
	// CongestionHistory is the congestion degree after each update —
	// the Fig. 5(d) series. Empty for the one-shot linear policy.
	CongestionHistory []float64
	// WelfareHistory is W(p) after each update.
	WelfareHistory []float64
	// Updates counts best-response updates performed.
	Updates int
	// Rounds counts full fleet cycles: exact engine rounds on the
	// parallel path, ⌈Updates/N⌉ on the asynchronous path. Zero for
	// the one-shot linear policy.
	Rounds int
	// DegradedRounds counts blocks the parallel engine's welfare guard
	// rolled back and replayed sequentially (core's Replayed); always
	// zero on the asynchronous path.
	DegradedRounds int
	// Converged reports whether the dynamics settled.
	Converged bool
	// Schedule is the converged N×C schedule, kept so callers can
	// warm-start the next scenario from it (core.ProjectSchedule).
	// Nil for the linear policy.
	Schedule *core.Schedule
}

// LoadImbalance returns the coefficient of variation of the
// per-section totals — the scalar the load-balancing claims of
// Fig. 5(c)/6(c) reduce to.
func (o Outcome) LoadImbalance() float64 {
	var s stats.Summary
	s.AddAll(o.SectionTotalsKW)
	return s.CoefficientOfVariation()
}

// Policy runs a pricing policy on a scenario.
type Policy interface {
	// Name identifies the policy in outcomes and reports.
	Name() string
	// Run executes the policy and returns the outcome.
	Run(s Scenario) (Outcome, error)
}

// LineCapacityKW evaluates Eq. (1) for the evaluation's default
// charging-section electricals (399 V, 240 A) and the given section
// length and vehicle velocity — the bridge between the wpt substrate's
// physics and the game's capacity parameter.
func LineCapacityKW(sectionLength units.Distance, vel units.Speed) float64 {
	if vel <= 0 {
		return 0
	}
	return 399.0 / 1000 * 240 * sectionLength.Meters() / vel.MPS()
}

// clampNonNegative guards derived metrics against float drift.
func clampNonNegative(v float64) float64 {
	if v < 0 || math.IsNaN(v) {
		return 0
	}
	return v
}
