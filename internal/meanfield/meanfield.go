// Package meanfield is the aggregated solver tier: it stands a small
// population game in for a large fleet so million-OLEV sessions stop
// paying O(N) per best-response round.
//
// The tier is three moves, each leaning on a property the exact engine
// already proves:
//
//  1. Cluster. The fleet is partitioned into K representative
//     populations by type profile (satisfaction family and intensity,
//     power ceiling, draw cap). Each population is aggregated into one
//     macro player whose feasible set is the members' Minkowski sum
//     and whose satisfaction is the members' scaled centroid
//     (ScaledSatisfaction) — concave and increasing, so the macro game
//     is again an exact potential game under Theorem IV.1.
//
//  2. Solve. The K-player macro game runs on the unmodified exact
//     engine (core.RunParallel): same bisection best responses, same
//     block-speculation, same welfare guard, same determinism
//     contract. Because the macro optimum is the social optimum of the
//     original game restricted to within-cluster equal splits, the
//     welfare gap against the exact solve comes only from
//     within-cluster heterogeneity — which the clustering rule
//     shrinks as K grows (refinement nesting; see ClusterPlayers).
//
//  3. Disaggregate. The macro schedule maps back to per-player rows by
//     a capped equal split inside each cluster followed by the same
//     feasibility clamp warm-start projection uses
//     (core.ClampRowToPlayer), so every published row satisfies the
//     player's own Eq. (2)/(3) constraints by construction. The
//     reported welfare is evaluated on the *disaggregated* schedule —
//     the tier never grades itself on the macro fiction.
//
// The exact engine remains the reference oracle: differential_test.go
// gates the welfare and per-section schedule error of this tier
// against core.RunParallel on overlapping fleet sizes, and
// `olevgrid-bench meanfield` gates the scaling claim (per-player cost
// sub-linear up to N = 10^6) in CI.
package meanfield

import (
	"fmt"
	"math"

	"olevgrid/internal/core"
	"olevgrid/internal/sweep"
)

// perMemberTolerance is the exact engine's default per-player
// convergence tolerance (see core.ParallelOptions.Tolerance); the
// macro default scales it to population totals.
const perMemberTolerance = 1e-6

// Config configures one aggregated solve. The game-shape fields mirror
// core.Config; the tier-specific knobs are Clusters and SkipSchedule.
type Config struct {
	// Players is the full fleet, index-aligned with the Result's
	// Assignment and Schedule rows.
	Players []core.Player
	// NumSections is C.
	NumSections int
	// LineCapacityKW is P_line of Eq. (1) for every section.
	LineCapacityKW float64
	// Eta is the safety factor η ∈ (0, 1].
	Eta float64
	// Cost is the shared section cost Z(·) of Eq. (6).
	Cost core.CostFunction
	// Clusters is K, the number of representative populations; 0 means
	// DefaultClusters, and K is clamped to the fleet size.
	Clusters int

	// Parallelism is the worker count for both the macro solve and the
	// disaggregation fan-out; 0 means GOMAXPROCS. Results never depend
	// on it (the macro engine's contract, plus index-ordered partial
	// combination here).
	Parallelism int
	// Tolerance is the macro game's convergence criterion. Zero means
	// the exact engine's per-player default (1e-6 kW) scaled by the
	// mean cluster size: a macro player's total is the sum of its
	// members', so demanding 1e-6 of a 4000-member population would
	// demand 2.5e-10 per vehicle — five orders stricter than the exact
	// tier ever runs. The scaled default expresses the same per-member
	// precision at every aggregation level.
	Tolerance float64
	// MaxRounds, Order and Seed pass through to the macro engine's
	// ParallelOptions and carry its semantics (and its defaults when
	// zero).
	MaxRounds int
	Order     core.UpdateOrder
	Seed      int64

	// SkipSchedule streams the disaggregation: per-player rows are
	// produced, measured and discarded without materializing the N×C
	// schedule — O(C) memory per worker, which is what makes
	// million-OLEV fleets fit. Result.Schedule is nil.
	SkipSchedule bool

	// Metrics, if non-nil, receives tier telemetry (olev_mf_*); nil is
	// the zero-overhead off switch, matching every other bundle.
	Metrics *Metrics
	// SolverMetrics, if non-nil, instruments the inner macro solve with
	// the standard olev_solver_* catalog.
	SolverMetrics *core.Metrics
}

// Validate reports the first problem with the configuration.
func (c Config) Validate() error {
	if len(c.Players) == 0 {
		return fmt.Errorf("meanfield: solve needs at least one player")
	}
	if c.NumSections < 1 {
		return fmt.Errorf("meanfield: need at least one section, got %d", c.NumSections)
	}
	if c.LineCapacityKW <= 0 || math.IsNaN(c.LineCapacityKW) {
		return fmt.Errorf("meanfield: line capacity %v must be positive", c.LineCapacityKW)
	}
	if c.Eta <= 0 || c.Eta > 1 {
		return fmt.Errorf("meanfield: safety factor %v outside (0, 1]", c.Eta)
	}
	if c.Cost == nil {
		return fmt.Errorf("meanfield: solve needs a section cost function")
	}
	if c.Clusters < 0 {
		return fmt.Errorf("meanfield: cluster count %d must be non-negative", c.Clusters)
	}
	return nil
}

// Result reports one aggregated solve. All aggregate figures
// (Welfare, SectionTotalsKW, TotalPowerKW, CongestionDegree) are
// evaluated on the disaggregated per-player schedule, not the macro
// one — they are directly comparable with the exact engine's.
type Result struct {
	// Clusters is the number of populations actually formed (≤ K).
	Clusters int
	// Rounds, Updates, Converged and Replayed describe the macro
	// solve; Updates counts macro-player updates.
	Rounds    int
	Updates   int
	Converged bool
	Replayed  int

	// MacroWelfare is W of the macro game at its equilibrium — the
	// restricted (within-cluster equal-split) social optimum.
	MacroWelfare float64
	// Welfare is W of the disaggregated schedule: Σ_n U_n(p_n) with
	// each player's own satisfaction, minus Σ_c Z(P_c) on the realized
	// section totals.
	Welfare float64

	// SectionTotalsKW are the realized per-section loads P_1…P_C.
	SectionTotalsKW []float64
	// TotalPowerKW is Σ_n p_n.
	TotalPowerKW float64
	// CongestionDegree is Σ_c P_c / (C · P_line).
	CongestionDegree float64
	// ClampedKW is the aggregate mass the per-player feasibility clamp
	// removed during disaggregation — the tier's own audit of how far
	// the macro fiction overshot individual constraints (zero on
	// homogeneous clusters).
	ClampedKW float64

	// Schedule is the full per-player schedule, index-aligned with
	// Config.Players; nil when SkipSchedule streamed it.
	Schedule *core.Schedule
	// Assignment maps each player index to its cluster index.
	Assignment []int
}

// Solve runs the aggregated tier: cluster, solve the macro game on the
// exact engine, disaggregate. Deterministic for a fixed Config modulo
// Parallelism, which never changes the result.
func Solve(cfg Config) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	clusters, assignment, err := ClusterPlayers(cfg.Players, cfg.Clusters)
	if err != nil {
		return nil, err
	}

	macros := make([]core.Player, len(clusters))
	for i, cl := range clusters {
		macros[i] = cl.Macro
	}
	g, err := core.NewGame(core.Config{
		Players:        macros,
		NumSections:    cfg.NumSections,
		LineCapacityKW: cfg.LineCapacityKW,
		Eta:            cfg.Eta,
		Cost:           cfg.Cost,
	})
	if err != nil {
		return nil, fmt.Errorf("meanfield: macro game: %w", err)
	}
	tol := cfg.Tolerance
	if tol == 0 {
		tol = perMemberTolerance * float64(len(cfg.Players)) / float64(len(clusters))
	}
	mres := g.RunParallel(core.ParallelOptions{
		MaxRounds:   cfg.MaxRounds,
		Tolerance:   tol,
		Parallelism: cfg.Parallelism,
		Order:       cfg.Order,
		Seed:        cfg.Seed,
		Metrics:     cfg.SolverMetrics,
	})
	macroSched := g.Schedule()

	var sched *core.Schedule
	if !cfg.SkipSchedule {
		sched, err = core.NewSchedule(len(cfg.Players), cfg.NumSections)
		if err != nil {
			return nil, err
		}
	}

	// Fan the clusters out; each job owns its scratch, rows of distinct
	// clusters are disjoint, and partials are combined in cluster-index
	// order below — worker-count independent end to end.
	partials, err := sweep.Map(len(clusters), cfg.Parallelism, func(i int) (clusterPartial, error) {
		ws := newSplitScratch(cfg.NumSections)
		return disaggregateCluster(clusters[i], cfg.Players, macroSched.Row(i), sched, ws), nil
	})
	if err != nil {
		return nil, err
	}

	res := &Result{
		Clusters:        len(clusters),
		Rounds:          mres.Rounds,
		Updates:         mres.Updates,
		Converged:       mres.Converged,
		Replayed:        mres.Replayed,
		MacroWelfare:    g.Welfare(),
		SectionTotalsKW: make([]float64, cfg.NumSections),
		Schedule:        sched,
		Assignment:      assignment,
	}
	var satisfaction float64
	for _, part := range partials {
		satisfaction += part.satisfaction
		res.TotalPowerKW += part.powerKW
		res.ClampedKW += part.clampedKW
		for c, v := range part.sectionTotals {
			res.SectionTotalsKW[c] += v
		}
	}
	var cost float64
	for _, load := range res.SectionTotalsKW {
		cost += cfg.Cost.Cost(load)
	}
	res.Welfare = satisfaction - cost
	res.CongestionDegree = res.TotalPowerKW / (float64(cfg.NumSections) * cfg.LineCapacityKW)
	cfg.Metrics.observeSolve(len(cfg.Players), res)
	return res, nil
}
