package core

import "fmt"

// Solver is a persistent round engine for warm-start sequences: one
// game solved, perturbed, and re-solved many times — the smart grid
// re-running the pricing game each hour as LBMP and demand drift
// (Section V). Where RunParallel builds and discards its incremental
// state (aggregate loads P_c, the Z and U caches, the worker pool and
// all scratch buffers), a Solver keeps them alive between solves, so a
// re-solve after a small perturbation costs only the rounds the
// dynamics actually need plus an O(C) cache refresh — no O(N·C)
// rebuild, no pool restart, no allocation.
//
// Theorem IV.1 makes the reuse safe: the dynamics converge to the
// social optimum from any feasible schedule, so solving from the
// previous equilibrium reaches the same fixed point as solving cold,
// only in fewer rounds. The differential suite in warmstart_test.go
// asserts the two paths agree to 1e-9.
//
// Parallelism and BatchSize are fixed at construction; each Solve call
// honors its own Tolerance, Order, Seed, MaxRounds and OnRound. The
// determinism contract of RunParallel extends across solves: a Solve
// resets the visit order before running, so a sequence of
// (perturbation, Solve) steps is bit-for-bit reproducible and still
// independent of Parallelism.
//
// A Solver is not safe for concurrent use, and the Game passed to
// NewSolver must not be driven by other solvers or Run calls while the
// Solver is alive. Close releases the worker pool.
type Solver struct {
	g *Game
	e *roundEngine
}

// NewSolver wraps g in a persistent engine. The engine primes its
// incremental aggregates from g's current schedule — which may itself
// be a warm start via Config.InitialSchedule.
func NewSolver(g *Game, parallelism, batchSize int) (*Solver, error) {
	if g == nil {
		return nil, fmt.Errorf("core: solver needs a game")
	}
	return &Solver{g: g, e: newRoundEngine(g, parallelism, batchSize, 0)}, nil
}

// Game returns the underlying game; its accessors (Welfare, Schedule,
// SectionTotals, …) stay truthful between solves.
func (s *Solver) Game() *Game { return s.g }

// Solve runs the round iteration from the standing schedule.
// Parallelism and BatchSize in opts are ignored — they were fixed at
// construction; everything else behaves as in RunParallel, and
// Replayed counts only this solve's replays.
func (s *Solver) Solve(opts ParallelOptions) ParallelResult {
	return s.e.loop(opts, 0, nil)
}

// SetCost swaps the shared section cost function — the between-hours
// LBMP β step — refreshing the per-section Z cache in O(C).
func (s *Solver) SetCost(cost CostFunction) error {
	if cost == nil {
		return fmt.Errorf("core: solver needs a cost function")
	}
	s.e.setCost(cost)
	return nil
}

// SetPlayer replaces player n's definition in place (same fleet size;
// for joins and departures, project onto a new game instead) and
// refreshes that player's cached satisfaction in O(1).
func (s *Solver) SetPlayer(n int, p Player) error {
	if n < 0 || n >= s.e.n {
		return fmt.Errorf("core: solver has no player %d", n)
	}
	if p.ID == "" {
		return fmt.Errorf("core: player %d has an empty ID", n)
	}
	if p.Satisfaction == nil {
		return fmt.Errorf("core: player %q has no satisfaction function", p.ID)
	}
	s.e.setPlayer(n, p)
	return nil
}

// SetSchedule replaces the standing schedule wholesale (for example a
// ProjectSchedule result after churn) and re-primes the aggregates.
func (s *Solver) SetSchedule(sched *Schedule) error {
	if sched == nil {
		return fmt.Errorf("core: solver needs a schedule")
	}
	return s.e.setSchedule(sched)
}

// Close winds the worker pool down. The Solver must not be used after
// Close; calling Close more than once is harmless.
func (s *Solver) Close() { s.e.stop() }
