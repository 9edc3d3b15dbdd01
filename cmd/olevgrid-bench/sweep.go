package main

// The sweep gate measures the outer simulation layers — the full
// figure sweep (experiments.RunAllWith) and the coupled traffic/game
// day (coupling.RunDay):
//
//   - wall-clock for the paper's cold sequential path versus the
//     warm-started sweep engine at one worker and at GOMAXPROCS;
//   - cold-vs-warm round counts for the hour-chained day, plus the
//     max per-entry schedule divergence and worst hourly welfare
//     disagreement between the two (same solver, tight tolerance, so
//     the numbers measure the warm start and nothing else).
//
// Its checks are the warm-start equivalence contract: warm must never
// move an equilibrium (welfare agreement ≤ 1e-6, schedule divergence
// ≤ 1e-9) and must save rounds. Wall-clock is recorded but never
// gated — CI machines are too noisy for that.
//
//	olevgrid-bench sweep [-quick] [-o BENCH_sweep.json] [-check]

import (
	"flag"
	"fmt"
	"io"
	"math"
	"runtime"
	"time"

	"olevgrid/internal/coupling"
	"olevgrid/internal/experiments"
)

// runallBench times three ways through the full figure regeneration.
type runallBench struct {
	// ColdSequentialWallMs is the paper's path: asynchronous dynamics,
	// every sweep point cold, strictly sequential (Parallelism 0).
	ColdSequentialWallMs float64 `json:"cold_sequential_wall_ms"`
	// SweepP1WallMs is the warm-chained sweep on the round engine with
	// one worker — the speedup attributable to warm starts and the
	// engine alone.
	SweepP1WallMs float64 `json:"sweep_p1_wall_ms"`
	// SweepPMaxWallMs adds worker fan-out at GOMAXPROCS.
	SweepPMaxWallMs float64 `json:"sweep_pmax_wall_ms"`
	// Speedup is cold_sequential over sweep_pmax.
	Speedup float64 `json:"sweep_speedup"`
}

// dayBench compares a cold and a warm hour-chained coupled day run by
// the same engine at the same tight tolerance.
type dayBench struct {
	ColdTotalRounds int `json:"cold_total_rounds"`
	WarmTotalRounds int `json:"warm_total_rounds"`
	// RoundReduction is 1 − warm/cold.
	RoundReduction float64 `json:"round_reduction"`
	// MaxScheduleDivergence is the largest per-entry |cold − warm| over
	// every hour's converged schedule.
	MaxScheduleDivergence float64 `json:"max_schedule_divergence"`
	// WelfareAgreement is the worst hourly |W_cold − W_warm|.
	WelfareAgreement float64 `json:"welfare_agreement"`
	ColdWallMs       float64 `json:"cold_wall_ms"`
	WarmWallMs       float64 `json:"warm_wall_ms"`
}

type sweepReport struct {
	Header
	Quick bool `json:"quick"`

	RunAll runallBench `json:"runall"`
	Day    dayBench    `json:"day"`
	Verdict
}

func sweepGate(fs *flag.FlagSet) func() (report, error) {
	quick := fs.Bool("quick", false, "fewer convergence runs in the figure sweep")
	return func() (report, error) { return runSweep(*quick) }
}

func runSweep(quick bool) (*sweepReport, error) {
	rep := &sweepReport{Quick: quick}
	if err := benchRunAll(rep, quick); err != nil {
		return nil, err
	}
	if err := benchDay(rep); err != nil {
		return nil, err
	}
	d := rep.Day
	rep.expect(d.WelfareAgreement <= 1e-6, "day welfare agreement %g > 1e-6", d.WelfareAgreement)
	rep.expect(d.MaxScheduleDivergence <= 1e-9, "day schedule divergence %g > 1e-9", d.MaxScheduleDivergence)
	rep.expect(d.WarmTotalRounds < d.ColdTotalRounds,
		"warm day took %d rounds, cold %d — chaining saved nothing", d.WarmTotalRounds, d.ColdTotalRounds)
	return rep, nil
}

// benchRunAll times the full figure regeneration three ways. The
// reports themselves go to io.Discard — only the work is timed.
func benchRunAll(rep *sweepReport, quick bool) error {
	cold, err := timeRunAll(experiments.RunAllOptions{Quick: quick})
	if err != nil {
		return fmt.Errorf("cold sequential sweep: %w", err)
	}
	p1, err := timeRunAll(experiments.RunAllOptions{Quick: quick, Parallelism: 1, WarmStart: true})
	if err != nil {
		return fmt.Errorf("warm sweep p1: %w", err)
	}
	pmax, err := timeRunAll(experiments.RunAllOptions{
		Quick: quick, Parallelism: runtime.GOMAXPROCS(0), WarmStart: true,
	})
	if err != nil {
		return fmt.Errorf("warm sweep pmax: %w", err)
	}
	rep.RunAll = runallBench{
		ColdSequentialWallMs: cold,
		SweepP1WallMs:        p1,
		SweepPMaxWallMs:      pmax,
	}
	if pmax > 0 {
		rep.RunAll.Speedup = cold / pmax
	}
	return nil
}

func timeRunAll(opts experiments.RunAllOptions) (float64, error) {
	start := time.Now()
	if err := experiments.RunAllWith(io.Discard, opts); err != nil {
		return 0, err
	}
	return float64(time.Since(start).Microseconds()) / 1000, nil
}

// benchDay runs the coupled day cold and warm with the same engine at
// a tight tolerance, so divergence measures the warm start alone.
func benchDay(rep *sweepReport) error {
	base := coupling.DayConfig{
		Seed:          3,
		Parallelism:   1,
		Tolerance:     1e-11,
		KeepSchedules: true,
	}
	start := time.Now()
	cold, err := coupling.RunDay(base)
	if err != nil {
		return fmt.Errorf("cold day: %w", err)
	}
	coldWall := time.Since(start)

	warmCfg := base
	warmCfg.WarmStart = true
	start = time.Now()
	warm, err := coupling.RunDay(warmCfg)
	if err != nil {
		return fmt.Errorf("warm day: %w", err)
	}
	warmWall := time.Since(start)

	var maxDiff, maxWelfare float64
	for h := range cold.Hours {
		hc, hw := cold.Hours[h], warm.Hours[h]
		if d := math.Abs(hc.Welfare - hw.Welfare); d > maxWelfare {
			maxWelfare = d
		}
		if hc.Schedule == nil || hw.Schedule == nil {
			continue
		}
		for n := 0; n < hc.Schedule.NumOLEVs(); n++ {
			for c := 0; c < hc.Schedule.NumSections(); c++ {
				if d := math.Abs(hc.Schedule.At(n, c) - hw.Schedule.At(n, c)); d > maxDiff {
					maxDiff = d
				}
			}
		}
	}
	rep.Day = dayBench{
		ColdTotalRounds:       cold.TotalRounds,
		WarmTotalRounds:       warm.TotalRounds,
		MaxScheduleDivergence: maxDiff,
		WelfareAgreement:      maxWelfare,
		ColdWallMs:            float64(coldWall.Microseconds()) / 1000,
		WarmWallMs:            float64(warmWall.Microseconds()) / 1000,
	}
	if cold.TotalRounds > 0 {
		rep.Day.RoundReduction = 1 - float64(warm.TotalRounds)/float64(cold.TotalRounds)
	}
	return nil
}
