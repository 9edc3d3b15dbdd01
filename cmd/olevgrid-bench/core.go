package main

// The core gate measures the equilibrium hot path of the Section IV
// game on the acceptance workload (N=50 OLEVs, C=100 sections):
// convergence cost and steady-state ns/turn + allocs/turn for Game.Run
// (the round engine at batch size 1), the round engine at one worker,
// and the round engine at GOMAXPROCS workers, plus the resulting
// steady-state speedup.
//
// It also measures what arming the obs metrics bundle costs the same
// hot path (interleaved best-of-k bare-vs-armed trials on one host)
// and checks that the overhead stays within 3% — the observability
// layer's "free" gate. -metrics-out dumps the registry populated
// during the armed trials as JSON.
//
//	olevgrid-bench core [-n 50] [-c 100] [-rounds 50] [-trials 5] [-o BENCH_core.json] [-check] [-metrics-out METRICS_bench.json]
//
// Speedup is only meaningful on multi-core hosts; the header's num_cpu
// makes a 1-core reading self-describing.

import (
	"flag"
	"fmt"
	"runtime"
	"time"

	"olevgrid/internal/core"
	"olevgrid/internal/obs"
)

// asyncBench is the end-to-end Game.Run measurement (exact
// Gauss–Seidel, one update per block) kept alongside the engine's
// steady-state numbers for reference.
type asyncBench struct {
	Updates   int     `json:"updates"`
	Converged bool    `json:"converged"`
	Welfare   float64 `json:"welfare"`
	WallMs    float64 `json:"wall_ms"`
}

type coreReport struct {
	Header
	// Workload identification.
	N int `json:"n"`
	C int `json:"c"`

	// Solvers. engine_p1 is the sequential baseline the determinism
	// contract pins; engine_pmax is the same engine at GOMAXPROCS.
	Async      asyncBench            `json:"run_async"`
	EngineP1   core.SteadyStateBench `json:"engine_p1"`
	EnginePMax core.SteadyStateBench `json:"engine_pmax"`

	// SteadySpeedup is engine_p1 ns/turn over engine_pmax ns/turn.
	SteadySpeedup float64 `json:"steady_speedup"`
	// WelfareAgreement is |W_p1 − W_pmax|, which the determinism
	// contract requires to be exactly zero.
	WelfareAgreement float64 `json:"welfare_agreement"`

	// MetricsOverhead is the armed-vs-bare steady-state cost of the
	// obs bundle; the verdict bounds Overhead at 3%.
	MetricsOverhead core.MetricsOverheadBench `json:"metrics_overhead"`
	Verdict
}

// overheadGate is the ceiling on MetricsOverhead.Overhead.
const overheadGate = 0.03

func coreGate(fs *flag.FlagSet) func() (report, error) {
	n := fs.Int("n", 50, "number of OLEVs")
	c := fs.Int("c", 100, "number of charging sections")
	rounds := fs.Int("rounds", 50, "steady-state rounds to time per engine")
	trials := fs.Int("trials", 5, "best-of trials for the metrics-overhead probe")
	metricsOut := fs.String("metrics-out", "", "dump the armed obs registry as JSON to this path (- for stdout, empty disables)")
	return func() (report, error) { return runCore(*n, *c, *rounds, *trials, *metricsOut) }
}

func runCore(n, c, rounds, trials int, metricsOut string) (*coreReport, error) {
	rep := &coreReport{N: n, C: c}

	// Game.Run — the asynchronous dynamics — timed end to end.
	g, err := newCoreGame(n, c)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	res := g.Run(core.RunOptions{MaxUpdates: 2000 * n})
	wall := time.Since(start)
	rep.Async = asyncBench{
		Updates:   res.Updates,
		Converged: res.Converged,
		Welfare:   g.Welfare(),
		WallMs:    float64(wall.Microseconds()) / 1000,
	}

	// Round engine, sequential then full-width; fresh game each so the
	// convergence phase is comparable.
	if g, err = newCoreGame(n, c); err != nil {
		return nil, err
	}
	rep.EngineP1 = core.BenchSteadyState(g, 1, 0, rounds, 0)
	if g, err = newCoreGame(n, c); err != nil {
		return nil, err
	}
	rep.EnginePMax = core.BenchSteadyState(g, runtime.GOMAXPROCS(0), 0, rounds, 0)

	if rep.EnginePMax.NsPerTurn > 0 {
		rep.SteadySpeedup = rep.EngineP1.NsPerTurn / rep.EnginePMax.NsPerTurn
	}
	diff := rep.EngineP1.Welfare - rep.EnginePMax.Welfare
	if diff < 0 {
		diff = -diff
	}
	rep.WelfareAgreement = diff

	// The "free" probe: same engine, same rounds, bundle nil vs armed.
	if g, err = newCoreGame(n, c); err != nil {
		return nil, err
	}
	reg := obs.NewRegistry()
	sink := obs.NewEventSink(4096)
	rep.MetricsOverhead = core.BenchMetricsOverhead(g, 1, rounds, trials, core.NewMetrics(reg, sink))
	if err := dumpMetrics(metricsOut, reg, sink); err != nil {
		return nil, err
	}

	rep.expect(rep.MetricsOverhead.Overhead <= overheadGate, "metrics_overhead %+.2f%% > %.0f%%",
		rep.MetricsOverhead.Overhead*100, overheadGate*100)
	return rep, nil
}

// newCoreGame builds the acceptance workload: a heterogeneous fleet
// over the paper's quadratic charging cost with the overload penalty
// armed, mirroring the core test-suite configuration at benchmark
// scale.
func newCoreGame(n, c int) (*core.Game, error) {
	const lineCap, eta = 50.0, 0.9
	players := make([]core.Player, n)
	for i := range players {
		players[i] = core.Player{
			ID:           fmt.Sprintf("olev-%02d", i),
			MaxPowerKW:   60 + float64(i%5)*8,
			Satisfaction: core.LogSatisfaction{Weight: 1 + 0.1*float64(i%3)},
		}
	}
	charging, err := core.NewQuadraticCharging(0.02, 0.875, eta*lineCap)
	if err != nil {
		return nil, err
	}
	return core.NewGame(core.Config{
		Players:        players,
		NumSections:    c,
		LineCapacityKW: lineCap,
		Eta:            eta,
		Cost: core.SectionCost{
			Charging: charging,
			Overload: core.OverloadPenalty{Kappa: 10, Capacity: eta * lineCap},
		},
	})
}
