// Command bench-core measures the equilibrium hot path of the Section
// IV game on the acceptance workload (N=50 OLEVs, C=100 sections) and
// emits machine-readable BENCH_core.json: convergence cost and
// steady-state ns/turn + allocs/turn for Game.Run (the round engine
// at batch size 1), the round engine at one worker, and the round
// engine at GOMAXPROCS workers, plus the resulting steady-state
// speedup.
//
// It also measures what arming the obs metrics bundle costs the same
// hot path (interleaved best-of-k bare-vs-armed trials on one host);
// with -check it exits non-zero unless that overhead stays within 3%
// — the observability layer's "free" gate CI enforces. -metrics-out
// dumps the registry populated during the armed trials as JSON.
//
// Usage:
//
//	bench-core [-n 50] [-c 100] [-o BENCH_core.json] [-rounds 50] [-trials 5] [-check] [-metrics-out METRICS_bench.json]
//
// CI runs this and uploads the JSON as a build artifact; see DESIGN.md
// for how to read it. Speedup is only meaningful on multi-core hosts —
// the JSON records num_cpu so a 1-core reading is self-describing.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
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

type benchFile struct {
	// Workload identification.
	N          int    `json:"n"`
	C          int    `json:"c"`
	GoVersion  string `json:"go_version"`
	NumCPU     int    `json:"num_cpu"`
	GoMaxProcs int    `json:"go_max_procs"`

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
	// obs bundle; -check gates Overhead at ≤ 3%.
	MetricsOverhead core.MetricsOverheadBench `json:"metrics_overhead"`
}

// overheadGate is the -check ceiling on MetricsOverhead.Overhead.
const overheadGate = 0.03

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "bench-core:", err)
		os.Exit(1)
	}
}

func run() error {
	n := flag.Int("n", 50, "number of OLEVs")
	c := flag.Int("c", 100, "number of charging sections")
	out := flag.String("o", "BENCH_core.json", "output path (- for stdout)")
	rounds := flag.Int("rounds", 50, "steady-state rounds to time per engine")
	trials := flag.Int("trials", 5, "best-of trials for the metrics-overhead probe")
	check := flag.Bool("check", false, "exit non-zero unless metrics overhead stays within 3%")
	metricsOut := flag.String("metrics-out", "", "dump the armed obs registry as JSON to this path (empty disables)")
	flag.Parse()

	file := benchFile{
		N:          *n,
		C:          *c,
		GoVersion:  runtime.Version(),
		NumCPU:     runtime.NumCPU(),
		GoMaxProcs: runtime.GOMAXPROCS(0),
	}

	// Game.Run — the asynchronous dynamics — timed end to end.
	g, err := newGame(*n, *c)
	if err != nil {
		return err
	}
	start := time.Now()
	res := g.Run(core.RunOptions{MaxUpdates: 2000 * *n})
	wall := time.Since(start)
	file.Async = asyncBench{
		Updates:   res.Updates,
		Converged: res.Converged,
		Welfare:   g.Welfare(),
		WallMs:    float64(wall.Microseconds()) / 1000,
	}

	// Round engine, sequential then full-width; fresh game each so the
	// convergence phase is comparable.
	if g, err = newGame(*n, *c); err != nil {
		return err
	}
	file.EngineP1 = core.BenchSteadyState(g, 1, 0, *rounds, 0)
	if g, err = newGame(*n, *c); err != nil {
		return err
	}
	file.EnginePMax = core.BenchSteadyState(g, runtime.GOMAXPROCS(0), 0, *rounds, 0)

	if file.EnginePMax.NsPerTurn > 0 {
		file.SteadySpeedup = file.EngineP1.NsPerTurn / file.EnginePMax.NsPerTurn
	}
	diff := file.EngineP1.Welfare - file.EnginePMax.Welfare
	if diff < 0 {
		diff = -diff
	}
	file.WelfareAgreement = diff

	// The "free" probe: same engine, same rounds, bundle nil vs armed.
	if g, err = newGame(*n, *c); err != nil {
		return err
	}
	reg := obs.NewRegistry()
	sink := obs.NewEventSink(4096)
	file.MetricsOverhead = core.BenchMetricsOverhead(g, 1, *rounds, *trials, core.NewMetrics(reg, sink))

	if *metricsOut != "" {
		mf, err := os.Create(*metricsOut)
		if err != nil {
			return err
		}
		if err := obs.WriteJSON(mf, reg, sink); err != nil {
			_ = mf.Close()
			return err
		}
		if err := mf.Close(); err != nil {
			return err
		}
	}

	blob, err := json.MarshalIndent(file, "", "  ")
	if err != nil {
		return err
	}
	blob = append(blob, '\n')
	gate := func() error {
		if *check && file.MetricsOverhead.Overhead > overheadGate {
			return fmt.Errorf("metrics-overhead gate failed: %+.2f%% > %.0f%%",
				file.MetricsOverhead.Overhead*100, overheadGate*100)
		}
		return nil
	}
	if *out == "-" {
		if _, err = os.Stdout.Write(blob); err != nil {
			return err
		}
		return gate()
	}
	if err := os.WriteFile(*out, blob, 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s: engine p1 %.0f ns/turn, p%d %.0f ns/turn (%.2fx), allocs/turn %.3f\n",
		*out, file.EngineP1.NsPerTurn, file.EnginePMax.Parallelism,
		file.EnginePMax.NsPerTurn, file.SteadySpeedup, file.EnginePMax.AllocsPerTurn)
	fmt.Printf("  metrics overhead: bare %.0f ns/turn, armed %.0f ns/turn (%+.2f%%, gate %.0f%%)\n",
		file.MetricsOverhead.BareNsPerTurn, file.MetricsOverhead.ArmedNsPerTurn,
		file.MetricsOverhead.Overhead*100, overheadGate*100)
	return gate()
}

// newGame builds the acceptance workload: a heterogeneous fleet over
// the paper's quadratic charging cost with the overload penalty armed,
// mirroring the core test-suite configuration at benchmark scale.
func newGame(n, c int) (*core.Game, error) {
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
