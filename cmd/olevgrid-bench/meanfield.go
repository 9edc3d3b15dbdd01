package main

// The meanfield gate measures the aggregated solver tier
// (internal/meanfield) in two sections:
//
//   - accuracy: on fleet sizes the exact engine can still afford, the
//     tier's disaggregated welfare against the exact equilibrium — the
//     same differential the test suite gates, here on the benchmark
//     workload;
//   - scaling: wall clock and ns/turn (wall / (rounds × N)) as the
//     fleet grows to 10^6 OLEVs with the schedule streamed
//     (SkipSchedule), the regime the exact engine cannot reach.
//
// Its checks: every accuracy point within the 2% welfare envelope
// (and never better than the exact optimum beyond float tolerance),
// and ns/turn at N=10^6 within 10× of N=10^4 — the
// sub-linear-per-player scaling claim.
//
//	olevgrid-bench meanfield [-c 12] [-quick] [-o BENCH_meanfield.json] [-check]

import (
	"flag"
	"fmt"
	"math"
	"time"

	"olevgrid/internal/core"
	"olevgrid/internal/meanfield"
)

// The meanfield checks' bounds.
const (
	welfareGate = 0.02 // accuracy: |gap| ceiling as a fraction of exact welfare
	beatGate    = 1e-4 // accuracy: how far the tier may "beat" the oracle (solver tolerance slack)
	scalingGate = 10.0 // scaling: ns/turn(maxN) over ns/turn(minN) ceiling
)

type accuracyPoint struct {
	N              int     `json:"n"`
	ExactWelfare   float64 `json:"exact_welfare"`
	MFWelfare      float64 `json:"mf_welfare"`
	GapFrac        float64 `json:"gap_frac"` // (exact − mf) / |exact|
	Clusters       int     `json:"clusters"`
	ExactRounds    int     `json:"exact_rounds"`
	MFRounds       int     `json:"mf_rounds"`
	ExactConverged bool    `json:"exact_converged"`
	MFConverged    bool    `json:"mf_converged"`
	ExactWallMs    float64 `json:"exact_wall_ms"`
	MFWallMs       float64 `json:"mf_wall_ms"`
}

type scalingPoint struct {
	N                int     `json:"n"`
	Clusters         int     `json:"clusters"`
	Rounds           int     `json:"rounds"`
	Converged        bool    `json:"converged"`
	WallMs           float64 `json:"wall_ms"`
	NsPerTurn        float64 `json:"ns_per_turn"` // wall / (rounds × N)
	CongestionDegree float64 `json:"congestion_degree"`
	Welfare          float64 `json:"welfare"`
}

type meanfieldReport struct {
	Header
	C int `json:"c"`

	Accuracy []accuracyPoint `json:"accuracy"`
	Scaling  []scalingPoint  `json:"scaling"`
	// ScalingRatio is ns/turn at the largest N over the smallest —
	// flat-ish (≤ the gate) means per-player cost is not growing with
	// the fleet.
	ScalingRatio float64 `json:"scaling_ratio"`
	Verdict
}

func meanfieldGate(fs *flag.FlagSet) func() (report, error) {
	c := fs.Int("c", 12, "number of charging sections")
	quick := fs.Bool("quick", false, "cap the scaling sweep at 10^5 OLEVs (local smoke runs)")
	return func() (report, error) { return runMeanfield(*c, *quick) }
}

func runMeanfield(c int, quick bool) (*meanfieldReport, error) {
	rep := &meanfieldReport{C: c}
	for _, n := range []int{50, 200, 500} {
		pt, err := accuracyRun(n, c)
		if err != nil {
			return nil, err
		}
		rep.Accuracy = append(rep.Accuracy, pt)
	}

	sizes := []int{10_000, 100_000, 1_000_000}
	if quick {
		sizes = sizes[:2]
	}
	for _, n := range sizes {
		pt, err := scalingRun(n, c)
		if err != nil {
			return nil, err
		}
		rep.Scaling = append(rep.Scaling, pt)
	}
	first, last := rep.Scaling[0], rep.Scaling[len(rep.Scaling)-1]
	if first.NsPerTurn > 0 {
		rep.ScalingRatio = last.NsPerTurn / first.NsPerTurn
	}

	for _, pt := range rep.Accuracy {
		rep.expect(pt.ExactConverged && pt.MFConverged, "accuracy n=%d: convergence exact=%v mf=%v, want both",
			pt.N, pt.ExactConverged, pt.MFConverged)
		rep.expect(pt.GapFrac <= welfareGate, "accuracy n=%d: welfare gap %.4f%% > %.0f%%",
			pt.N, pt.GapFrac*100, welfareGate*100)
		rep.expect(pt.GapFrac >= -beatGate, "accuracy n=%d: tier beats the exact oracle by %.6f%% > %.2f%% — oracle under-converged",
			pt.N, -pt.GapFrac*100, beatGate*100)
	}
	for _, pt := range rep.Scaling {
		rep.expect(pt.Converged, "scaling n=%d: not converged in %d rounds", pt.N, pt.Rounds)
	}
	rep.expect(rep.ScalingRatio <= scalingGate, "scaling: ns/turn grew %.1fx from n=%d to n=%d > %.0fx",
		rep.ScalingRatio, first.N, last.N, scalingGate)
	return rep, nil
}

// mfFleet builds the benchmark's heterogeneous fleet with
// deterministic arithmetic (no RNG, so two runs of the binary bench
// the same game): five satisfaction-weight tiers, a square-root family
// every fourth vehicle, staggered power ceilings, and per-section draw
// caps on every fifth.
func mfFleet(n int) []core.Player {
	players := make([]core.Player, n)
	for i := range players {
		w := 4 + float64(i%5)
		var sat core.Satisfaction = core.LogSatisfaction{Weight: 2 * w}
		if i%4 == 3 {
			sat = core.SqrtSatisfaction{Weight: w}
		}
		p := core.Player{
			ID:           fmt.Sprintf("olev-%06d", i),
			MaxPowerKW:   40 + float64((i*13)%61),
			Satisfaction: sat,
		}
		if i%5 == 2 {
			p.MaxSectionDrawKW = 6 + float64(i%7)
		}
		players[i] = p
	}
	return players
}

// mfInstance sizes the shared infrastructure to the fleet: the usable
// capacity ηCP_line tracks N so every size runs at the same moderate
// congestion instead of degenerating into a pure capacity grab.
func mfInstance(n, c int) ([]core.Player, float64, float64, core.CostFunction, error) {
	const eta = 0.9
	players := mfFleet(n)
	lineCap := 10 * float64(n) / (float64(c) * eta * 0.8)
	charging, err := core.NewQuadraticCharging(0.02, 0.875, lineCap)
	if err != nil {
		return nil, 0, 0, nil, err
	}
	cost := core.SectionCost{
		Charging: charging,
		Overload: core.OverloadPenalty{Kappa: 10, Capacity: eta * lineCap},
	}
	return players, lineCap, eta, cost, nil
}

func accuracyRun(n, c int) (accuracyPoint, error) {
	players, lineCap, eta, cost, err := mfInstance(n, c)
	if err != nil {
		return accuracyPoint{}, err
	}
	g, err := core.NewGame(core.Config{
		Players: players, NumSections: c,
		LineCapacityKW: lineCap, Eta: eta, Cost: cost,
	})
	if err != nil {
		return accuracyPoint{}, err
	}
	// The oracle settings of the differential suite: a generous round
	// budget and randomized visit order so near-identical players
	// crowding the same sections still contract.
	start := time.Now()
	eres := g.RunParallel(core.ParallelOptions{
		MaxRounds: 20_000,
		Tolerance: 1e-5,
		Order:     core.OrderRandom,
		Seed:      99,
	})
	exactWall := time.Since(start)
	exactWelfare := g.Welfare()

	start = time.Now()
	mf, err := meanfield.Solve(meanfield.Config{
		Players: players, NumSections: c,
		LineCapacityKW: lineCap, Eta: eta, Cost: cost,
		Order: core.OrderRandom, Seed: 1,
	})
	mfWall := time.Since(start)
	if err != nil {
		return accuracyPoint{}, err
	}
	return accuracyPoint{
		N:              n,
		ExactWelfare:   exactWelfare,
		MFWelfare:      mf.Welfare,
		GapFrac:        (exactWelfare - mf.Welfare) / math.Abs(exactWelfare),
		Clusters:       mf.Clusters,
		ExactRounds:    eres.Rounds,
		MFRounds:       mf.Rounds,
		ExactConverged: eres.Converged,
		MFConverged:    mf.Converged,
		ExactWallMs:    float64(exactWall.Microseconds()) / 1000,
		MFWallMs:       float64(mfWall.Microseconds()) / 1000,
	}, nil
}

func scalingRun(n, c int) (scalingPoint, error) {
	players, lineCap, eta, cost, err := mfInstance(n, c)
	if err != nil {
		return scalingPoint{}, err
	}
	start := time.Now()
	mf, err := meanfield.Solve(meanfield.Config{
		Players: players, NumSections: c,
		LineCapacityKW: lineCap, Eta: eta, Cost: cost,
		Order: core.OrderRandom, Seed: 1,
		SkipSchedule: true,
	})
	wall := time.Since(start)
	if err != nil {
		return scalingPoint{}, err
	}
	pt := scalingPoint{
		N:                n,
		Clusters:         mf.Clusters,
		Rounds:           mf.Rounds,
		Converged:        mf.Converged,
		WallMs:           float64(wall.Microseconds()) / 1000,
		CongestionDegree: mf.CongestionDegree,
		Welfare:          mf.Welfare,
	}
	if mf.Rounds > 0 {
		pt.NsPerTurn = float64(wall.Nanoseconds()) / (float64(mf.Rounds) * float64(n))
	}
	return pt, nil
}
