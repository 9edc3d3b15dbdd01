package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// randomInstance builds a randomized game spanning the fleet/section
// range the issue prescribes (N∈{10..50}, C∈{10..100}) with both
// linear and nonlinear charging costs, mixed satisfaction families,
// and a sprinkling of Eq. (3) draw caps.
//
// The line capacity is sized against aggregate fleet demand rather
// than drawn independently: a deeply overloaded fleet with a linear
// (flat-marginal) charging cost is a nearly degenerate potential whose
// best-response dynamics contract at a rate ~1 — every solver,
// including plain Gauss–Seidel, needs tens of thousands of rounds
// there. That regime is a conditioning property of the game, not a
// solver behavior this suite is probing, so linear instances get
// headroom (penalty lightly active at most) while quadratic instances,
// whose strict convexity restores contraction, run moderately
// congested.
func randomInstance(t *testing.T, rng *rand.Rand, nonlinear bool) Config {
	t.Helper()
	n := 10 + rng.Intn(41)
	c := 10 + rng.Intn(91)
	eta := 0.85 + rng.Float64()*0.1
	beta := 0.01 + rng.Float64()*0.03

	players := make([]Player, n)
	var demand float64
	for i := range players {
		p := Player{
			ID:         fmt.Sprintf("olev-%d", i),
			MaxPowerKW: 40 + rng.Float64()*80,
		}
		if rng.Intn(2) == 0 {
			p.Satisfaction = LogSatisfaction{Weight: 0.5 + rng.Float64()*2.5}
		} else {
			p.Satisfaction = SqrtSatisfaction{Weight: 0.2 + rng.Float64()}
		}
		if rng.Intn(4) == 0 {
			p.MaxSectionDrawKW = 2 + rng.Float64()*6
		}
		players[i] = p
		demand += p.MaxPowerKW
	}

	headroom := 1.4 + rng.Float64()*0.6 // linear: penalty lightly active at most
	if nonlinear {
		headroom = 0.7 + rng.Float64()*0.5 // quadratic: moderately congested
	}
	lineCap := demand * headroom / (float64(c) * eta)

	var charging CostFunction
	if nonlinear {
		v, err := NewQuadraticCharging(beta, 0.875, eta*lineCap)
		if err != nil {
			t.Fatal(err)
		}
		charging = v
	} else {
		charging = LinearCharging{Beta: beta}
	}
	return Config{
		Players:        players,
		NumSections:    c,
		LineCapacityKW: lineCap,
		Eta:            eta,
		Cost: SectionCost{
			Charging: charging,
			Overload: OverloadPenalty{Kappa: 500 * beta, Capacity: eta * lineCap},
		},
	}
}

// TestDifferentialSequentialVsParallel is the heart of the determinism
// contract: RunParallel with one worker (the sequential reference) and
// with four workers must produce the same schedule on every instance.
// The contract promises bit-for-bit identity — proposals are pure
// functions of the frozen round state and commits happen in stable
// player order — so the 1e-9 acceptance bound is enforced as exact
// float equality.
func TestDifferentialSequentialVsParallel(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	const instances = 50
	for trial := 0; trial < instances; trial++ {
		nonlinear := trial%2 == 0
		cfg := randomInstance(t, rng, nonlinear)
		t.Run(fmt.Sprintf("trial%02d_n%d_c%d_nonlinear%v", trial, len(cfg.Players), cfg.NumSections, nonlinear), func(t *testing.T) {
			gSeq, err := NewGame(cfg)
			if err != nil {
				t.Fatal(err)
			}
			gPar, err := NewGame(cfg)
			if err != nil {
				t.Fatal(err)
			}
			opts := ParallelOptions{Tolerance: 1e-9, MaxRounds: 5000}
			opts.Parallelism = 1
			resSeq := gSeq.RunParallel(opts)
			opts.Parallelism = 4
			resPar := gPar.RunParallel(opts)

			if !resSeq.Converged || !resPar.Converged {
				t.Fatalf("convergence: sequential=%v parallel=%v after %d/%d rounds",
					resSeq.Converged, resPar.Converged, resSeq.Rounds, resPar.Rounds)
			}
			if resSeq.Rounds != resPar.Rounds || resSeq.Replayed != resPar.Replayed {
				t.Fatalf("trajectory diverged: rounds %d vs %d, replayed %d vs %d",
					resSeq.Rounds, resPar.Rounds, resSeq.Replayed, resPar.Replayed)
			}
			sSeq, sPar := gSeq.Schedule(), gPar.Schedule()
			for n := 0; n < len(cfg.Players); n++ {
				for c := 0; c < cfg.NumSections; c++ {
					if sSeq.At(n, c) != sPar.At(n, c) {
						t.Fatalf("schedule entry (%d,%d): sequential %v != parallel %v (diff %g)",
							n, c, sSeq.At(n, c), sPar.At(n, c), sSeq.At(n, c)-sPar.At(n, c))
					}
				}
			}
			for i := range resSeq.Welfare {
				if resSeq.Welfare[i] != resPar.Welfare[i] {
					t.Fatalf("welfare trajectory diverged at round %d: %v vs %v",
						i+1, resSeq.Welfare[i], resPar.Welfare[i])
				}
			}
		})
	}
}

// TestDifferentialRandomOrderWorkerIndependence extends the contract
// to OrderRandom: the per-round shuffle is a pure function of Seed, so
// for a fixed seed the shuffled trajectories must stay bit-for-bit
// identical at any worker count — the shuffle trades symmetric-fleet
// conditioning for nothing in reproducibility.
func TestDifferentialRandomOrderWorkerIndependence(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	const instances = 12
	for trial := 0; trial < instances; trial++ {
		nonlinear := trial%2 == 0
		cfg := randomInstance(t, rng, nonlinear)
		t.Run(fmt.Sprintf("trial%02d_n%d_c%d", trial, len(cfg.Players), cfg.NumSections), func(t *testing.T) {
			gSeq, err := NewGame(cfg)
			if err != nil {
				t.Fatal(err)
			}
			gPar, err := NewGame(cfg)
			if err != nil {
				t.Fatal(err)
			}
			opts := ParallelOptions{Tolerance: 1e-9, MaxRounds: 5000, Order: OrderRandom, Seed: 7}
			opts.Parallelism = 1
			resSeq := gSeq.RunParallel(opts)
			opts.Parallelism = 4
			resPar := gPar.RunParallel(opts)

			if !resSeq.Converged || !resPar.Converged {
				t.Fatalf("convergence: sequential=%v parallel=%v after %d/%d rounds",
					resSeq.Converged, resPar.Converged, resSeq.Rounds, resPar.Rounds)
			}
			if resSeq.Rounds != resPar.Rounds || resSeq.Replayed != resPar.Replayed {
				t.Fatalf("trajectory diverged: rounds %d vs %d, replayed %d vs %d",
					resSeq.Rounds, resPar.Rounds, resSeq.Replayed, resPar.Replayed)
			}
			sSeq, sPar := gSeq.Schedule(), gPar.Schedule()
			for n := 0; n < len(cfg.Players); n++ {
				for c := 0; c < cfg.NumSections; c++ {
					if sSeq.At(n, c) != sPar.At(n, c) {
						t.Fatalf("schedule entry (%d,%d): sequential %v != parallel %v",
							n, c, sSeq.At(n, c), sPar.At(n, c))
					}
				}
			}
			for i := range resSeq.Welfare {
				if resSeq.Welfare[i] != resPar.Welfare[i] {
					t.Fatalf("welfare trajectory diverged at round %d", i+1)
				}
			}
		})
	}
}

// TestDifferentialEngineVsAsynchronous cross-checks the round engine
// against the asynchronous Gauss–Seidel reference (Run). The schedule
// matrix is not unique at equilibrium — only player totals (and, for
// strictly convex Z, section totals) are — so the comparison is on
// those marginals. Linear charging has a flat marginal below capacity,
// which makes section totals non-unique too; those instances compare
// player totals and welfare only.
func TestDifferentialEngineVsAsynchronous(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 12; trial++ {
		nonlinear := trial%2 == 0
		cfg := randomInstance(t, rng, nonlinear)
		t.Run(fmt.Sprintf("trial%02d_nonlinear%v", trial, nonlinear), func(t *testing.T) {
			gRef, err := NewGame(cfg)
			if err != nil {
				t.Fatal(err)
			}
			gEng, err := NewGame(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if res := gRef.Run(RunOptions{Tolerance: 1e-10, MaxUpdates: 2000 * len(cfg.Players)}); !res.Converged {
				t.Fatal("asynchronous reference did not converge")
			}
			if res := gEng.RunParallel(ParallelOptions{Tolerance: 1e-10, MaxRounds: 5000, Parallelism: 4}); !res.Converged {
				t.Fatal("round engine did not converge")
			}
			sRef, sEng := gRef.Schedule(), gEng.Schedule()
			for n := 0; n < len(cfg.Players); n++ {
				ref, eng := sRef.OLEVTotal(n), sEng.OLEVTotal(n)
				if d := math.Abs(ref - eng); d > 1e-5*(1+math.Abs(ref)) {
					t.Errorf("player %d total: reference %v vs engine %v", n, ref, eng)
				}
			}
			if nonlinear {
				tRef, tEng := gRef.SectionTotals(), gEng.SectionTotals()
				for c := range tRef {
					if d := math.Abs(tRef[c] - tEng[c]); d > 1e-4*(1+math.Abs(tRef[c])) {
						t.Errorf("section %d total: reference %v vs engine %v", c, tRef[c], tEng[c])
					}
				}
			}
			if d := math.Abs(gRef.Welfare() - gEng.Welfare()); d > 1e-6*(1+math.Abs(gRef.Welfare())) {
				t.Errorf("welfare: reference %v vs engine %v", gRef.Welfare(), gEng.Welfare())
			}
		})
	}
}

// propertyEngines are the shipped engine paths the invariant suite
// runs on: Game.Run (the round engine at BatchSize 1, exact
// Gauss–Seidel) and RunParallel's speculative blocks under the
// welfare guard.
var propertyEngines = []struct {
	name string
	run  func(g *Game) (converged bool, welfare []float64)
}{
	{"run", func(g *Game) (bool, []float64) {
		res := g.Run(RunOptions{Tolerance: 1e-9, MaxUpdates: 5000 * g.NumPlayers()})
		return res.Converged, res.Welfare
	}},
	{"parallel", func(g *Game) (bool, []float64) {
		res := g.RunParallel(ParallelOptions{Tolerance: 1e-9, MaxRounds: 5000, Parallelism: 4})
		return res.Converged, res.Welfare
	}},
}

// solveForProperties runs one engine path on a fresh game from cfg and
// asserts convergence and a nondecreasing welfare trajectory
// (Theorem IV.1, plus the guard on the speculative path).
func solveForProperties(t *testing.T, cfg Config, run func(*Game) (bool, []float64)) *Game {
	t.Helper()
	g, err := NewGame(cfg)
	if err != nil {
		t.Fatal(err)
	}
	converged, welfare := run(g)
	if !converged {
		t.Fatal("did not converge")
	}
	for i := 1; i < len(welfare); i++ {
		slack := welfareGuardRelEps * (1 + math.Abs(welfare[i-1]))
		if welfare[i] < welfare[i-1]-slack {
			t.Fatalf("welfare regressed at update %d: %v -> %v", i+1, welfare[i-1], welfare[i])
		}
	}
	return g
}

// TestPropertyEquilibrium checks the paper's equilibrium structure on
// randomized instances after a solve on every engine path:
//
//   - welfare is nondecreasing update over update (Theorem IV.1 plus
//     the engine's guard),
//   - water-filling KKT flatness: each player's active, uncapped
//     sections sit at a common level P_−n,c + p̂_n,c = λ_n, inactive
//     sections have background ≥ λ_n, capped sections sit below it,
//   - payments ξ_n are nonnegative (Z is nondecreasing, Eq. (8)).
func TestPropertyEquilibrium(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 10; trial++ {
		nonlinear := trial%2 == 0
		cfg := randomInstance(t, rng, nonlinear)
		t.Run(fmt.Sprintf("trial%02d_nonlinear%v", trial, nonlinear), func(t *testing.T) {
			for _, eng := range propertyEngines {
				t.Run(eng.name, func(t *testing.T) {
					g := solveForProperties(t, cfg, eng.run)
					checkKKTFlatness(t, g.Schedule(), func(n int) float64 {
						return cfg.Players[n].MaxSectionDrawKW
					})
					for n := 0; n < len(cfg.Players); n++ {
						if xi := g.PaymentOf(n); xi < -1e-9 {
							t.Fatalf("player %d payment negative: %v", n, xi)
						}
					}
				})
			}
		})
	}
}

// checkKKTFlatness asserts Lemma IV.1's water-filling structure on
// every row of s: a player's active sections below its draw cap share
// one level P_−n,c + p̂_n,c = λ_n, inactive sections have background at
// or above it, and capped sections sit at or below it.
func checkKKTFlatness(t *testing.T, s *Schedule, drawCapOf func(n int) float64) {
	t.Helper()
	totals := s.SectionTotals()
	const active = 1e-7
	for n := 0; n < s.NumOLEVs(); n++ {
		drawCap := drawCapOf(n)
		level, haveLevel := 0.0, false
		// Uncapped active sections must share one water level.
		for c := 0; c < s.NumSections(); c++ {
			a := s.At(n, c)
			if a <= active || (drawCap > 0 && a >= drawCap-active) {
				continue
			}
			l := totals[c] // P_−n,c + p̂_n,c
			if !haveLevel {
				level, haveLevel = l, true
				continue
			}
			if d := math.Abs(l - level); d > 1e-5*(1+math.Abs(level)) {
				t.Fatalf("player %d: active sections not flat: %v vs %v", n, l, level)
			}
		}
		if !haveLevel {
			continue
		}
		for c := 0; c < s.NumSections(); c++ {
			a := s.At(n, c)
			background := totals[c] - a
			switch {
			case a <= active:
				// Inactive: background already at or above the level.
				if background < level-1e-4*(1+math.Abs(level)) {
					t.Fatalf("player %d section %d: inactive but background %v below level %v",
						n, c, background, level)
				}
			case drawCap > 0 && a >= drawCap-active:
				// Capped: would pour more if allowed.
				if totals[c] > level+1e-4*(1+math.Abs(level)) {
					t.Fatalf("player %d section %d: capped yet above level (%v > %v)",
						n, c, totals[c], level)
				}
			}
		}
	}
}

// TestPropertyBudgetFeasibility: under the Eq. (6) overload penalty the
// equilibrium respects the soft budget P_c ≤ ηP_line up to the
// KKT-implied slack, on every engine path. A player active on section
// c has Z'(P_c) ≤ U'_n(p_n) ≤ U'_n(0), and the penalty marginal is
// κ·(P_c − cap)/cap, so the overshoot is at most maxU'(0)·cap/κ.
func TestPropertyBudgetFeasibility(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 6; trial++ {
		n := 15 + rng.Intn(30)
		c := 10 + rng.Intn(30)
		lineCap := 20 + rng.Float64()*20
		eta := 0.9
		beta := 0.02
		kappa := 500 * beta
		capacity := eta * lineCap
		players := make([]Player, n)
		maxMarg := 0.0
		for i := range players {
			w := 0.5 + rng.Float64()*2.5
			players[i] = Player{
				ID:           fmt.Sprintf("olev-%d", i),
				MaxPowerKW:   60 + rng.Float64()*60,
				Satisfaction: LogSatisfaction{Weight: w},
			}
			maxMarg = math.Max(maxMarg, players[i].Satisfaction.Marginal(0))
		}
		v, err := NewQuadraticCharging(beta, 0.875, capacity)
		if err != nil {
			t.Fatal(err)
		}
		cfg := Config{
			Players: players, NumSections: c, LineCapacityKW: lineCap, Eta: eta,
			Cost: SectionCost{
				Charging: v,
				Overload: OverloadPenalty{Kappa: kappa, Capacity: capacity},
			},
		}
		bound := capacity + maxMarg*capacity/kappa + 1e-6
		for _, eng := range propertyEngines {
			g := solveForProperties(t, cfg, eng.run)
			for sec, total := range g.SectionTotals() {
				if total > bound {
					t.Fatalf("%s trial %d section %d: load %v exceeds budget bound %v (cap %v)",
						eng.name, trial, sec, total, bound, capacity)
				}
			}
		}
	}
}
