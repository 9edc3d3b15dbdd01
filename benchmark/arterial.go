package main

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"runtime/debug"
	"sync"
	"time"

	"olevgrid/internal/core"
	"olevgrid/internal/sched"
	"olevgrid/internal/v2i"
)

// The arterial game: the 1000-vehicle, 20-section binary-wire game of
// cmd/bench-wire, solved by one sequential coordinator (Parallelism 1,
// the Theorem IV.1 setting).
const (
	arterialVehicles   = 1000
	arterialSections   = 20
	arterialLineKW     = 53.55
	arterialMaxPowerKW = 60
	arterialTolerance  = 1e-3
	arterialMaxRounds  = 300
	// arterialWelfareRel bounds |Σ Z(P_c) − reference| / reference for
	// every solve against core.Game.RunParallel's equilibrium of the same
	// game. The coordinator stops at a 1e-3 kW movement tolerance and the
	// reference at 1e-6, so the two differ by the last rounds' movement:
	// up to ~1.5e-5 relative over the seeds tried.
	arterialWelfareRel = 5e-5
	// arterialAttributionTol bounds the solve time the link spans leave
	// unattributed: Run's prologue and report assembly.
	arterialAttributionTol = 0.01
)

func arterialCost() v2i.CostSpec {
	return v2i.CostSpec{
		Kind: "nonlinear", BetaPerKWh: 0.02, Alpha: 0.875,
		LineCapacityKW: arterialLineKW, OverloadKappaPerKWh: 10, OverloadCapacityKW: 0.9 * arterialLineKW,
	}
}

func arterialWeight(i int) float64 { return 1 + 0.06*float64(i%5) }

func arterialID(i int) string { return fmt.Sprintf("ev-%04d", i) }

// arterialFleet is one solve's fleet: an agent goroutine per vehicle
// over a binary pipe pair, and the coordinator holding the grid ends.
type arterialFleet struct {
	coord  *sched.Coordinator
	raw    []v2i.Transport // untraced ends, for byte counts
	cancel context.CancelFunc
	wg     sync.WaitGroup
}

// newArterialFleet builds a fresh fleet of n vehicles over c sections.
// A non-nil tr wraps every link in the span decorator.
func newArterialFleet(n, c int, seed int64, tr *linkTrace) (*arterialFleet, error) {
	ctx, cancel := context.WithCancel(context.Background())
	f := &arterialFleet{cancel: cancel, raw: make([]v2i.Transport, 0, 2*n)}
	links := make(map[string]v2i.Transport, n)
	for i := 0; i < n; i++ {
		id := arterialID(i)
		gridSide, vehSide := v2i.NewPipePair(v2i.WireBinary)
		f.raw = append(f.raw, gridSide, vehSide)
		if tr != nil {
			gridSide, vehSide = tr.wrap(gridSide, vehSide)
		}
		links[id] = gridSide
		agent, err := sched.NewAgent(sched.AgentConfig{
			VehicleID:    id,
			MaxPowerKW:   arterialMaxPowerKW,
			Satisfaction: core.LogSatisfaction{Weight: arterialWeight(i)},
		}, vehSide)
		if err != nil {
			f.stop()
			return nil, err
		}
		f.wg.Add(1)
		go func() {
			defer f.wg.Done()
			_, _ = agent.Run(ctx)
			_ = vehSide.Close()
		}()
	}
	coord, err := sched.NewCoordinator(sched.CoordinatorConfig{
		NumSections:    c,
		LineCapacityKW: arterialLineKW,
		Cost:           arterialCost(),
		Tolerance:      arterialTolerance,
		MaxRounds:      arterialMaxRounds,
		// In-process pipes: a timeout would only inject retries.
		RoundTimeout:  30 * time.Second,
		Parallelism:   1,
		ShutdownGrace: 200 * time.Millisecond,
		Seed:          seed,
	}, links)
	if err != nil {
		f.stop()
		return nil, err
	}
	f.coord = coord
	return f, nil
}

// stop closes the session and waits for every agent goroutine.
func (f *arterialFleet) stop() {
	if f.coord != nil {
		_ = f.coord.Close()
	}
	f.cancel()
	for _, l := range f.raw {
		_ = l.Close()
	}
	f.wg.Wait()
}

func (f *arterialFleet) bytesSent() int64 {
	var b int64
	for _, l := range f.raw {
		b += bytesSent(l)
	}
	return b
}

// arterialReference solves the same game on the core round engine to a
// tight tolerance and returns its Σ Z(P_c).
func arterialReference(n, c int) (float64, error) {
	cost, err := sched.BuildCost(arterialCost())
	if err != nil {
		return 0, err
	}
	players := make([]core.Player, n)
	for i := range players {
		players[i] = core.Player{ID: arterialID(i), MaxPowerKW: arterialMaxPowerKW,
			Satisfaction: core.LogSatisfaction{Weight: arterialWeight(i)}}
	}
	game, err := core.NewGame(core.Config{Players: players, NumSections: c,
		LineCapacityKW: arterialLineKW, Eta: 0.9, Cost: cost})
	if err != nil {
		return 0, err
	}
	res := game.RunParallel(core.ParallelOptions{Tolerance: 1e-6, Order: core.OrderRandom, MaxRounds: 1000})
	if !res.Converged {
		return 0, fmt.Errorf("reference equilibrium did not converge in %d rounds", res.Rounds)
	}
	var z float64
	for _, p := range game.SectionTotals() {
		z += cost.Cost(p)
	}
	return z, nil
}

// arterialSolve is what one solve measured.
type arterialSolve struct {
	report sched.Report
	setupS float64
	wallMS float64
	turns  float64
	traced bool
	lt     *linkTrace
	bytes  float64
	gcs    float64
	allocB float64
}

// runArterial is the arterial-1000 workload: closed loop, one solve at a
// time, each on a fresh fleet with its own visit-order seed. A traced run
// alternates untraced and traced solves, each traced one repeating the
// seed of the untraced one before it, so the pair differs only by tracing.
func runArterial(o opts) (*result, error) {
	rng := newRand(o.seed)
	var solves []arterialSolve
	var seed int64
	alloc0 := heapAllocMB()
	deadline := time.Now().Add(o.seconds)
	for i := 0; i < 2 || time.Now().Before(deadline); i++ {
		traced := o.trace && i%2 == 1
		if !traced {
			seed = rng.Int63()
		}
		s, err := solveArterial(seed, traced)
		if err != nil {
			return nil, err
		}
		solves = append(solves, s)
	}
	allocMB := heapAllocMB() - alloc0
	ref, err := arterialReference(arterialVehicles, arterialSections)
	if err != nil {
		return nil, err
	}

	r := newResult()
	var setup, walls []float64
	var turns, wallS float64
	n := 0 // traced solves
	var tr struct{ span, coord, grid, agent, frames, bytes, turns, gcs, allocB float64 }
	for _, s := range solves {
		rel := math.Abs(s.report.WelfareCost-ref) / ref
		r.check(s.report.Converged && rel <= arterialWelfareRel,
			"arterial solve: converged=%v rounds=%d, Σ Z(P_c) %.9g vs reference %.9g (%.2g relative, bound %g)",
			s.report.Converged, s.report.Rounds, s.report.WelfareCost, ref, rel, arterialWelfareRel)
		setup = append(setup, s.setupS)
		if !s.traced {
			walls = append(walls, s.wallMS)
			turns += s.turns
			wallS += s.wallMS / 1e3
			continue
		}
		n++
		tr.span += s.wallMS * 1e6
		tr.coord += float64(s.lt.coordNS.Load())
		tr.grid += float64(s.lt.gridCallNS.Load())
		tr.agent += float64(s.lt.agentNS.Load())
		tr.frames += float64(s.lt.frames.Load())
		tr.bytes += s.bytes
		tr.turns += s.turns
		tr.gcs += s.gcs
		tr.allocB += s.allocB
	}
	r.set("setup_s", median(setup), len(setup))
	r.set("latency_ms.p50", median(walls), len(walls))
	r.set("throughput_per_s", turns/wallS, len(walls))
	r.set("alloc_mb_per_op", allocMB/float64(len(solves)), len(solves))
	if o.trace {
		// Each traced solve against its untraced twin, earlier in walls.
		r.set("trace.overhead_frac", tr.span/1e6/sum(walls[:n])-1, n)
		r.set("sched.coord_us_per_turn", tr.coord/1e3/tr.turns, n)
		r.set("sched.agent_us_per_turn", tr.agent/1e3/tr.turns, n)
		r.set("v2i.wire_us_per_turn", (tr.grid-tr.agent)/1e3/tr.turns, n)
		r.set("v2i.frames_per_turn", tr.frames/tr.turns, n)
		r.set("v2i.bytes_per_turn", tr.bytes/tr.turns, n)
		r.set("gc.cycles_per_solve", tr.gcs/float64(n), n)
		r.set("mem.alloc_bytes_per_turn", tr.allocB/tr.turns, n)
		a := attribution{total: tr.span}
		a.add("sched.coord", tr.coord)
		a.add("sched.agent", tr.agent)
		a.add("v2i.wire", tr.grid-tr.agent)
		r.setAttribution(a, arterialAttributionTol, n)
	}
	return r, nil
}

// solveArterial builds a fresh fleet, runs one solve and tears it down.
func solveArterial(seed int64, traced bool) (arterialSolve, error) {
	s := arterialSolve{traced: traced}
	if traced {
		s.lt = &linkTrace{}
	}
	// Every solve starts from the same heap, returned to the OS, so peak
	// RSS is one fleet's and does not creep with the number of solves.
	debug.FreeOSMemory()
	t0 := nowNS()
	f, err := newArterialFleet(arterialVehicles, arterialSections, seed, s.lt)
	if err != nil {
		return s, err
	}
	t1 := nowNS()
	var ms0, ms1 runtime.MemStats
	if traced {
		runtime.ReadMemStats(&ms0)
	}
	s0 := nowNS()
	report, err := f.coord.Run(context.Background())
	s1 := nowNS()
	if traced {
		runtime.ReadMemStats(&ms1)
		s.bytes = float64(f.bytesSent())
		s.gcs = float64(ms1.NumGC - ms0.NumGC)
		s.allocB = float64(ms1.TotalAlloc - ms0.TotalAlloc)
	}
	f.stop()
	if err != nil {
		return s, fmt.Errorf("arterial solve: %w", err)
	}
	s.report = report
	s.setupS = float64(t1-t0) / 1e9
	s.wallMS = float64(s1-s0) / 1e6
	s.turns = float64(report.Rounds * arterialVehicles)
	return s, nil
}
