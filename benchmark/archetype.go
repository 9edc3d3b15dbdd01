package main

import (
	"fmt"
	"runtime"
	"time"

	"olevgrid/internal/pricing"
	"olevgrid/internal/scenario"
)

// runArchetype is the archetype-mix workload: closed loop, cold solves of
// every registered archetype in turn, each at a seed drawn from the
// workload seed, compiled by Spec.GameScenario (set-up) and solved by the
// paper's policy on its defaults as library callers do. A traced run
// alternates untraced and traced cycles over the archetypes.
func runArchetype(o opts) (*result, error) {
	r := newResult()
	rng := newRand(o.seed)
	names := scenario.Names()
	var setup, walls, tracedWalls []float64
	perArchetype := map[string][]float64{}
	var tr struct{ total, compile, solve, updates, mallocs, allocB, gcs float64 }
	var allocMB float64 // compiling and solving, over every solve
	seeds := make([]int64, len(names))
	deadline := time.Now().Add(o.seconds)
	for cycle := 0; cycle < 2 || time.Now().Before(deadline); cycle++ {
		// A traced cycle repeats the seeds of the untraced one before it,
		// so the pair differs only by tracing.
		traced := o.trace && cycle%2 == 1
		if !traced {
			for i := range seeds {
				seeds[i] = rng.Int63n(1 << 31)
			}
		}
		for i, name := range names {
			runtime.GC() // every solve starts from the same heap state
			t0 := time.Now()
			spec, ok := scenario.Get(name)
			if !ok {
				return nil, fmt.Errorf("archetype %q not registered", name)
			}
			spec.Seed = seeds[i]
			a0 := heapAllocMB()
			tc := time.Now()
			game, err := spec.GameScenario()
			if err != nil {
				return nil, fmt.Errorf("%s seed %d: compile: %w", name, spec.Seed, err)
			}
			t1 := time.Now()
			var ms0, ms1 runtime.MemStats
			if traced {
				runtime.ReadMemStats(&ms0)
			}
			ts := time.Now()
			out, err := pricing.Nonlinear{}.Run(game)
			t2 := time.Now()
			allocMB += heapAllocMB() - a0
			if traced {
				runtime.ReadMemStats(&ms1)
			}
			if err != nil {
				return nil, fmt.Errorf("%s seed %d: solve: %w", name, spec.Seed, err)
			}
			c := spec.CheckOutcome(out)
			r.check(c.Pass, "%s seed %d outside its envelope: %+v", name, spec.Seed, c)

			setup = append(setup, t1.Sub(tc).Seconds())
			wall := float64(t2.Sub(ts)) / 1e6
			if !traced {
				walls = append(walls, wall)
				continue
			}
			tracedWalls = append(tracedWalls, wall)
			perArchetype[name] = append(perArchetype[name], wall)
			tr.total += float64(t2.Sub(t0))
			tr.compile += float64(t1.Sub(tc))
			tr.solve += float64(t2.Sub(ts))
			tr.updates += float64(out.Updates)
			tr.mallocs += float64(ms1.Mallocs - ms0.Mallocs)
			tr.allocB += float64(ms1.TotalAlloc - ms0.TotalAlloc)
			tr.gcs += float64(ms1.NumGC - ms0.NumGC)
		}
	}

	r.set("setup_s", median(setup), len(setup))
	r.set("latency_ms.p50", median(walls), len(walls))
	r.setPercentile("latency_ms.p90", walls, 90)
	r.set("throughput_per_s", float64(len(walls))/(sum(walls)/1e3), len(walls))
	solves := len(walls) + len(tracedWalls)
	r.set("alloc_mb_per_op", allocMB/float64(solves), solves)
	if o.trace {
		n := len(tracedWalls)
		// Each traced solve against its untraced twin, earlier in walls.
		r.set("trace.overhead_frac", sum(tracedWalls)/sum(walls[:n])-1, n)
		r.set("core.turns_per_solve", tr.updates/float64(n), n)
		r.set("core.ns_per_turn", tr.solve/tr.updates, n)
		r.set("core.allocs_per_turn", tr.mallocs/tr.updates, n)
		r.set("mem.alloc_bytes_per_turn", tr.allocB/tr.updates, n)
		r.set("gc.cycles_per_solve", tr.gcs/float64(n), n)
		for name, ws := range perArchetype {
			r.set("core.solve_ms."+name, median(ws), len(ws))
		}
		a := attribution{total: tr.total}
		a.add("scenario.compile", tr.compile)
		a.add("pricing+core.solve", tr.solve)
		// Only the loop's own bookkeeping lies outside the two calls.
		r.setAttribution(a, 0.01, n)
	}
	return r, nil
}
