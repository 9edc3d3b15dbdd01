package sched

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"sync"
	"testing"
	"time"

	"olevgrid/internal/core"
	"olevgrid/internal/v2i"
)

// exactTotals is the reference P_c the maintained vector is checked
// against: every registered vehicle's row, accumulated in sorted
// vehicle-ID order.
func exactTotals(t *testing.T, c *Coordinator) []float64 {
	t.Helper()
	ids := make([]string, 0, len(c.links))
	for id := range c.links {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	if !slices.Equal(ids, c.ids) {
		t.Fatalf("slab order %v, registered fleet %v", c.ids, ids)
	}
	out := make([]float64, c.cfg.NumSections)
	for _, id := range ids {
		for s, v := range c.rowOf(id) {
			out[s] += v
		}
	}
	return out
}

// checkTotals compares the maintained P_c with the exact re-sum: bit
// for bit right after an event that re-sums, else within
// 1e-9·max(1, |P_c|).
func checkTotals(t *testing.T, c *Coordinator, what string, bitEqual bool) {
	t.Helper()
	for s, want := range exactTotals(t, c) {
		got := c.totals[s]
		if bitEqual && math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%s: P_%d = %v, exact re-sum %v (want bit-equal)", what, s, got, want)
		}
		if d := math.Abs(got - want); d > 1e-9*math.Max(1, math.Abs(want)) {
			t.Fatalf("%s: P_%d = %v, exact re-sum %v (off by %g)", what, s, got, want, d)
		}
	}
}

// stepFeed quotes one β before round at and another from it on.
type stepFeed struct {
	at            int
	before, after float64
}

func (f stepFeed) Sample(round int) (float64, bool) {
	if round < f.at {
		return f.before, true
	}
	return f.after, true
}

// runTotalsSession drives one seeded session turn by turn on mixed
// JSON and binary links, through every event that rewrites the rows
// outside an install — joins, a departure, an eviction, an outage,
// a checkpoint fall-back and a failover resume — plus a restore, a β
// step and a batched round, checking the maintained P_c after each.
func runTotalsSession(t *testing.T, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	const sections = 5
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	var wg sync.WaitGroup
	vehicleEnds := make(map[string]v2i.Transport)
	spawn := func(i int) (string, v2i.Transport) {
		id := fmt.Sprintf("ev-%02d", i)
		w := v2i.WireJSON
		if i%2 == 1 {
			w = v2i.WireBinary
		}
		gridSide, vehSide := v2i.NewPipePair(w)
		var drawCap float64
		if rng.Intn(3) == 0 {
			drawCap = 2 + 6*rng.Float64()
		}
		agent, err := NewAgent(AgentConfig{
			VehicleID:        id,
			MaxPowerKW:       10 + 50*rng.Float64(),
			MaxSectionDrawKW: drawCap,
			Satisfaction:     core.LogSatisfaction{Weight: chaosWeight(i)},
		}, vehSide)
		if err != nil {
			t.Fatal(err)
		}
		vehicleEnds[id] = vehSide
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, _ = agent.Run(ctx)
			_ = vehSide.Close()
		}()
		return id, gridSide
	}
	links := make(map[string]v2i.Transport)
	for i := 0; i < 6; i++ {
		id, link := spawn(i)
		links[id] = link
	}
	defer func() {
		for _, l := range vehicleEnds {
			_ = l.Close()
		}
		wg.Wait()
	}()

	journal := NewMemJournal()
	beta := nonlinearSpec().BetaPerKWh
	cfg := CoordinatorConfig{
		NumSections:    sections,
		LineCapacityKW: 53.55,
		Cost:           nonlinearSpec(),
		RoundTimeout:   5 * time.Second,
		Journal:        journal,
		Feed:           stepFeed{at: 4, before: beta, after: beta * (0.5 + rng.Float64())},
		Outages:        []SectionOutage{{Section: rng.Intn(sections), DownRound: 3, UpRound: 5}},
		Seed:           seed,
	}
	c, err := NewCoordinator(cfg, links)
	if err != nil {
		t.Fatal(err)
	}
	checkTotals(t, c, "construction", true)

	pick := func() string { return c.ids[rng.Intn(len(c.ids))] }
	turns := func(round int) {
		ids := slices.Clone(c.ids)
		rng.Shuffle(len(ids), func(i, j int) { ids[i], ids[j] = ids[j], ids[i] })
		for _, id := range ids {
			if _, err := c.updateOne(ctx, id, round); err != nil {
				t.Fatalf("round %d vehicle %s: %v", round, id, err)
			}
			checkTotals(t, c, fmt.Sprintf("round %d turn %s", round, id), false)
		}
	}
	for round := 1; round <= 10; round++ {
		if c.applyFeed(round) {
			checkTotals(t, c, "feed step", false)
		}
		if c.applyOutages(round) {
			// A kill re-sums; a restore leaves the rows alone.
			checkTotals(t, c, "section event", c.liveCount() < sections)
		}
		switch round {
		case 2:
			for i := 6; i < 8; i++ {
				if err := c.Join(spawn(i)); err != nil {
					t.Fatal(err)
				}
			}
			var rep Report
			if added := c.admitJoins(&rep); len(added) != 2 {
				t.Fatalf("admitted %v, want two joins", added)
			}
			checkTotals(t, c, "joins", true)
		case 4:
			c.saveCheckpoint(round)
			ids := slices.Clone(c.ids)
			err := c.runBatchedRound(ctx, ids, round, 3, func(id string, _ float64, err error) error {
				if err != nil {
					return err
				}
				checkTotals(t, c, fmt.Sprintf("batched turn %s", id), false)
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			continue
		case 5:
			id := pick()
			_ = vehicleEnds[id].Close()
			c.removeVehicle(id)
			checkTotals(t, c, "departure", true)
		case 6:
			id := pick()
			c.sayBye(ctx, id, "evicted")
			c.removeVehicle(id)
			checkTotals(t, c, "eviction", true)
		case 7:
			if !c.fallBackToLastGood() {
				t.Fatal("no checkpoint to fall back to")
			}
			checkTotals(t, c, "fall-back", true)
		case 8:
			cp, ok, err := journal.Load()
			if err != nil || !ok {
				t.Fatalf("journal: ok=%v err=%v", ok, err)
			}
			// No journal on the resumed side: its rows come from the
			// takeover's projection alone, not a construction restore.
			resumed := cfg
			resumed.Journal = nil
			next, err := ResumeCoordinator(resumed, c.links, Takeover{
				Epoch:      c.epoch + epochFenceGap,
				InitialSeq: c.seq + seqFenceGap,
				Checkpoint: cp, HasCheckpoint: true,
			})
			if err != nil {
				t.Fatal(err)
			}
			c = next
			checkTotals(t, c, "resume", true)
		}
		turns(round)
	}
}

// TestMaintainedTotalsMatchExactResum sweeps the seeded session: the
// P_c that installs maintain by deltas must track an exact re-sum
// turn by turn, and equal it after every re-summing event.
func TestMaintainedTotalsMatchExactResum(t *testing.T) {
	for seed := int64(1); seed <= 24; seed++ {
		t.Run(fmt.Sprintf("seed%02d", seed), func(t *testing.T) {
			runTotalsSession(t, seed)
		})
	}
}

// TestTurnBookkeepingAllocatesNothing gates the coordinator's per-turn
// bookkeeping — the P_−n derivation, the water-fill into the slab row,
// the P_c update and the acknowledged-row copy — at zero allocations,
// with every section live and with a dead one.
func TestTurnBookkeepingAllocatesNothing(t *testing.T) {
	links := make(map[string]v2i.Transport)
	for i := 0; i < 8; i++ {
		gridSide, _ := v2i.NewPair(1)
		links[fmt.Sprintf("ev-%02d", i)] = gridSide
	}
	c, err := NewCoordinator(CoordinatorConfig{
		NumSections: 6, LineCapacityKW: 53.55, Cost: nonlinearSpec(),
	}, links)
	if err != nil {
		t.Fatal(err)
	}
	ids := slices.Clone(c.ids)
	k := 0
	turn := func() {
		id := ids[k%len(ids)]
		k++
		others := othersFrom(c.others, c.totals, c.rowOf(id))
		c.place(c.index[id], others, v2i.Request{TotalKW: float64(5 + k%7), DrawCapKW: 9})
		c.ackRow(id, c.rowOf(id))
	}
	for range ids {
		turn() // every vehicle holds a row and an acknowledged copy
	}
	if a := testing.AllocsPerRun(200, turn); a != 0 {
		t.Errorf("all sections live: %v allocs per turn, want 0", a)
	}
	c.killSection(2)
	if a := testing.AllocsPerRun(200, turn); a != 0 {
		t.Errorf("a dead section: %v allocs per turn, want 0", a)
	}
	checkTotals(t, c, "after the gated turns", false)
}

// TestLoneVehicleQuotedExactZero re-installs one vehicle many times at
// wildly varying requests while the only other vehicle takes nothing:
// alone on every section, it must be quoted a background of exactly 0
// there on both wires, however its row moved.
func TestLoneVehicleQuotedExactZero(t *testing.T) {
	for _, w := range []v2i.Wire{v2i.WireJSON, v2i.WireBinary} {
		t.Run(w.String(), func(t *testing.T) {
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			rng := rand.New(rand.NewSource(7))
			const turns = 300
			quoted := make(chan []float64, 2*turns)
			links := make(map[string]v2i.Transport)
			var wg sync.WaitGroup
			for _, id := range []string{"ev-lone", "ev-zero"} {
				gridSide, vehSide := v2i.NewPipePair(w)
				links[id] = gridSide
				request := func() float64 { return math.Pow(10, -3+4.7*rng.Float64()) }
				var seen chan<- []float64 = quoted
				if id == "ev-zero" {
					request = func() float64 { return 0 }
					seen = nil
				}
				wg.Add(1)
				go func() {
					defer wg.Done()
					defer vehSide.Close()
					scriptedVehicle(ctx, t, vehSide, id, request, seen)
				}()
			}
			c, err := NewCoordinator(CoordinatorConfig{
				NumSections: 6, LineCapacityKW: 53.55, Cost: nonlinearSpec(),
				RoundTimeout: 5 * time.Second,
			}, links)
			if err != nil {
				t.Fatal(err)
			}
			for k := 0; k < turns; k++ {
				for _, id := range []string{"ev-lone", "ev-zero"} {
					if _, err := c.updateOne(ctx, id, k+1); err != nil {
						t.Fatalf("turn %d vehicle %s: %v", k, id, err)
					}
				}
			}
			for _, l := range links {
				_ = l.Close()
			}
			wg.Wait()
			close(quoted)
			n := 0
			for others := range quoted {
				for s, o := range others {
					if math.Float64bits(o) != 0 {
						t.Fatalf("quote %d: lone vehicle's background on section %d is %v, want exactly 0", n, s, o)
					}
				}
				n++
			}
			if n != turns {
				t.Fatalf("observed %d quotes, want %d", n, turns)
			}
		})
	}
}

// scriptedVehicle answers every quote on link with request() and, when
// seen is non-nil, reports the background load each quote conveyed —
// the unicast Others, or totals − own for a batch quote, derived as an
// agent derives it.
func scriptedVehicle(ctx context.Context, t *testing.T, link v2i.Transport, id string, request func() float64, seen chan<- []float64) {
	var own []float64
	var seq uint64
	for {
		env, err := link.Recv(ctx)
		if err != nil {
			return
		}
		var epoch uint64
		var ownSum float64
		switch env.Type {
		case v2i.TypeQuote:
			var q v2i.Quote
			if err := v2i.Open(env, v2i.TypeQuote, &q); err != nil {
				t.Error(err)
				return
			}
			epoch = q.Epoch
			if seen != nil {
				seen <- q.Others
			}
		case v2i.TypeQuoteBatch:
			var qb v2i.QuoteBatch
			if err := v2i.Open(env, v2i.TypeQuoteBatch, &qb); err != nil {
				t.Error(err)
				return
			}
			if qb.Own != nil {
				own = qb.Own
			} else if own == nil {
				own = make([]float64, len(qb.Totals))
			}
			epoch, ownSum = qb.Epoch, sum(own)
			if seen != nil {
				seen <- othersFrom(nil, qb.Totals, own)
			}
		case v2i.TypeSchedule:
			var msg v2i.ScheduleMsg
			if err := v2i.Open(env, v2i.TypeSchedule, &msg); err != nil {
				t.Error(err)
				return
			}
			own = msg.AllocKW
			continue
		default:
			continue
		}
		seq++
		if err := v2i.SendMsg(ctx, link, v2i.TypeRequest, id, seq, &v2i.Request{
			VehicleID: id, TotalKW: request(), Epoch: epoch, OwnKWSum: ownSum,
		}); err != nil {
			return
		}
	}
}
