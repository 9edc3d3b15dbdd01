// Package sched is the decentralized power-scheduling framework of
// Section IV-D, run over real message passing: a smart-grid
// Coordinator that owns the schedule, quotes payment functions and
// water-fills requests, and OLEV Agents that hold their private
// satisfaction functions and best-respond. The in-memory transport
// reproduces the paper's simulation; the TCP transport turns the same
// protocol into an actual distributed system.
//
// The coordinator is hardened for deployment-grade conditions: every
// quote is epoch-stamped so late, duplicated, or reordered
// best-responses computed against an outdated background load are
// detected and discarded rather than water-filled; retries back off
// exponentially with jitter under a per-exchange deadline; vehicles
// may join and leave mid-iteration; and a checkpoint journal lets a
// restarted coordinator resume from the last converged schedule. See
// DESIGN.md's "Failure model" section for how each mechanism maps to
// a Theorem IV.1 assumption.
package sched

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"olevgrid/internal/core"
	"olevgrid/internal/stats"
	"olevgrid/internal/v2i"
)

// BuildCost reconstructs a core.CostFunction from its wire form.
func BuildCost(spec v2i.CostSpec) (core.CostFunction, error) {
	var charging core.CostFunction
	switch spec.Kind {
	case "nonlinear":
		v, err := core.NewQuadraticCharging(spec.BetaPerKWh, spec.Alpha, spec.LineCapacityKW)
		if err != nil {
			return nil, err
		}
		charging = v
	case "linear":
		if spec.BetaPerKWh <= 0 {
			return nil, fmt.Errorf("sched: linear beta %v must be positive", spec.BetaPerKWh)
		}
		charging = core.LinearCharging{Beta: spec.BetaPerKWh}
	default:
		return nil, fmt.Errorf("sched: unknown cost kind %q", spec.Kind)
	}
	if spec.OverloadKappaPerKWh > 0 {
		if spec.OverloadCapacityKW <= 0 {
			return nil, fmt.Errorf("sched: overload capacity %v must be positive", spec.OverloadCapacityKW)
		}
		return core.SectionCost{
			Charging: charging,
			Overload: core.OverloadPenalty{
				Kappa:    spec.OverloadKappaPerKWh,
				Capacity: spec.OverloadCapacityKW,
			},
		}, nil
	}
	return charging, nil
}

// CoordinatorConfig configures the smart-grid side.
type CoordinatorConfig struct {
	// NumSections is C.
	NumSections int
	// LineCapacityKW is P_line per section.
	LineCapacityKW float64
	// Cost is the wire form of the shared section cost; agents price
	// against exactly what the coordinator uses.
	Cost v2i.CostSpec
	// Tolerance declares convergence when no request moves more than
	// this across a full round; zero means 1e-4.
	Tolerance float64
	// MaxRounds bounds the iteration; zero means 200.
	MaxRounds int
	// RoundTimeout bounds each per-vehicle exchange attempt; zero
	// means 5 s.
	RoundTimeout time.Duration
	// MaxRetries re-quotes a vehicle whose exchange timed out — the
	// recovery for lossy V2I links; zero means 2.
	MaxRetries int
	// RetryBackoff is the base delay of the exponential backoff
	// between re-quote attempts; the n-th retry waits roughly
	// RetryBackoff·2^(n-1) with jitter. Zero means 10 ms.
	RetryBackoff time.Duration
	// ExchangeDeadline bounds one vehicle's whole turn, attempts and
	// backoff together, so a single black-holed link cannot stall a
	// round indefinitely. Zero derives it from RoundTimeout,
	// MaxRetries, and RetryBackoff.
	ExchangeDeadline time.Duration
	// SkipUnresponsive keeps the round going when a vehicle exhausts
	// its retries, leaving its previous schedule in place, instead of
	// failing the run. The asynchronous dynamics tolerate missed
	// turns (Theorem IV.1 only needs every OLEV to update eventually).
	SkipUnresponsive bool
	// EvictAfter is the per-vehicle circuit breaker: after this many
	// consecutive failed turns the vehicle is treated as gone — its
	// allocation is released and the fleet re-converges without it.
	// Zero disables eviction. A positive EvictAfter implies skipping
	// failed turns until the breaker trips.
	EvictAfter int
	// DropDeparted removes a vehicle whose transport has closed or
	// that sent Bye — OLEVs leave the charging lane mid-game in any
	// real deployment — zeroing its schedule and letting the remaining
	// fleet re-converge instead of failing the run.
	DropDeparted bool
	// Journal, when set, persists the last converged schedule. A new
	// coordinator warm-starts from it, and a run that exhausts
	// MaxRounds without converging degrades to the journaled
	// last-known-good schedule instead of keeping a half-settled one.
	Journal Journal
	// Feed, when set, re-samples the charging price coefficient once
	// per round (the paper's volatile LBMP, Section III): a changed β
	// rebuilds the shared cost and advances the epoch so stale
	// best-responses are filtered. A sample the feed reports as
	// unusable (stale beyond its ceiling) holds the last applied β.
	Feed PriceFeed
	// Outages scripts charging-section failures and restorations by
	// round. A dying section's allocation mass is re-projected evenly
	// onto the survivors (the warm-start idiom), quotes flag the
	// dead sections, and the overload penalty Z keeps guarding ηP_line
	// on what remains. Empty means no outages.
	Outages []SectionOutage
	// Lease, when set, is renewed at the top of every round; a refused
	// renewal ends the run with ErrLeaseLost — another incarnation has
	// taken over and this one must stop quoting rather than
	// split-brain the schedule.
	Lease Lease
	// LeaseTTL is the term of each renewal; zero means 1 s.
	LeaseTTL time.Duration
	// InstanceID names this coordinator in lease records; empty means
	// "primary".
	InstanceID string
	// HeartbeatEvery broadcasts a liveness beacon every that many
	// rounds, letting agents distinguish "alive but busy elsewhere"
	// from "control plane gone". Zero disables heartbeats.
	HeartbeatEvery int
	// CheckpointEvery journals a progress checkpoint every that many
	// rounds (in addition to the converged checkpoint), giving a
	// standby a recent warm-start after a mid-session crash. Zero
	// journals only on convergence, the pre-failover behavior.
	CheckpointEvery int
	// ShutdownGrace bounds Close's drain of in-flight sessions; zero
	// means 1 s.
	ShutdownGrace time.Duration
	// OnRound, when set, is called at the top of every round before any
	// frame goes out — the crash-injection point for failover tests.
	OnRound func(round int)
	// Parallelism is the number of vehicles quoted concurrently within
	// a round. 0 or 1 preserves the strictly sequential Gauss–Seidel
	// protocol (the Theorem IV.1 setting, and the exact pre-batching
	// behavior). Larger values overlap V2I round trips: each batch is
	// quoted against the same frozen background load and collected
	// concurrently, then the requests are water-filled in stable batch
	// order — a speculative Jacobi block, mirroring core.RunParallel.
	// The coordinator cannot evaluate the welfare guard (satisfactions
	// are private to the vehicles), so instead any batched round that
	// fails to shrink the movement bound degrades the next round to
	// sequential; sequential rounds are monotone by Theorem IV.1, which
	// rules out sustained Jacobi cycling.
	Parallelism int
	// Seed shuffles the per-round update order and drives retry
	// jitter.
	Seed int64
	// Metrics, if non-nil, receives control-plane telemetry (rounds,
	// quote/propose spans, retry/stale/fault accounting, the fencing
	// epoch). Share one bundle across a session's incarnations —
	// primary, standby, resumed coordinator — and the counters stay
	// cumulative with no double counting across failover; the chaos
	// conformance suite runs with it armed under -race. Nil is the
	// zero-overhead off switch.
	Metrics *Metrics
}

// Report summarizes a coordinator run.
type Report struct {
	// Rounds is the number of full update rounds executed.
	Rounds int
	// Converged reports whether the tolerance was met.
	Converged bool
	// CongestionDegree is the final Σp / ΣP_line.
	CongestionDegree float64
	// WelfareCost is Σ_c Z(P_c), the grid-side part of welfare (the
	// coordinator cannot know satisfactions).
	WelfareCost float64
	// TotalPowerKW is the final scheduled power.
	TotalPowerKW float64
	// Requests is each vehicle's final total, keyed by ID.
	Requests map[string]float64
	// Skipped counts vehicle turns abandoned after retry exhaustion.
	Skipped int
	// Departed counts vehicles dropped after their transport closed or
	// they sent Bye (only non-zero with DropDeparted).
	Departed int
	// Evicted counts vehicles removed by the circuit breaker after
	// EvictAfter consecutive failed turns.
	Evicted int
	// Joined counts vehicles admitted mid-iteration via Join.
	Joined int
	// Retries counts re-quoted exchanges over the whole run.
	Retries int
	// StaleDropped counts frames the coordinator discarded instead of
	// acting on: replayed/duplicated frames (non-monotonic sequence
	// numbers) and best-responses to outdated quotes (epoch mismatch).
	StaleDropped int
	// FellBack reports that the run exhausted MaxRounds and the
	// schedule was restored from the journaled last-known-good
	// checkpoint.
	FellBack bool
	// CheckpointSaved reports that the converged schedule was
	// journaled.
	CheckpointSaved bool
	// DegradedRounds counts rounds the batching fallback forced to run
	// sequentially after a batched round made no progress (only
	// non-zero with Parallelism > 1).
	DegradedRounds int
	// FinalEpoch is the schedule version at the end of the run.
	FinalEpoch uint64
	// Schedule is each vehicle's final per-section allocation — what
	// the failover differential suite compares across incarnations.
	Schedule map[string][]float64
	// FeedChanges counts rounds where the price feed moved β;
	// FeedHeld counts rounds where the feed was unusable and the last
	// applied β was held.
	FeedChanges int
	FeedHeld    int
	// OutagesApplied and RestoresApplied count section events fired.
	OutagesApplied  int
	RestoresApplied int
	// LiveSections is the number of energized sections at the end.
	LiveSections int
}

// PriceFeed supplies the per-round charging price coefficient in
// $/kWh. ok=false means the feed is unusable (dark past its staleness
// ceiling) and the coordinator holds the last applied β.
// *grid.LBMPFeed satisfies this shape given a $/kWh source.
type PriceFeed interface {
	Sample(step int) (betaPerKWh float64, ok bool)
}

// SectionOutage scripts one charging section's failure and optional
// restoration, by round number (1-based, matching Report.Rounds).
type SectionOutage struct {
	// Section is the dying section's index.
	Section int
	// DownRound is the round at whose top the section dies.
	DownRound int
	// UpRound is the round at whose top it is restored; zero means
	// never.
	UpRound int
}

// Coordinator runs the smart-grid side of the protocol for a dynamic
// set of connected vehicles.
type Coordinator struct {
	cfg   CoordinatorConfig
	cost  core.CostFunction
	psi   core.PaymentFunction // installRequest's Ψ kernel
	links map[string]v2i.Transport

	// The schedule is one dense slab in sorted vehicle-ID order, the
	// layout of core's round engine: ids[i] owns row i (see row), and
	// index maps an ID back to i.
	ids   []string
	index map[string]int
	rows  []float64
	// totals is P_c. installRequest maintains it by per-section deltas;
	// every other change to the rows (joins, departures, a dying
	// section, a checkpoint restore or a failover projection) ends in
	// resum, an exact re-sum in index order.
	totals []float64

	// Per-turn scratch, so a steady-state turn allocates nothing:
	// others is the sequential turn's P_−n; liveIdx, compact and fill
	// carry a water-fill over the live sections, and alloc its
	// full-width scatter.
	others, compact, fill, alloc []float64
	liveIdx                      []int

	// epoch is the schedule version: it advances on every install,
	// join, departure, and eviction, so any quote stamped with an
	// older epoch is known to describe a background load that no
	// longer exists.
	epoch uint64
	// lastSeq is the highest envelope sequence number accepted per
	// vehicle; frames at or below it are replays.
	lastSeq map[string]uint64
	// consecFails drives the per-vehicle circuit breaker.
	consecFails map[string]int

	// live flags which sections are energized; scripted outages clear
	// entries and restorations set them. Only Run's goroutine writes
	// it, at the top of a round.
	live []bool

	// sentRow caches, per vehicle, a copy of the schedule row the
	// vehicle last acknowledged (i.e. the row carried by its last
	// accepted ScheduleMsg). A batched quote elides the vehicle's own
	// row only while the cached copy is bit-identical to the live row;
	// any divergence (outage zeroing, checkpoint restore) forces the
	// row back onto the wire. installRequest refreshes the copy in
	// place. Guarded by mu: installRequest writes it from Run's
	// goroutine while batch collection goroutines read it.
	sentRow map[string][]float64

	joins    chan pendingJoin
	rng      *rand.Rand
	seq      uint64
	retries  int
	stale    int
	restored bool

	feedChanges     int
	feedHeld        int
	outagesApplied  int
	restoresApplied int
	lastRound       int

	closeOnce sync.Once
	// closed flips when Close runs; a closed coordinator refuses to
	// Run again instead of quoting over dead links.
	closed atomic.Bool
	// deposed flips when a lease renewal is refused: another
	// incarnation owns the session now, so this one's Close must stand
	// down quietly — no Bye storm, no stale checkpoint clobbering the
	// new primary's journal, and the links (which the new primary
	// inherited) stay open.
	deposed atomic.Bool

	// mu guards the session state shared with concurrent batch
	// collection goroutines: seq, lastSeq, stale, retries, and rng.
	// The schedule and epoch are only ever touched from Run's
	// goroutine, between batches.
	mu sync.Mutex
}

// NewCoordinator validates the configuration and builds a coordinator.
// links maps vehicle IDs to their established transports; the caller
// owns accepting connections (see ServeTCP for the listener loop). If
// the configured Journal holds a compatible checkpoint, the schedule
// warm-starts from it.
func NewCoordinator(cfg CoordinatorConfig, links map[string]v2i.Transport) (*Coordinator, error) {
	if cfg.NumSections < 1 {
		return nil, fmt.Errorf("sched: need sections, got %d", cfg.NumSections)
	}
	if cfg.LineCapacityKW <= 0 {
		return nil, fmt.Errorf("sched: line capacity %v must be positive", cfg.LineCapacityKW)
	}
	if len(links) == 0 {
		return nil, fmt.Errorf("sched: no vehicles connected")
	}
	cost, err := BuildCost(cfg.Cost)
	if err != nil {
		return nil, err
	}
	if cfg.Tolerance <= 0 {
		cfg.Tolerance = 1e-4
	}
	if cfg.MaxRounds <= 0 {
		cfg.MaxRounds = 200
	}
	if cfg.RoundTimeout <= 0 {
		cfg.RoundTimeout = 5 * time.Second
	}
	if cfg.MaxRetries <= 0 {
		cfg.MaxRetries = 2
	}
	if cfg.RetryBackoff <= 0 {
		cfg.RetryBackoff = 10 * time.Millisecond
	}
	if cfg.ExchangeDeadline <= 0 {
		attempts := time.Duration(cfg.MaxRetries + 1)
		cfg.ExchangeDeadline = attempts*cfg.RoundTimeout + attempts*maxBackoffStep*cfg.RetryBackoff
	}
	for _, o := range cfg.Outages {
		if o.Section < 0 || o.Section >= cfg.NumSections {
			return nil, fmt.Errorf("sched: outage section %d outside [0, %d)", o.Section, cfg.NumSections)
		}
		if o.DownRound < 1 {
			return nil, fmt.Errorf("sched: outage down round %d must be >= 1", o.DownRound)
		}
		if o.UpRound != 0 && o.UpRound <= o.DownRound {
			return nil, fmt.Errorf("sched: outage up round %d not after down round %d", o.UpRound, o.DownRound)
		}
	}
	nc := cfg.NumSections
	c := &Coordinator{
		cfg:         cfg,
		cost:        cost,
		links:       links,
		ids:         make([]string, 0, len(links)),
		index:       make(map[string]int, len(links)),
		rows:        make([]float64, len(links)*nc),
		totals:      make([]float64, nc),
		others:      make([]float64, nc),
		compact:     make([]float64, nc),
		fill:        make([]float64, nc),
		alloc:       make([]float64, nc),
		liveIdx:     make([]int, 0, nc),
		epoch:       1,
		lastSeq:     make(map[string]uint64, len(links)),
		consecFails: make(map[string]int, len(links)),
		sentRow:     make(map[string][]float64, len(links)),
		joins:       make(chan pendingJoin, joinQueueDepth),
		rng:         stats.NewRand(cfg.Seed),
		live:        make([]bool, cfg.NumSections),
	}
	for i := range c.live {
		c.live[i] = true
	}
	for id := range links {
		c.ids = append(c.ids, id)
	}
	sort.Strings(c.ids)
	c.reindex(0)
	if cfg.Journal != nil {
		if cp, ok, err := cfg.Journal.Load(); err == nil && ok && c.restoreCheckpoint(cp) {
			c.restored = true
		}
	}
	return c, nil
}

// Restored reports whether construction warm-started the schedule
// from a journaled checkpoint.
func (c *Coordinator) Restored() bool { return c.restored }

// Close drains the session and tears down every vehicle link. Call it
// once the session is over (after the final Run). In-flight agents are
// not dropped cold: each link first gets a best-effort Bye, sent
// concurrently under the ShutdownGrace budget, so a vehicle blocked in
// Recv exits through the protocol instead of a connection reset; then
// a final checkpoint is journaled (the durable state a standby or
// restart warm-starts from); only then do the links close — the one
// end-of-session signal a lossy network cannot swallow. Close is
// idempotent and safe to call concurrently — later callers block until
// the first Close finishes, then return — and a closed coordinator
// refuses to Run again. A deposed coordinator (one whose lease renewal
// was refused, ErrLeaseLost) closes to a no-op: the links now belong
// to the incarnation that won the lease, and journaling this loser's
// stale schedule would overwrite the winner's newer checkpoint.
func (c *Coordinator) Close() error {
	c.closeOnce.Do(func() {
		c.closed.Store(true)
		if c.deposed.Load() {
			return
		}
		grace := c.cfg.ShutdownGrace
		if grace <= 0 {
			grace = time.Second
		}
		ctx, cancel := context.WithTimeout(context.Background(), grace)
		var wg sync.WaitGroup
		for _, link := range c.links {
			seq := c.nextSeq()
			wg.Add(1)
			go func(link v2i.Transport, seq uint64) {
				defer wg.Done()
				_ = v2i.SendMsg(ctx, link, v2i.TypeBye, "smart-grid", seq, &v2i.Bye{Reason: "shutdown"})
			}(link, seq)
		}
		wg.Wait()
		cancel()
		c.saveCheckpoint(c.lastRound)
		for _, link := range c.links {
			_ = link.Close()
		}
	})
	return nil
}

// Epoch returns the current schedule version.
func (c *Coordinator) Epoch() uint64 { return c.epoch }

// Run drives the asynchronous best-response iteration: each round it
// admits pending joins, visits every vehicle in a shuffled order,
// quotes Ψ_n against the frozen others, waits for a fresh (current
// epoch, monotonic sequence) request, and installs the water-filled
// schedule. It stops when requests settle or MaxRounds is reached,
// then broadcasts Converged and Bye.
func (c *Coordinator) Run(ctx context.Context) (Report, error) {
	if c.closed.Load() {
		return Report{}, errors.New("sched: coordinator is closed")
	}
	ids := slices.Clone(c.ids)
	report := Report{Requests: make(map[string]float64, len(ids))}
	prevDelta := math.Inf(1)
	sequentialNext := false
	for round := 1; round <= c.cfg.MaxRounds; round++ {
		if c.cfg.OnRound != nil {
			c.cfg.OnRound(round)
		}
		if err := c.renewLease(); err != nil {
			return report, err
		}
		// Exogenous events fire at the top of the round, before any
		// quote goes out, so the whole round prices one consistent
		// world: the sampled β and the live-section mask.
		perturbed := c.applyFeed(round)
		if c.applyOutages(round) {
			perturbed = true
		}
		c.heartbeat(ctx, round)
		ids = append(ids, c.admitJoins(&report)...)
		c.rng.Shuffle(len(ids), func(i, j int) { ids[i], ids[j] = ids[j], ids[i] })
		var maxDelta float64
		roundSkipped := 0
		removed := make(map[string]bool)

		// handleTurn folds one vehicle's turn outcome into the round.
		// A non-nil return is a terminal run error.
		handleTurn := func(id string, delta float64, err error) error {
			switch {
			case err == nil:
				c.consecFails[id] = 0
				maxDelta = math.Max(maxDelta, delta)
			case c.cfg.DropDeparted && isDeparture(err) && ctx.Err() == nil:
				// The vehicle left: free its power and let the rest
				// re-converge. The released capacity is a real change,
				// so the round cannot be the converged one.
				removed[id] = true
				if c.removeVehicle(id) > 0 {
					maxDelta = math.Max(maxDelta, c.cfg.Tolerance*2)
				}
				report.Departed++
				if m := c.cfg.Metrics; m != nil {
					m.Departed.Inc()
				}
			case c.breakerTrips(id) && ctx.Err() == nil:
				// Circuit breaker: the vehicle has failed EvictAfter
				// consecutive turns; treat it as gone so its stranded
				// allocation stops distorting everyone else's price.
				c.sayBye(ctx, id, "evicted")
				removed[id] = true
				if c.removeVehicle(id) > 0 {
					maxDelta = math.Max(maxDelta, c.cfg.Tolerance*2)
				}
				report.Evicted++
				if m := c.cfg.Metrics; m != nil {
					m.Evicted.Inc()
				}
			case (c.cfg.SkipUnresponsive || c.cfg.EvictAfter > 0) && ctx.Err() == nil:
				c.consecFails[id]++
				report.Skipped++
				roundSkipped++
				if m := c.cfg.Metrics; m != nil {
					m.Skipped.Inc()
				}
			default:
				return fmt.Errorf("sched: round %d vehicle %s: %w", round, id, err)
			}
			return nil
		}

		batch := c.cfg.Parallelism
		if batch > len(ids) {
			batch = len(ids)
		}
		if sequentialNext && batch > 1 {
			batch = 1
			report.DegradedRounds++
			if m := c.cfg.Metrics; m != nil {
				m.Degraded.Inc()
			}
		}
		if batch > 1 {
			if err := c.runBatchedRound(ctx, ids, round, batch, handleTurn); err != nil {
				return report, err
			}
		} else {
			for _, id := range ids {
				delta, err := c.updateWithRetries(ctx, id, round)
				if herr := handleTurn(id, delta, err); herr != nil {
					return report, herr
				}
			}
		}
		// A batched round is a speculative Jacobi sweep with no welfare
		// guard (satisfactions are private), so a round that fails to
		// shrink the movement bound degrades the next one to the
		// sequential dynamics, whose monotonicity Theorem IV.1
		// guarantees. Sequential rounds always make strict progress off
		// equilibrium, so cycling cannot be sustained.
		sequentialNext = c.cfg.Parallelism > 1 && batch > 1 &&
			maxDelta >= c.cfg.Tolerance && maxDelta >= prevDelta
		prevDelta = maxDelta
		if len(removed) > 0 {
			kept := ids[:0]
			for _, id := range ids {
				if !removed[id] {
					kept = append(kept, id)
				}
			}
			ids = kept
		}
		report.Rounds = round
		c.lastRound = round
		c.cfg.Metrics.observeRound(round, c.epoch, maxDelta, c.liveCount())
		if len(ids) == 0 {
			report.Converged = true
			break
		}
		// A skipped vehicle's best response is unknown, so a round with
		// skips cannot be the converged one — only a full clean round
		// with no movement settles the game. A vehicle waiting to join
		// also blocks convergence: it enters next round and perturbs
		// the schedule. Likewise a round where β moved or a section
		// event fired, and any round while scripted events are still
		// pending — the game they would perturb has not happened yet.
		if maxDelta < c.cfg.Tolerance && roundSkipped == 0 && len(c.joins) == 0 &&
			!perturbed && !c.eventsPending(round) {
			report.Converged = true
			break
		}
		if c.cfg.CheckpointEvery > 0 && round%c.cfg.CheckpointEvery == 0 {
			c.saveCheckpoint(round)
		}
		if err := ctx.Err(); err != nil {
			return report, err
		}
	}

	if report.Converged {
		report.CheckpointSaved = c.saveCheckpoint(report.Rounds)
	} else if c.fallBackToLastGood() {
		report.FellBack = true
	}
	report.Retries = c.retries
	report.StaleDropped = c.stale
	report.FinalEpoch = c.epoch
	report.CongestionDegree = c.CongestionDegree()
	report.TotalPowerKW = c.totalPower()
	report.WelfareCost = c.welfareCost()
	report.FeedChanges = c.feedChanges
	report.FeedHeld = c.feedHeld
	report.OutagesApplied = c.outagesApplied
	report.RestoresApplied = c.restoresApplied
	report.LiveSections = c.liveCount()
	report.Schedule = make(map[string][]float64, len(c.ids))
	for i, id := range c.ids {
		row := c.row(i)
		report.Requests[id] = sum(row)
		report.Schedule[id] = slices.Clone(row)
	}
	c.broadcastDone(ctx, report)
	return report, nil
}

// renewLease extends this incarnation's lease for the round; a refused
// renewal means another incarnation won the election and this one must
// stop quoting immediately.
func (c *Coordinator) renewLease() error {
	if c.cfg.Lease == nil {
		return nil
	}
	ttl := c.cfg.LeaseTTL
	if ttl <= 0 {
		ttl = time.Second
	}
	id := c.cfg.InstanceID
	if id == "" {
		id = "primary"
	}
	ok, err := c.cfg.Lease.Renew(id, c.epoch, ttl, time.Now())
	if err != nil {
		return fmt.Errorf("sched: renew lease: %w", err)
	}
	if !ok {
		c.deposed.Store(true)
		return ErrLeaseLost
	}
	return nil
}

// applyFeed samples the price feed for the round and, when β moved,
// rebuilds the shared cost and advances the epoch. Returns whether β
// changed.
func (c *Coordinator) applyFeed(round int) bool {
	if c.cfg.Feed == nil {
		return false
	}
	beta, ok := c.cfg.Feed.Sample(round)
	if !ok {
		c.feedHeld++
		if m := c.cfg.Metrics; m != nil {
			m.FeedHeld.Inc()
		}
		return false
	}
	if beta == c.cfg.Cost.BetaPerKWh {
		return false
	}
	spec := c.cfg.Cost
	spec.BetaPerKWh = beta
	cost, err := BuildCost(spec)
	if err != nil {
		// An unusable sample (e.g. non-positive β) degrades to holding
		// the last applied price, same as a stale feed.
		c.feedHeld++
		if m := c.cfg.Metrics; m != nil {
			m.FeedHeld.Inc()
		}
		return false
	}
	c.cfg.Cost = spec
	c.cost = cost
	c.epoch++ // every outstanding quote priced a β that no longer exists
	c.feedChanges++
	if m := c.cfg.Metrics; m != nil {
		m.FeedChanges.Inc()
	}
	return true
}

// applyOutages fires the section events scheduled for this round.
// Returns whether any fired.
func (c *Coordinator) applyOutages(round int) bool {
	fired := false
	for _, o := range c.cfg.Outages {
		if o.DownRound == round && c.live[o.Section] {
			c.killSection(o.Section)
			c.outagesApplied++
			c.cfg.Metrics.observeOutage(o.Section, round, c.epoch, false)
			fired = true
		}
		if o.UpRound == round && !c.live[o.Section] {
			c.live[o.Section] = true
			c.epoch++
			c.restoresApplied++
			c.cfg.Metrics.observeOutage(o.Section, round, c.epoch, true)
			fired = true
		}
	}
	return fired
}

// killSection de-energizes a section and re-projects its allocation
// mass evenly onto the survivors — the warm-start idiom: the totals
// are still an excellent guess for each vehicle's demand, and the next
// best response re-imposes exact feasibility. The overload penalty Z
// keeps guarding ηP_line on the surviving sections because quotes and
// water-fills now run over the compacted live vector.
func (c *Coordinator) killSection(sec int) {
	c.live[sec] = false
	nLive := c.liveCount()
	for i := range c.ids {
		row := c.row(i)
		mass := row[sec]
		row[sec] = 0
		if mass <= 0 || nLive == 0 {
			continue
		}
		share := mass / float64(nLive)
		for ci, ok := range c.live {
			if ok {
				row[ci] += share
			}
		}
	}
	c.resum()
	c.epoch++
}

// eventsPending reports whether any scripted section event is still in
// the future: the run must not settle before the world is done
// changing.
func (c *Coordinator) eventsPending(round int) bool {
	for _, o := range c.cfg.Outages {
		if o.DownRound > round || o.UpRound > round {
			return true
		}
	}
	return false
}

// heartbeat broadcasts the liveness beacon when the round is due one.
// Best-effort: a lost heartbeat costs an agent at most one degraded
// episode, which the next quote repairs.
func (c *Coordinator) heartbeat(ctx context.Context, round int) {
	if c.cfg.HeartbeatEvery <= 0 || round%c.cfg.HeartbeatEvery != 0 {
		return
	}
	for _, link := range c.links {
		hctx, cancel := context.WithTimeout(ctx, c.cfg.RoundTimeout)
		_ = v2i.SendMsg(hctx, link, v2i.TypeHeartbeat, "smart-grid", c.nextSeq(), &v2i.Heartbeat{
			Epoch: c.epoch, Round: round,
		})
		cancel()
	}
}

// liveCount returns the number of energized sections.
func (c *Coordinator) liveCount() int {
	n := 0
	for _, ok := range c.live {
		if ok {
			n++
		}
	}
	return n
}

// liveIndices returns the energized sections' indices in the reused
// liveIdx buffer, or nil when all sections are live (the fast path: no
// compaction needed).
func (c *Coordinator) liveIndices() []int {
	if c.liveCount() == len(c.live) {
		return nil
	}
	c.liveIdx = c.liveIdx[:0]
	for i, ok := range c.live {
		if ok {
			c.liveIdx = append(c.liveIdx, i)
		}
	}
	return c.liveIdx
}

// compactTo gathers vs at the given indices into dst.
func compactTo(dst, vs []float64, idx []int) []float64 {
	dst = dst[:len(idx)]
	for i, j := range idx {
		dst[i] = vs[j]
	}
	return dst
}

// scatterFrom spreads a compacted vector back over dst's full width,
// zeroes elsewhere.
func scatterFrom(dst, vs []float64, idx []int) []float64 {
	clear(dst)
	for i, j := range idx {
		dst[j] = vs[i]
	}
	return dst
}

// isDeparture reports whether an exchange failure means the vehicle's
// link is gone for good (as opposed to a transient timeout): a closed
// in-memory pair, a closed/ended TCP connection, or an explicit Bye.
func isDeparture(err error) bool {
	return errors.Is(err, v2i.ErrClosed) || errors.Is(err, io.EOF) ||
		errors.Is(err, net.ErrClosed) || errors.Is(err, errVehicleLeft)
}

// errVehicleLeft marks a Bye received where a Request was expected.
var errVehicleLeft = errors.New("sched: vehicle sent bye")

// errOwnDesync marks a batch answer whose echoed own-row checksum does
// not bit-match the coordinator's row: the vehicle best-responded
// against the wrong own allocation. Retryable — the cached row is
// invalidated, so the re-quote carries the row explicitly.
var errOwnDesync = errors.New("sched: batch answer computed on desynced own row")

// breakerTrips reports whether this failed turn is the vehicle's
// EvictAfter-th consecutive failure.
func (c *Coordinator) breakerTrips(id string) bool {
	return c.cfg.EvictAfter > 0 && c.consecFails[id]+1 >= c.cfg.EvictAfter
}

// removeVehicle zeroes a departed vehicle's schedule, forgets its
// session state, and closes its link, returning the power it released.
// Releasing power changes every other vehicle's background load, so
// the epoch advances.
func (c *Coordinator) removeVehicle(id string) float64 {
	var released float64
	if i, ok := c.index[id]; ok {
		released = sum(c.row(i))
		nc := c.cfg.NumSections
		c.ids = slices.Delete(c.ids, i, i+1)
		c.rows = slices.Delete(c.rows, i*nc, (i+1)*nc)
		delete(c.index, id)
		c.reindex(i)
		c.resum()
	}
	delete(c.lastSeq, id)
	delete(c.consecFails, id)
	c.mu.Lock()
	delete(c.sentRow, id)
	c.mu.Unlock()
	if link, ok := c.links[id]; ok {
		_ = link.Close()
		delete(c.links, id)
	}
	c.epoch++
	return released
}

// sayBye sends a best-effort Bye before an eviction so a live but
// unlucky agent exits cleanly instead of blocking on Recv forever.
func (c *Coordinator) sayBye(ctx context.Context, id, reason string) {
	link, ok := c.links[id]
	if !ok {
		return
	}
	bctx, cancel := context.WithTimeout(ctx, c.cfg.RoundTimeout)
	defer cancel()
	_ = v2i.SendMsg(bctx, link, v2i.TypeBye, "smart-grid", c.nextSeq(), &v2i.Bye{Reason: reason})
}

// maxBackoffStep caps the exponential backoff at 2^maxBackoffStep
// times the base delay.
const maxBackoffStep = 5

// updateWithRetries drives updateOne, re-quoting after timeouts with
// exponential backoff and jitter, bounded by both MaxRetries and the
// per-vehicle ExchangeDeadline. A lost quote, request or schedule
// frame all look the same from here — a timed-out exchange — and a
// fresh quote resynchronizes both sides, because agents answer every
// quote independently and stale answers are filtered by epoch.
func (c *Coordinator) updateWithRetries(ctx context.Context, id string, round int) (float64, error) {
	deadline := time.Now().Add(c.cfg.ExchangeDeadline)
	var lastErr error
	for attempt := 0; attempt <= c.cfg.MaxRetries; attempt++ {
		if attempt > 0 {
			c.countRetry()
			if err := c.backoff(ctx, attempt); err != nil {
				break
			}
			if time.Now().After(deadline) {
				break
			}
		}
		delta, err := c.updateOne(ctx, id, round)
		if err == nil {
			return delta, nil
		}
		lastErr = err
		if ctx.Err() != nil || isDeparture(err) {
			break // the run is over or the vehicle is gone; don't burn retries
		}
	}
	return 0, lastErr
}

// collectWithRetries is the retry loop around the network half of an
// exchange, used by the batched rounds; the install half runs later on
// Run's goroutine. Retry structure mirrors updateWithRetries.
func (c *Coordinator) collectWithRetries(ctx context.Context, id string, round int, others, totals []float64, epoch uint64) (v2i.Request, error) {
	deadline := time.Now().Add(c.cfg.ExchangeDeadline)
	var lastErr error
	for attempt := 0; attempt <= c.cfg.MaxRetries; attempt++ {
		if attempt > 0 {
			c.countRetry()
			if err := c.backoff(ctx, attempt); err != nil {
				break
			}
			if time.Now().After(deadline) {
				break
			}
		}
		req, err := c.collectRequest(ctx, id, round, others, totals, epoch)
		if err == nil {
			return req, nil
		}
		lastErr = err
		if ctx.Err() != nil || isDeparture(err) {
			break
		}
	}
	return v2i.Request{}, lastErr
}

func (c *Coordinator) countRetry() {
	c.mu.Lock()
	c.retries++
	c.mu.Unlock()
	if m := c.cfg.Metrics; m != nil {
		m.Retries.Inc()
	}
}

// runBatchedRound visits the fleet in blocks of batch vehicles: each
// block's quotes go out against the same frozen background load and
// the requests are collected concurrently — overlapping the V2I round
// trips that dominate a distributed round — then water-filled in
// stable block order on this goroutine. Only the collection phase runs
// concurrently; every schedule/epoch mutation stays on Run's
// goroutine, between blocks.
func (c *Coordinator) runBatchedRound(ctx context.Context, ids []string, round, batch int, handleTurn func(string, float64, error) error) error {
	reqs := make([]v2i.Request, batch)
	errs := make([]error, batch)
	others := make([][]float64, batch)
	for i := range others {
		others[i] = make([]float64, c.cfg.NumSections)
	}
	for lo := 0; lo < len(ids); lo += batch {
		hi := lo + batch
		if hi > len(ids) {
			hi = len(ids)
		}
		group := ids[lo:hi]
		epoch := c.epoch
		// One totals vector serves the whole block: every quote in it is
		// against the same frozen background load, and on the binary
		// wire the block shares the identical Totals payload. Nothing
		// writes c.totals until the collection goroutines are done.
		totals := c.totals
		var wg sync.WaitGroup
		for i, id := range group {
			others[i] = othersFrom(others[i], totals, c.rowOf(id))
			wg.Add(1)
			go func(i int, id string) {
				defer wg.Done()
				reqs[i], errs[i] = c.collectWithRetries(ctx, id, round, others[i], totals, epoch)
			}(i, id)
		}
		wg.Wait()
		for i, id := range group {
			delta, err := 0.0, errs[i]
			if err == nil {
				delta, err = c.installRequest(ctx, id, round, others[i], reqs[i])
			}
			if herr := handleTurn(id, delta, err); herr != nil {
				return herr
			}
		}
		if err := ctx.Err(); err != nil {
			return err
		}
	}
	return nil
}

// backoff sleeps RetryBackoff·2^(attempt−1) with jitter in the upper
// half of the interval, so re-quotes from many stressed links spread
// out instead of synchronizing.
func (c *Coordinator) backoff(ctx context.Context, attempt int) error {
	shift := attempt - 1
	if shift > maxBackoffStep {
		shift = maxBackoffStep
	}
	ceil := c.cfg.RetryBackoff << shift
	c.mu.Lock()
	jitter := time.Duration(c.rng.Int63n(int64(ceil/2) + 1))
	c.mu.Unlock()
	d := ceil/2 + jitter
	select {
	case <-time.After(d):
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// updateOne performs one vehicle's quote → request → schedule exchange
// and returns |Δp_n|: the sequential composition of the network half
// (collectRequest) and the scheduling half (installRequest).
func (c *Coordinator) updateOne(ctx context.Context, id string, round int) (float64, error) {
	others := othersFrom(c.others, c.totals, c.rowOf(id))
	req, err := c.collectRequest(ctx, id, round, others, c.totals, c.epoch)
	if err != nil {
		return 0, err
	}
	return c.installRequest(ctx, id, round, others, req)
}

// collectRequest is the network half of an exchange: quote Ψ_n against
// the given background load, then wait for a fresh answer. The receive
// side filters the realities of a lossy link: replayed frames
// (sequence number at or below the last accepted one) and
// best-responses to an outdated quote (epoch mismatch) are counted and
// discarded, never water-filled. It never touches the schedule (only
// the mu-guarded sentRow cache), so batched rounds run it concurrently
// for several vehicles.
//
// When totals is non-nil and the link negotiated the binary wire, the
// quote goes out as a QuoteBatch: the shared section totals instead of
// a per-vehicle background vector, with the vehicle's own row elided
// whenever the sentRow cache proves the vehicle already holds it bit
// for bit. The agent reconstructs others = totals − own locally and
// echoes a checksum of the own row it used; a checksum mismatch
// invalidates the cache and retries with the row inlined.
func (c *Coordinator) collectRequest(ctx context.Context, id string, round int, others, totals []float64, epoch uint64) (v2i.Request, error) {
	link := c.links[id]
	rctx, cancel := context.WithTimeout(ctx, c.cfg.RoundTimeout)
	defer cancel()

	// Sends encode synchronously, so the frames may carry the live mask
	// and the schedule row themselves: neither changes while a quote is
	// out.
	var liveMask []bool
	if c.liveCount() != len(c.live) {
		liveMask = c.live
	}
	batched := totals != nil && v2i.WireOf(link) == v2i.WireBinary
	if batched {
		row := c.rowOf(id)
		var own []float64
		if !c.rowInSync(id, row) {
			own = row
		}
		err := v2i.SendMsg(rctx, link, v2i.TypeQuoteBatch, "smart-grid", c.nextSeq(), &v2i.QuoteBatch{
			Round: round, Epoch: epoch, FleetSize: len(c.ids),
			Cost: c.cfg.Cost, Live: liveMask, Totals: totals, Own: own,
		})
		if err != nil {
			return v2i.Request{}, fmt.Errorf("send quote: %w", err)
		}
	} else {
		err := v2i.SendMsg(rctx, link, v2i.TypeQuote, "smart-grid", c.nextSeq(), &v2i.Quote{
			VehicleID: id, Others: others, Cost: c.cfg.Cost, Round: round, Epoch: epoch,
			FleetSize: len(c.ids), Live: liveMask,
		})
		if err != nil {
			return v2i.Request{}, fmt.Errorf("send quote: %w", err)
		}
	}
	c.cfg.Metrics.observeQuote(id, round, epoch, len(c.ids))

	var req v2i.Request
	for {
		reply, err := link.Recv(rctx)
		if err != nil {
			return v2i.Request{}, fmt.Errorf("recv request: %w", err)
		}
		if reply.Type == v2i.TypeBye {
			return v2i.Request{}, errVehicleLeft
		}
		if !c.acceptSeq(id, reply.Seq) {
			continue // duplicated or replayed frame
		}
		if reply.Type != v2i.TypeRequest {
			c.countStale() // e.g. a re-sent Hello; not this exchange's answer
			continue
		}
		if err := v2i.Open(reply, v2i.TypeRequest, &req); err != nil {
			return v2i.Request{}, err
		}
		if req.Epoch != epoch {
			c.countStale() // best-response against an outdated background load
			continue
		}
		break
	}
	if req.TotalKW < 0 || math.IsNaN(req.TotalKW) || math.IsInf(req.TotalKW, 0) {
		return v2i.Request{}, fmt.Errorf("invalid request %v", req.TotalKW)
	}
	if batched && math.Float64bits(req.OwnKWSum) != math.Float64bits(sum(c.rowOf(id))) {
		c.mu.Lock()
		delete(c.sentRow, id)
		c.mu.Unlock()
		c.countStale()
		return v2i.Request{}, errOwnDesync
	}
	return req, nil
}

// rowInSync reports whether the vehicle's cached acknowledged row is
// bit-identical to the live schedule row, i.e. the batch quote may
// elide it.
func (c *Coordinator) rowInSync(id string, row []float64) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	cached, ok := c.sentRow[id]
	if !ok || len(cached) != len(row) {
		return false
	}
	for i := range row {
		if math.Float64bits(cached[i]) != math.Float64bits(row[i]) {
			return false
		}
	}
	return true
}

// acceptSeq records an envelope sequence number, reporting whether the
// frame is fresh; replays are counted as stale.
func (c *Coordinator) acceptSeq(id string, seq uint64) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if seq <= c.lastSeq[id] {
		c.stale++
		if m := c.cfg.Metrics; m != nil {
			m.Stale.Inc()
		}
		return false
	}
	c.lastSeq[id] = seq
	return true
}

func (c *Coordinator) countStale() {
	c.mu.Lock()
	c.stale++
	c.mu.Unlock()
	if m := c.cfg.Metrics; m != nil {
		m.Stale.Inc()
	}
}

// nextSeq returns the next globally monotonic envelope sequence number.
func (c *Coordinator) nextSeq() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.seq++
	return c.seq
}

// installRequest is the scheduling half of an exchange: water-fill the
// request against the background load it was quoted on, advance the
// epoch, and send the vehicle its allocation and payment. Always runs
// on Run's goroutine.
func (c *Coordinator) installRequest(ctx context.Context, id string, round int, others []float64, req v2i.Request) (float64, error) {
	i := c.index[id]
	before := sum(c.row(i))
	payment := c.place(i, others, req)
	alloc := c.row(i)
	c.epoch++ // the background load everyone else was quoted has moved

	sctx, cancel := context.WithTimeout(ctx, c.cfg.RoundTimeout)
	defer cancel()
	err := v2i.SendMsg(sctx, c.links[id], v2i.TypeSchedule, "smart-grid", c.nextSeq(), &v2i.ScheduleMsg{
		VehicleID: id, AllocKW: alloc, PaymentH: payment, Round: round,
	})
	if err != nil {
		return 0, fmt.Errorf("send schedule: %w", err)
	}
	c.ackRow(id, alloc)
	c.cfg.Metrics.observePropose(id, round, c.epoch, req.TotalKW)
	return math.Abs(req.TotalKW - before), nil
}

// ackRow records that the vehicle now holds this exact row (both wires
// transmit exact float bits), so future batch quotes may elide it. It
// caches a copy — outage handling mutates schedule rows in place — in
// the vehicle's existing buffer.
func (c *Coordinator) ackRow(id string, row []float64) {
	c.mu.Lock()
	c.sentRow[id] = append(c.sentRow[id][:0], row...)
	c.mu.Unlock()
}

// place water-fills req against the quoted background others and
// installs the allocation into slab row i, maintaining P_c by
// per-section deltas; it returns the payment Ψ_n(p_n). Dead sections
// take no power: the fill and the price run over the compacted live
// vector, and the row gets zeroed holes.
func (c *Coordinator) place(i int, others []float64, req v2i.Request) float64 {
	idx := c.liveIndices()
	if idx != nil {
		others = compactTo(c.compact, others, idx)
	}
	c.psi.Reset(c.cost, others, req.DrawCapKW)
	alloc := c.fill[:len(others)]
	c.psi.Fill(alloc, req.TotalKW)
	payment := c.psi.At(req.TotalKW)
	if idx != nil {
		alloc = scatterFrom(c.alloc, alloc, idx)
	}
	row := c.row(i)
	for s, v := range alloc {
		if v != row[s] {
			// Out with the old value, clamped against float drift as
			// othersFrom clamps, then in with the new: a vehicle alone
			// on a section keeps P_c equal to its own row bit for bit,
			// so its P_−n there stays exactly 0.
			c.totals[s] = max(c.totals[s]-row[s], 0) + v
			row[s] = v
		}
	}
	return payment
}

// saveCheckpoint journals the converged schedule as the new
// last-known-good. Persistence is best-effort: a journal write
// failure degrades crash recovery, not the live run.
func (c *Coordinator) saveCheckpoint(round int) bool {
	if c.cfg.Journal == nil {
		return false
	}
	c.mu.Lock()
	seq := c.seq
	c.mu.Unlock()
	cp := Checkpoint{
		Epoch:       c.epoch,
		Round:       round,
		NumSections: c.cfg.NumSections,
		Seq:         seq,
		Schedule:    make(map[string][]float64, len(c.ids)),
	}
	for i, id := range c.ids {
		cp.Schedule[id] = slices.Clone(c.row(i))
	}
	saved := c.cfg.Journal.Save(cp) == nil
	if m := c.cfg.Metrics; m != nil && saved {
		m.Checkpoints.Inc()
	}
	return saved
}

// fallBackToLastGood replaces a half-settled schedule with the
// journaled last converged one after MaxRounds ran out: the grid
// degrades to the previous feasible operating point instead of
// serving an un-converged schedule.
func (c *Coordinator) fallBackToLastGood() bool {
	if c.cfg.Journal == nil {
		return false
	}
	cp, ok, err := c.cfg.Journal.Load()
	if err != nil || !ok {
		return false
	}
	return c.restoreCheckpoint(cp)
}

// restoreCheckpoint copies a compatible checkpoint's rows over the
// current fleet: vehicles present in both keep their journaled
// allocation, vehicles unknown to the checkpoint reset to zero.
func (c *Coordinator) restoreCheckpoint(cp Checkpoint) bool {
	if cp.NumSections != c.cfg.NumSections {
		return false
	}
	for i, id := range c.ids {
		row := c.row(i)
		clear(row)
		if saved, ok := cp.Schedule[id]; ok && len(saved) == c.cfg.NumSections {
			copy(row, saved)
		}
	}
	c.resum()
	if cp.Epoch >= c.epoch {
		c.epoch = cp.Epoch
	}
	c.epoch++
	return true
}

// broadcastDone tells every agent the game is over. Failures here are
// deliberately ignored: agents also exit on transport close.
func (c *Coordinator) broadcastDone(ctx context.Context, report Report) {
	for _, link := range c.links {
		bctx, cancel := context.WithTimeout(ctx, c.cfg.RoundTimeout)
		_ = v2i.SendMsg(bctx, link, v2i.TypeConverged, "smart-grid", c.nextSeq(), &v2i.Converged{
			Rounds:           report.Rounds,
			CongestionDegree: report.CongestionDegree,
			WelfarePerHour:   -report.WelfareCost,
		})
		_ = v2i.SendMsg(bctx, link, v2i.TypeBye, "smart-grid", c.nextSeq(), &v2i.Bye{Reason: "converged"})
		cancel()
	}
}

// row returns vehicle i's live schedule row, a window on the slab.
func (c *Coordinator) row(i int) []float64 {
	nc := c.cfg.NumSections
	return c.rows[i*nc : (i+1)*nc : (i+1)*nc]
}

// rowOf returns the live schedule row of a registered vehicle.
func (c *Coordinator) rowOf(id string) []float64 { return c.row(c.index[id]) }

// reindex refreshes index for every slab position from i on, after an
// insertion or deletion shifted them.
func (c *Coordinator) reindex(i int) {
	for ; i < len(c.ids); i++ {
		c.index[c.ids[i]] = i
	}
}

// addRow inserts a vehicle's row at its sorted position in the slab,
// seeded from seed (zero when nil). The caller re-sums.
func (c *Coordinator) addRow(id string, seed []float64) {
	nc := c.cfg.NumSections
	i, _ := slices.BinarySearch(c.ids, id)
	c.ids = slices.Insert(c.ids, i, id)
	c.rows = slices.Insert(c.rows, i*nc, make([]float64, nc)...)
	copy(c.row(i), seed)
	c.reindex(i)
}

// resum rebuilds P_c exactly from the slab, accumulating rows in index
// (sorted vehicle-ID) order. The order matters: float addition is not
// associative, and a fixed order keeps the schedule's arithmetic
// deterministic run to run.
func (c *Coordinator) resum() {
	clear(c.totals)
	for i := range c.ids {
		for s, v := range c.row(i) {
			c.totals[s] += v
		}
	}
}

// othersFrom writes P_−n = totals − own into dst, elementwise, clamped
// at 0 against float drift (as core's round engine and
// Schedule.OthersSectionTotals clamp), and returns it. This is the
// exact arithmetic a batch-quoted agent performs locally, so the
// coordinator uses the same derivation on the unicast path — the two
// wires then quote bit-identical background loads.
func othersFrom(dst, totals, own []float64) []float64 {
	dst = dst[:0]
	for i, t := range totals {
		dst = append(dst, max(t-own[i], 0))
	}
	return dst
}

// CongestionDegree returns Σp / ΣP_line.
func (c *Coordinator) CongestionDegree() float64 {
	return c.totalPower() / (float64(c.cfg.NumSections) * c.cfg.LineCapacityKW)
}

func (c *Coordinator) totalPower() float64 {
	return sum(c.totals)
}

func (c *Coordinator) welfareCost() float64 {
	var total float64
	for _, pc := range c.totals {
		total += c.cost.Cost(pc)
	}
	return total
}

func sum(vs []float64) float64 {
	var s float64
	for _, v := range vs {
		s += v
	}
	return s
}

// CollectHellos accepts one Hello per expected vehicle from a server,
// returning the transports keyed by vehicle ID. It is the listener
// half of a TCP deployment.
func CollectHellos(ctx context.Context, srv *v2i.Server, expect int, timeout time.Duration) (map[string]v2i.Transport, error) {
	if expect < 1 {
		return nil, fmt.Errorf("sched: expect %d vehicles", expect)
	}
	links := make(map[string]v2i.Transport, expect)
	for len(links) < expect {
		t, err := srv.Accept()
		if err != nil {
			closeAll(links)
			return nil, err
		}
		hctx, cancel := context.WithTimeout(ctx, timeout)
		env, err := t.Recv(hctx)
		cancel()
		if err != nil {
			_ = t.Close()
			closeAll(links)
			return nil, fmt.Errorf("sched: hello: %w", err)
		}
		var hello v2i.Hello
		if err := v2i.Open(env, v2i.TypeHello, &hello); err != nil {
			_ = t.Close()
			closeAll(links)
			return nil, err
		}
		if hello.VehicleID == "" {
			_ = t.Close()
			closeAll(links)
			return nil, errors.New("sched: hello without vehicle ID")
		}
		if _, dup := links[hello.VehicleID]; dup {
			_ = t.Close()
			closeAll(links)
			return nil, fmt.Errorf("sched: duplicate vehicle %q", hello.VehicleID)
		}
		links[hello.VehicleID] = t
	}
	return links, nil
}

func closeAll(links map[string]v2i.Transport) {
	for _, t := range links {
		_ = t.Close()
	}
}
