package core

import (
	"fmt"
	"math"
)

// Player is one OLEV as the game sees it: an identity, the Eq. (2)
// power ceiling P^OLEV_n, and a private satisfaction function the
// smart grid never observes.
type Player struct {
	ID           string
	MaxPowerKW   float64
	Satisfaction Satisfaction
	// MaxSectionDrawKW is Eq. (3)'s per-section coupling limit
	// P_line(vel_n) for this vehicle; zero or negative means
	// unconstrained (the homogeneous-velocity setting, where the
	// shared section capacity already encodes it).
	MaxSectionDrawKW float64
}

// Config configures a Game. The paper's setting has identical charging
// sections, so one line capacity, safety factor and section cost are
// shared by all C sections — the premise under which Lemma IV.1's
// water-filling is the exact minimum-cost schedule.
type Config struct {
	// Players are the participating OLEVs.
	Players []Player
	// NumSections is C.
	NumSections int
	// LineCapacityKW is P_line of Eq. (1) for every section.
	LineCapacityKW float64
	// Eta is the smart grid's safety factor η ∈ (0, 1]; the usable
	// capacity of each section is η·P_line (Eq. 4).
	Eta float64
	// Cost is the shared section cost Z(·) of Eq. (6).
	Cost CostFunction
	// InitialSchedule, when non-nil, warm-starts the game from a prior
	// equilibrium instead of the all-zero schedule. Theorem IV.1
	// guarantees convergence to the social optimum from any feasible
	// starting point, so seeding only changes round counts, never the
	// destination; build one from an earlier game with ProjectSchedule.
	// Dimensions must match Players × NumSections.
	InitialSchedule *Schedule
}

// Validate reports the first problem with the configuration.
func (c Config) Validate() error {
	if len(c.Players) == 0 {
		return fmt.Errorf("core: game needs at least one player")
	}
	seen := make(map[string]struct{}, len(c.Players))
	for i, p := range c.Players {
		if p.ID == "" {
			return fmt.Errorf("core: player %d has an empty ID", i)
		}
		if _, dup := seen[p.ID]; dup {
			return fmt.Errorf("core: duplicate player ID %q", p.ID)
		}
		seen[p.ID] = struct{}{}
		if p.MaxPowerKW < 0 || math.IsNaN(p.MaxPowerKW) {
			return fmt.Errorf("core: player %q max power %v must be non-negative", p.ID, p.MaxPowerKW)
		}
		if p.Satisfaction == nil {
			return fmt.Errorf("core: player %q has no satisfaction function", p.ID)
		}
	}
	if c.NumSections < 1 {
		return fmt.Errorf("core: need at least one section, got %d", c.NumSections)
	}
	if c.LineCapacityKW <= 0 || math.IsNaN(c.LineCapacityKW) {
		return fmt.Errorf("core: line capacity %v must be positive", c.LineCapacityKW)
	}
	if c.Eta <= 0 || c.Eta > 1 {
		return fmt.Errorf("core: safety factor %v outside (0, 1]", c.Eta)
	}
	if c.Cost == nil {
		return fmt.Errorf("core: game needs a section cost function")
	}
	if c.InitialSchedule != nil {
		if err := validateInitialSchedule(c.InitialSchedule, len(c.Players), c.NumSections); err != nil {
			return err
		}
	}
	return nil
}

// Game is the strategic game of Section IV: the smart grid holds the
// current schedule and quotes payment functions; OLEVs best-respond.
// A Game is not safe for concurrent use — the decentralized framework
// in internal/sched serializes access the way the smart grid would.
type Game struct {
	cfg      Config
	schedule *Schedule
}

// NewGame constructs a game with an all-zero initial schedule, or —
// when cfg.InitialSchedule is set — warm-started from that schedule.
func NewGame(cfg Config) (*Game, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	players := make([]Player, len(cfg.Players))
	copy(players, cfg.Players)
	cfg.Players = players
	var s *Schedule
	if cfg.InitialSchedule != nil {
		s = cfg.InitialSchedule.Clone()
		cfg.InitialSchedule = nil // the game owns its copy
	} else {
		var err error
		s, err = NewSchedule(len(cfg.Players), cfg.NumSections)
		if err != nil {
			return nil, err
		}
	}
	return &Game{cfg: cfg, schedule: s}, nil
}

// NumPlayers returns N.
func (g *Game) NumPlayers() int { return len(g.cfg.Players) }

// NumSections returns C.
func (g *Game) NumSections() int { return g.cfg.NumSections }

// Player returns the n-th player definition.
func (g *Game) Player(n int) Player { return g.cfg.Players[n] }

// Schedule returns a deep copy of the current power schedule.
func (g *Game) Schedule() *Schedule { return g.schedule.Clone() }

// SectionTotals returns the current per-section totals (P_1…P_C).
func (g *Game) SectionTotals() []float64 { return g.schedule.SectionTotals() }

// SectionCapacityKW returns the usable capacity η·P_line.
func (g *Game) SectionCapacityKW() float64 {
	return g.cfg.Eta * g.cfg.LineCapacityKW
}

// TotalPowerKW returns the total scheduled power Σ_n p_n.
func (g *Game) TotalPowerKW() float64 { return g.schedule.Total() }

// CongestionDegree returns Σ_c P_c / Σ_c P_line, the paper's measure
// of how loaded the charging infrastructure is.
func (g *Game) CongestionDegree() float64 {
	return g.schedule.Total() / (float64(g.cfg.NumSections) * g.cfg.LineCapacityKW)
}

// Welfare returns the social welfare W(p) of Eq. (7) for the current
// schedule: total satisfaction minus total section cost, in $/h.
func (g *Game) Welfare() float64 {
	d := g.WelfareBreakdown()
	return d.Satisfaction - d.SectionCost
}

// WelfareParts decomposes W(p) into its Eq. (7) terms.
type WelfareParts struct {
	// Satisfaction is Σ_n U_n(p_n) in $/h.
	Satisfaction float64
	// SectionCost is Σ_c Z(P_c) in $/h.
	SectionCost float64
}

// Welfare returns Satisfaction − SectionCost.
func (w WelfareParts) Welfare() float64 { return w.Satisfaction - w.SectionCost }

// WelfareBreakdown returns the decomposed social welfare, used by
// reports that need to show where welfare comes from.
func (g *Game) WelfareBreakdown() WelfareParts {
	var parts WelfareParts
	for n, p := range g.cfg.Players {
		parts.Satisfaction += p.Satisfaction.Value(g.schedule.OLEVTotal(n))
	}
	for _, pc := range g.schedule.SectionTotals() {
		parts.SectionCost += g.cfg.Cost.Cost(pc)
	}
	return parts
}

// PaymentOf returns ξ_n for player n's current allocation.
func (g *Game) PaymentOf(n int) float64 {
	others := g.schedule.OthersSectionTotals(n)
	costs := make([]CostFunction, g.cfg.NumSections)
	for c := range costs {
		costs[c] = g.cfg.Cost
	}
	return Payment(costs, others, g.schedule.Row(n))
}

// TotalPayment returns Σ_n ξ_n.
func (g *Game) TotalPayment() float64 {
	var total float64
	for n := range g.cfg.Players {
		total += g.PaymentOf(n)
	}
	return total
}

// UnitPaymentPerMWh returns the average unit payment in $/MWh — the
// y-axis of Fig. 5(a)/6(a). The schedule is a power snapshot, so the
// ratio of cost rate to power is a $/kWh price, scaled to $/MWh.
func (g *Game) UnitPaymentPerMWh() float64 {
	power := g.schedule.Total()
	if power <= 0 {
		return 0
	}
	return g.TotalPayment() / power * 1000
}

// UtilityOf returns F_n = U_n(p_n) − ξ_n for player n.
func (g *Game) UtilityOf(n int) float64 {
	return g.cfg.Players[n].Satisfaction.Value(g.schedule.OLEVTotal(n)) - g.PaymentOf(n)
}

// UpdateOne performs one asynchronous step of Section IV-D for player
// n: quote Ψ_n against the current schedule, best-respond, water-fill
// the new total, install the row. It returns |Δp_n|, the change in the
// player's total request.
func (g *Game) UpdateOne(n int) float64 {
	if n < 0 || n >= len(g.cfg.Players) {
		return 0
	}
	player := g.cfg.Players[n]
	var psi PaymentFunction
	psi.Reset(g.cfg.Cost, g.schedule.OthersSectionTotals(n), player.MaxSectionDrawKW)
	before := g.schedule.OLEVTotal(n)
	target := psi.BestResponse(player.Satisfaction, player.MaxPowerKW)
	row := make([]float64, g.cfg.NumSections)
	psi.Fill(row, target)
	g.schedule.SetRow(n, row)
	return math.Abs(target - before)
}

// UpdateOrder selects how the asynchronous framework picks the next
// OLEV to update.
type UpdateOrder int

const (
	// OrderRoundRobin cycles players 0…N−1, the predefined cycle the
	// convergence proof assumes.
	OrderRoundRobin UpdateOrder = iota + 1
	// OrderRandom shuffles the cycle each round, the "randomly chosen
	// OLEV" variant of Section IV-D.
	OrderRandom
)

// RunOptions configures Game.Run.
type RunOptions struct {
	// MaxUpdates bounds total single-player updates; 0 means 1000·N.
	MaxUpdates int
	// Tolerance declares convergence when no player's request moved
	// more than this over a full cycle; 0 means 1e-6.
	Tolerance float64
	// Order selects the update order; 0 means OrderRoundRobin.
	Order UpdateOrder
	// Seed seeds the shuffle for OrderRandom.
	Seed int64
	// OnUpdate, if non-nil, observes the game after every update.
	OnUpdate func(update int, g *Game)
}

// Result reports a Run.
type Result struct {
	// Updates is the number of single-player updates performed.
	Updates int
	// Converged reports whether the tolerance criterion was met.
	Converged bool
	// Welfare is W(p) after each update.
	Welfare []float64
	// Congestion is the congestion degree after each update.
	Congestion []float64
}

// Run executes the asynchronous best-response iteration until the
// schedule converges or MaxUpdates is exhausted, returning the
// trajectory. It is the round engine (RunParallel) at one worker and
// BatchSize 1 — every update an exact Gauss–Seidel step — with the
// update budget allowed to end a round early. Theorem IV.1 guarantees
// convergence to the socially optimal schedule; the welfare trajectory
// in the result is non-decreasing (up to float noise), which tests
// assert.
func (g *Game) Run(opts RunOptions) Result {
	n := len(g.cfg.Players)
	if opts.MaxUpdates <= 0 {
		opts.MaxUpdates = 1000 * n
	}
	e := newRoundEngine(g, 1, 1, opts.Tolerance)
	return e.loop(ParallelOptions{
		MaxRounds: (opts.MaxUpdates + n - 1) / n,
		Tolerance: opts.Tolerance,
		Order:     opts.Order,
		Seed:      opts.Seed,
	}, opts.MaxUpdates, opts.OnUpdate).Result
}
