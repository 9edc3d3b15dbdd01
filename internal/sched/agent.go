package sched

import (
	"context"
	"errors"
	"fmt"
	"time"

	"olevgrid/internal/core"
	"olevgrid/internal/obs"
	"olevgrid/internal/v2i"
)

// AgentConfig configures one OLEV's side of the protocol.
type AgentConfig struct {
	// VehicleID identifies the OLEV.
	VehicleID string
	// MaxPowerKW is the Eq. (2) ceiling P^OLEV_n.
	MaxPowerKW float64
	// Satisfaction is the private U_n; the coordinator never sees it.
	Satisfaction core.Satisfaction
	// MaxSectionDrawKW is the vehicle's Eq. (3) per-section coupling
	// limit; zero means uncapped.
	MaxSectionDrawKW float64
	// Hello optionally carries extra registration fields.
	VelocityMS float64
	SOC        float64
	// Autonomy, when set, arms the degraded-mode fallback: a control
	// plane silent past the deadline budget makes the agent hold a
	// local proportional-fair setpoint instead of blocking forever.
	// Nil keeps the pre-failover blocking behavior.
	Autonomy *AutonomyConfig
	// Metrics, if non-nil, mirrors the degraded-mode accounting
	// (DegradedEpisodes/Reconnects/Heartbeats) onto shared obs gauges
	// as the events happen and emits degraded/reconnect spans; the
	// autonomy conformance test proves the gauges equal the legacy
	// AgentResult counters. A fleet may share one bundle — the gauge
	// Add is CAS-exact under concurrency. Nil is the off switch.
	Metrics *Metrics
}

// Validate reports the first problem with the configuration.
func (c AgentConfig) Validate() error {
	if c.VehicleID == "" {
		return errors.New("sched: agent needs a vehicle ID")
	}
	if c.MaxPowerKW < 0 {
		return fmt.Errorf("sched: agent %s max power %v negative", c.VehicleID, c.MaxPowerKW)
	}
	if c.Satisfaction == nil {
		return fmt.Errorf("sched: agent %s needs a satisfaction function", c.VehicleID)
	}
	return nil
}

// AgentResult summarizes an agent's session.
type AgentResult struct {
	// FinalRequestKW is the last total the agent requested.
	FinalRequestKW float64
	// FinalAllocKW is the last schedule the grid confirmed.
	FinalAllocKW []float64
	// FinalPaymentH is the payment attached to the last schedule.
	FinalPaymentH float64
	// Rounds counts quote/request exchanges.
	Rounds int
	// Converged reports whether the grid announced convergence.
	Converged bool
	// StaleDropped counts grid frames the agent discarded as replays
	// or reordered-late deliveries.
	StaleDropped int
	// DegradedEpisodes counts silences that tripped the autonomy
	// deadline and put the agent on its local fallback.
	DegradedEpisodes int
	// Reconnects counts recoveries: a grid frame arriving while the
	// agent was degraded.
	Reconnects int
	// LastFallbackKW is the local setpoint the agent held during its
	// most recent degraded episode (zero when state was too stale).
	LastFallbackKW float64
	// Heartbeats counts liveness beacons received.
	Heartbeats int
}

// Agent is one OLEV's protocol driver.
type Agent struct {
	cfg  AgentConfig
	link v2i.Transport
	seq  uint64
	// gridSeq is the highest grid sequence number seen; duplicated or
	// reordered-late grid frames are dropped instead of answered, so a
	// chaotic link cannot make the agent best-respond to an old quote
	// after a newer one.
	gridSeq uint64
	// lastQuote and lastQuoteAt ground the degraded-mode fallback: the
	// last grid state this agent saw, and when (zero before the first
	// quote).
	lastQuote   v2i.Quote
	lastQuoteAt time.Time
	// lastAlloc is the own schedule row the grid last confirmed (exact
	// float bits, both wires). A batched quote that elides the own row
	// is reconstructed against it: others = totals − lastAlloc.
	lastAlloc []float64
	// degraded marks an autonomy episode in progress, so the next
	// successful Recv counts as a reconnect.
	degraded bool
	// psi is the Ψ kernel re-quoted for every answered quote.
	psi core.PaymentFunction
	// cost is BuildCost(costSpec), rebuilt only when a quote carries a
	// different spec (a price-feed step).
	costSpec v2i.CostSpec
	cost     core.CostFunction
	// others holds a batch quote's reconstructed P_−n and compact its
	// live sections; both are reused across quotes.
	others, compact []float64
}

// NewAgent validates and builds an agent over an established link.
func NewAgent(cfg AgentConfig, link v2i.Transport) (*Agent, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if link == nil {
		return nil, errors.New("sched: agent needs a transport")
	}
	return &Agent{cfg: cfg, link: link}, nil
}

// Hello registers the agent with the smart grid. TCP deployments call
// it once before Run; in-memory deployments may skip it since the
// coordinator is constructed with the links already keyed.
func (a *Agent) Hello(ctx context.Context) error {
	a.seq++
	return v2i.SendMsg(ctx, a.link, v2i.TypeHello, a.cfg.VehicleID, a.seq, &v2i.Hello{
		VehicleID:  a.cfg.VehicleID,
		MaxPowerKW: a.cfg.MaxPowerKW,
		VelocityMS: a.cfg.VelocityMS,
		SOC:        a.cfg.SOC,
	})
}

// Run answers quotes with best responses until the grid says the game
// is over or the context/link ends.
func (a *Agent) Run(ctx context.Context) (AgentResult, error) {
	var res AgentResult
	for {
		rctx, cancel := ctx, context.CancelFunc(nil)
		if a.cfg.Autonomy != nil && a.cfg.Autonomy.QuoteDeadline > 0 {
			rctx, cancel = context.WithTimeout(ctx, a.cfg.Autonomy.QuoteDeadline)
		}
		env, err := a.link.Recv(rctx)
		if cancel != nil {
			cancel()
		}
		if err != nil {
			if a.cfg.Autonomy != nil && ctx.Err() == nil && isSilenceTimeout(err) {
				// The control plane went silent past the deadline
				// budget: hold the local proportional-fair fallback and
				// keep listening — a recovered coordinator (or a
				// standby's first quote) resumes the exact protocol.
				first := !a.degraded
				if first {
					res.DegradedEpisodes++
					a.degraded = true
				}
				res.LastFallbackKW = a.fallbackKW(time.Now())
				if m := a.cfg.Metrics; m != nil && first {
					m.DegradedEpisodes.Add(1)
					m.Sink.Emit(obs.EventDegraded, a.cfg.VehicleID, int32(res.Rounds), -1, res.LastFallbackKW)
				}
				continue
			}
			if isDeparture(err) && res.Rounds > 0 {
				// The grid hung up after at least one exchange —
				// including the case where the final Bye frame was lost
				// on a faulty link; treat the session as complete.
				return res, nil
			}
			return res, fmt.Errorf("sched: agent %s recv: %w", a.cfg.VehicleID, err)
		}
		if a.degraded {
			a.degraded = false
			res.Reconnects++
			if m := a.cfg.Metrics; m != nil {
				m.Reconnects.Add(1)
				m.Sink.Emit(obs.EventReconnect, a.cfg.VehicleID, int32(res.Rounds), -1, 0)
			}
		}
		// Drop replays and reordered-late frames (a peer that does not
		// stamp sequence numbers sends 0 and bypasses the filter).
		if env.Seq != 0 {
			if env.Seq <= a.gridSeq {
				res.StaleDropped++
				continue
			}
			a.gridSeq = env.Seq
		}
		switch env.Type {
		case v2i.TypeQuote:
			if err := a.answerQuote(ctx, env, &res); err != nil {
				return res, err
			}
		case v2i.TypeQuoteBatch:
			if err := a.answerBatch(ctx, env, &res); err != nil {
				return res, err
			}
		case v2i.TypeSchedule:
			var msg v2i.ScheduleMsg
			if err := v2i.Open(env, v2i.TypeSchedule, &msg); err != nil {
				return res, err
			}
			res.FinalAllocKW = msg.AllocKW
			res.FinalPaymentH = msg.PaymentH
			a.lastAlloc = msg.AllocKW
		case v2i.TypeConverged:
			res.Converged = true
		case v2i.TypeHeartbeat:
			res.Heartbeats++ // liveness only; receiving it reset the silence clock
			if m := a.cfg.Metrics; m != nil {
				m.Heartbeats.Add(1)
			}
		case v2i.TypeBye:
			return res, nil
		default:
			return res, fmt.Errorf("sched: agent %s: unexpected %s", a.cfg.VehicleID, env.Type)
		}
	}
}

// answerQuote computes the best response to a quoted payment function
// and sends the request.
func (a *Agent) answerQuote(ctx context.Context, env v2i.Envelope, res *AgentResult) error {
	var quote v2i.Quote
	if err := v2i.Open(env, v2i.TypeQuote, &quote); err != nil {
		return err
	}
	return a.respond(ctx, &quote, 0, res)
}

// answerBatch answers a coalesced quote: reconstruct the private
// background load as totals − own — own taken from the frame when
// present, else from the last confirmed schedule row — then best
// respond exactly as for a unicast quote. The request echoes a
// checksum of the own row used, so a coordinator whose row cache
// drifted (a lost ScheduleMsg) detects the desync and re-quotes with
// the row inlined.
func (a *Agent) answerBatch(ctx context.Context, env v2i.Envelope, res *AgentResult) error {
	var qb v2i.QuoteBatch
	if err := v2i.Open(env, v2i.TypeQuoteBatch, &qb); err != nil {
		return err
	}
	own := qb.Own
	if own == nil {
		if len(a.lastAlloc) == len(qb.Totals) {
			own = a.lastAlloc
		} else {
			own = make([]float64, len(qb.Totals)) // never scheduled: zero row
		}
	} else {
		if len(own) != len(qb.Totals) {
			return fmt.Errorf("sched: agent %s: batch own width %d, totals width %d",
				a.cfg.VehicleID, len(own), len(qb.Totals))
		}
		a.lastAlloc = own // the grid just told us our row authoritatively
	}
	a.others = othersFrom(a.others, qb.Totals, own)
	quote := v2i.Quote{
		VehicleID: a.cfg.VehicleID, Others: a.others,
		Cost: qb.Cost, Round: qb.Round, Epoch: qb.Epoch,
		FleetSize: qb.FleetSize, Live: qb.Live,
	}
	return a.respond(ctx, &quote, sum(own), res)
}

// respond computes the best response to a quote (unicast or
// reconstructed from a batch) and sends the request. ownSum is echoed
// as the batch desync checksum; unicast answers pass the zero value,
// which the omitempty JSON field drops — unicast wire bytes are
// unchanged.
func (a *Agent) respond(ctx context.Context, quote *v2i.Quote, ownSum float64, res *AgentResult) error {
	a.lastQuote = *quote
	a.lastQuoteAt = time.Now()
	if a.cost == nil || quote.Cost != a.costSpec {
		cost, err := BuildCost(quote.Cost)
		if err != nil {
			return err
		}
		a.cost, a.costSpec = cost, quote.Cost
	}
	// A quote flagging dead sections prices only the live ones: the
	// best response is computed over the compacted vector, and the
	// grid water-fills the answer over the same live set.
	others := quote.Others
	if len(quote.Live) == len(others) {
		a.compact = a.compact[:0]
		for i, ok := range quote.Live {
			if ok {
				a.compact = append(a.compact, others[i])
			}
		}
		others = a.compact
	}
	a.psi.Reset(a.cost, others, a.cfg.MaxSectionDrawKW)
	request := a.psi.BestResponse(a.cfg.Satisfaction, a.cfg.MaxPowerKW)

	a.seq++
	err := v2i.SendMsg(ctx, a.link, v2i.TypeRequest, a.cfg.VehicleID, a.seq, &v2i.Request{
		VehicleID: a.cfg.VehicleID, TotalKW: request,
		DrawCapKW: a.cfg.MaxSectionDrawKW, Round: quote.Round,
		Epoch: quote.Epoch, OwnKWSum: ownSum,
	})
	if err != nil {
		return fmt.Errorf("sched: agent %s send request: %w", a.cfg.VehicleID, err)
	}
	res.FinalRequestKW = request
	res.Rounds++
	return nil
}

// RunTCP is the full client-side lifecycle for a TCP deployment:
// dial, hello, run.
func RunTCP(ctx context.Context, addr string, cfg AgentConfig) (AgentResult, error) {
	return RunTCPWire(ctx, addr, cfg, v2i.WireJSON)
}

// RunTCPWire is RunTCP offering a wire codec at dial time; the
// negotiated wire is whatever the server accepts (a JSON-only server
// settles a binary-offering agent down to JSON).
func RunTCPWire(ctx context.Context, addr string, cfg AgentConfig, w v2i.Wire) (AgentResult, error) {
	link, err := v2i.DialWire(ctx, addr, w)
	if err != nil {
		return AgentResult{}, err
	}
	defer func() { _ = link.Close() }()
	agent, err := NewAgent(cfg, link)
	if err != nil {
		return AgentResult{}, err
	}
	hctx, cancel := context.WithTimeout(ctx, 5*time.Second)
	err = agent.Hello(hctx)
	cancel()
	if err != nil {
		return AgentResult{}, err
	}
	return agent.Run(ctx)
}
