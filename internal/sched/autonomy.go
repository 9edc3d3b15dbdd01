package sched

import (
	"context"
	"errors"
	"net"
	"os"
	"time"
)

// Degraded-mode autonomy (tentpole part 2): when the control plane
// goes silent — coordinator crash, network partition, failover gap —
// an OLEV must keep operating the charging pickup rather than hold an
// arbitrary stale setpoint. The fallback is the proportional-fair
// split of the last-known usable section capacities: every vehicle
// drawing capacity/fleet per live section is feasible by construction
// (the sum over the fleet is exactly the quoted ηP_line per section),
// needs no communication, and is the symmetric-fair operating point
// the paper's own equal-split baseline uses. It is deliberately not an
// equilibrium: the moment a coordinator answers again the normal
// best-response protocol resumes and converges to the exact optimum
// (Theorem IV.1 — the fallback is just another feasible start), which
// the chaos suite pins to within 1% welfare of a clean run.

// AutonomyConfig arms an agent's degraded-mode fallback. The zero
// value (nil pointer) leaves autonomy off: agents block on Recv
// indefinitely, the pre-failover behavior.
type AutonomyConfig struct {
	// QuoteDeadline is the longest silence — no quote, schedule, or
	// heartbeat — before the agent declares the control plane gone and
	// computes a local fallback.
	QuoteDeadline time.Duration
	// StalenessTTL bounds how old the last-known grid state may be and
	// still ground a fallback; past it the agent sheds to zero draw,
	// the only always-safe setpoint. Zero means no ceiling.
	StalenessTTL time.Duration
}

// fallbackKW computes the degraded-mode draw from the last quote's
// grid state: a per-capita share of each live section's usable
// capacity, clamped to the vehicle's own Eq. (2)/(3) limits.
func (a *Agent) fallbackKW(now time.Time) float64 {
	au := a.cfg.Autonomy
	if a.lastQuoteAt.IsZero() {
		return 0 // never saw the grid: nothing safe to assume
	}
	if au.StalenessTTL > 0 && now.Sub(a.lastQuoteAt) > au.StalenessTTL {
		return 0 // state too old to trust
	}
	q := &a.lastQuote
	capKW := q.Cost.OverloadCapacityKW // ηP_line when the penalty is armed
	if capKW <= 0 {
		capKW = q.Cost.LineCapacityKW
	}
	if capKW <= 0 {
		return 0
	}
	fleet := q.FleetSize
	if fleet < 1 {
		fleet = 1
	}
	numLive := len(q.Others)
	if q.Live != nil {
		numLive = 0
		for _, ok := range q.Live {
			if ok {
				numLive++
			}
		}
	}
	share := capKW / float64(fleet)
	if a.cfg.MaxSectionDrawKW > 0 && share > a.cfg.MaxSectionDrawKW {
		share = a.cfg.MaxSectionDrawKW
	}
	total := share * float64(numLive)
	if a.cfg.MaxPowerKW > 0 && total > a.cfg.MaxPowerKW {
		total = a.cfg.MaxPowerKW
	}
	return total
}

// isSilenceTimeout reports whether a Recv error is the autonomy
// deadline firing (as opposed to the session ending): a context
// deadline on the in-memory transport, or a connection read deadline
// on TCP.
func isSilenceTimeout(err error) bool {
	if errors.Is(err, context.DeadlineExceeded) || errors.Is(err, os.ErrDeadlineExceeded) {
		return true
	}
	var ne net.Error
	return errors.As(err, &ne) && ne.Timeout()
}
