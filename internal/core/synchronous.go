package core

import "olevgrid/internal/stats"

// RunSynchronous is the Jacobi ablation of the asynchronous scheme:
// every round, all players best-respond simultaneously against the
// same frozen schedule, and the new rows are installed together.
//
// The paper's framework is deliberately *asynchronous* (one OLEV per
// update, Section IV-D) because sequential best response in an exact
// potential game is monotone in the potential. Simultaneous response
// is not: symmetric players all chase the same under-priced sections
// at once, overshoot together, and can cycle. This method exists so
// the ablation bench can demonstrate that failure mode; production
// callers should use Run.
func (g *Game) RunSynchronous(opts RunOptions) Result {
	n := len(g.cfg.Players)
	if opts.MaxUpdates <= 0 {
		opts.MaxUpdates = 1000 * n
	}
	if opts.Tolerance <= 0 {
		opts.Tolerance = 1e-6
	}

	var res Result
	var psi PaymentFunction
	rows := make([][]float64, n)
	for i := range rows {
		rows[i] = make([]float64, g.cfg.NumSections)
	}
	for res.Updates < opts.MaxUpdates {
		// Phase 1: everyone quotes and responds against the frozen
		// schedule.
		var roundMax float64
		for i := 0; i < n; i++ {
			player := g.cfg.Players[i]
			psi.Reset(g.cfg.Cost, g.schedule.OthersSectionTotals(i), player.MaxSectionDrawKW)
			before := g.schedule.OLEVTotal(i)
			target := psi.BestResponse(player.Satisfaction, player.MaxPowerKW)
			psi.Fill(rows[i], target)
			if d := abs(target - before); d > roundMax {
				roundMax = d
			}
		}
		// Phase 2: install simultaneously.
		for i := 0; i < n; i++ {
			g.schedule.SetRow(i, rows[i])
			res.Updates++
			res.Welfare = append(res.Welfare, g.Welfare())
			res.Congestion = append(res.Congestion, g.CongestionDegree())
			if opts.OnUpdate != nil {
				opts.OnUpdate(res.Updates, g)
			}
		}
		if roundMax < opts.Tolerance {
			res.Converged = true
			break
		}
	}
	return res
}

// OscillationAmplitude measures the peak-to-peak swing of the tail of
// a trajectory — the scalar the Jacobi ablation reports. tailFrac in
// (0, 1] selects how much of the end of the series to examine.
func OscillationAmplitude(series []float64, tailFrac float64) float64 {
	if len(series) == 0 {
		return 0
	}
	if tailFrac <= 0 || tailFrac > 1 {
		tailFrac = 0.25
	}
	start := len(series) - int(float64(len(series))*tailFrac)
	if start < 0 {
		start = 0
	}
	var s stats.Summary
	s.AddAll(series[start:])
	return s.Max() - s.Min()
}

func abs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}
