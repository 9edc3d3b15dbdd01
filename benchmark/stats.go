package main

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// minBeyond is how many samples must lie above a reported percentile:
// fewer, and the percentile is the largest sample or close to it, which
// measures one outlier rather than the distribution.
const minBeyond = 10

// percentile returns the nearest-rank p-th percentile of xs (0 < p <
// 100) and refuses one that has fewer than minBeyond samples beyond it.
func percentile(xs []float64, p float64) (float64, error) {
	n := len(xs)
	if n == 0 || p <= 0 || p >= 100 {
		return 0, fmt.Errorf("percentile p%g of %d samples: undefined", p, n)
	}
	rank := int(math.Ceil(p / 100 * float64(n)))
	if n-rank < minBeyond {
		return 0, fmt.Errorf("percentile p%g of %d samples: %d beyond it, need %d", p, n, n-rank, minBeyond)
	}
	s := sortedCopy(xs)
	return s[rank-1], nil
}

// median returns the middle of xs (the mean of the two middles for an
// even count); it needs no samples beyond it.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return math.NaN()
	}
	s := sortedCopy(xs)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func sum(xs []float64) float64 {
	var t float64
	for _, x := range xs {
		t += x
	}
	return t
}

func mean(xs []float64) float64 { return sum(xs) / float64(len(xs)) }

// attribution splits an end-to-end total among named layers. The layers
// are measured independently of the total; the residual is what no layer
// span covered, so a missed or double-counted span shows up in it.
type attribution struct {
	total  float64
	names  []string
	values []float64
}

func (a *attribution) add(name string, v float64) {
	a.names = append(a.names, name)
	a.values = append(a.values, v)
}

// String renders the table as each layer's share of the total.
func (a attribution) String() string {
	var b strings.Builder
	for i, name := range a.names {
		fmt.Fprintf(&b, "%s %.1f%%, ", name, 100*a.values[i]/a.total)
	}
	fmt.Fprintf(&b, "unattributed %.1f%%", 100*a.residualFrac())
	return b.String()
}

// residualFrac is (total − Σ layers) / total.
func (a *attribution) residualFrac() float64 {
	return (a.total - sum(a.values)) / a.total
}

// sums reports whether the layers account for the total within tol.
func (a *attribution) sums(tol float64) bool {
	return math.Abs(a.residualFrac()) <= tol
}

// backlogSample is the number of sessions due but not yet finished at a
// moment of a ladder rung, t seconds after the rung began.
type backlogSample struct {
	t       float64
	backlog float64
}

// backlogGrowth is the least-squares growth of the backlog over the
// rung's duration.
func backlogGrowth(samples []backlogSample, duration float64) float64 {
	n := float64(len(samples))
	if n < 2 {
		return 0
	}
	var st, sb, stt, stb float64
	for _, s := range samples {
		st += s.t
		sb += s.backlog
		stt += s.t * s.t
		stb += s.t * s.backlog
	}
	den := n*stt - st*st
	if den == 0 {
		return 0
	}
	return (n*stb - st*sb) / den * duration
}

// minBacklogGrowth keeps a rung at a low rate from being judged on a
// handful of sessions' jitter.
const minBacklogGrowth = 4

// backlogGrowing applies the backlog rule: a rung whose backlog grows by
// more than the sessions one latency limit's worth of arrivals brings
// (rate·limit) ends with queueing alone pushing latency past the limit.
func backlogGrowing(samples []backlogSample, duration, rate, limitS float64) bool {
	return backlogGrowth(samples, duration) > math.Max(rate*limitS, minBacklogGrowth)
}

// rung is one fixed-rate step of the daemon ladder.
type rung struct {
	rate       float64 // offered sessions per second
	latencies  []float64
	failed     int
	growing    bool
	achieved   float64 // sessions completed per second over the rung
	p99        float64
	p99Err     error
	lateP99    float64
	sustained  bool
	sessionsIn int
}

// judge decides whether the rung sustained its rate: p99 latency within
// limitMS, no failed or rejected session and no growing backlog.
func (r *rung) judge(limitMS float64) {
	r.p99, r.p99Err = percentile(r.latencies, 99)
	r.sustained = r.p99Err == nil && r.p99 <= limitMS && r.failed == 0 && !r.growing
}

// capacity is the highest sustained rung's achieved rate, and whether any
// rung was sustained.
func capacity(rungs []rung) (float64, bool) {
	var best *rung
	for i := range rungs {
		if rungs[i].sustained && (best == nil || rungs[i].rate > best.rate) {
			best = &rungs[i]
		}
	}
	if best == nil {
		return 0, false
	}
	return best.achieved, true
}
