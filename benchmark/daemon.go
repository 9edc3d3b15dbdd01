package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"sync"
	"time"

	"olevgrid/internal/serve"
	"olevgrid/internal/store"
)

const (
	// daemonScenario sizes every session: 24 vehicles over 16 sections.
	daemonScenario = "depot-overnight"
	// daemonNominalRate is the offered load the latency figures are taken
	// at, well below the knee.
	daemonNominalRate = 80
	// daemonLimitMS is the p99 session latency a ladder rung must meet.
	daemonLimitMS = 50
	// watchTick is the completion watcher's polling period; it bounds how
	// late a terminal state is seen.
	watchTick = 250 * time.Microsecond
	// daemonStragglerGrace is how long a phase's watcher waits without any
	// session arriving or finishing before it counts the rest as failed.
	daemonStragglerGrace = 20 * time.Second
	// daemonMidRate is the ladder rung between the nominal rate and the
	// knee, which lies between 140 and 230 sessions/s on a 2-CPU box with
	// an ext4 journal, moving with the disk's fsync latency.
	daemonMidRate = 120
	// daemonTopRate is the ladder's top rung, just past the knee; it runs
	// last, and in a traced run it is where retries are counted. Even at
	// half the knee's rate its backlog stays below serve's default
	// 1024-session table, so no create is refused.
	daemonTopRate = 240
	// daemonInFlight is how many sessions the closed-loop blocks keep
	// running: enough to saturate the daemon (4 in flight already
	// completed as many sessions a second as 32), and few enough that a
	// block spends little of its time filling and draining.
	daemonInFlight = 8
	// daemonClosedCount sizes each closed-loop block.
	daemonClosedCount = 180
	// daemonMinCount gives a rung's p99 ten samples beyond it.
	daemonMinCount = 100 * minBeyond
	// daemonBoots is how many times set-up boots a server.
	daemonBoots = 9
	// daemonAttributionTol bounds the session latency that generator
	// lateness, the create call and the solve leave unattributed: fleet
	// assembly before the solve and the watcher's polling delay after it,
	// which have no boundary the benchmark can time.
	daemonAttributionTol = 0.15
	// daemonBlock is the sessions per nominal-rate block; a traced run
	// alternates such blocks between the untraced and traced servers.
	daemonBlock = 120
)

// daemonServer is one booted durable server and its journal directory.
type daemonServer struct {
	srv *serve.Server
	h   http.Handler
	dir string
	fs  *fsTrace // nil when untraced
}

// newDaemon creates a fresh journal directory under workdir and starts a
// durable server over it: every Config field but JournalDir (and, when
// traced, the FS seam) at its default.
func newDaemon(workdir string, traced bool) (*daemonServer, error) {
	dir, err := os.MkdirTemp(workdir, "journal-")
	if err != nil {
		return nil, fmt.Errorf("journal dir: %w", err)
	}
	d := &daemonServer{dir: dir}
	cfg := serve.Config{JournalDir: dir}
	if traced {
		d.fs = newFSTrace(store.OS)
		cfg.FS = d.fs
	}
	d.srv = serve.NewServer(cfg)
	if _, err := d.srv.ResumeScanned(); err != nil {
		d.close()
		return nil, fmt.Errorf("boot scan: %w", err)
	}
	d.h = d.srv.Handler()
	return d, nil
}

// bootOver times a daemon start over an existing journal directory, the
// way a restart finds it: the server, the journal scan and the handler.
func bootOver(dir string) (time.Duration, error) {
	start := time.Now()
	srv := serve.NewServer(serve.Config{JournalDir: dir})
	_, err := srv.ResumeScanned()
	_ = srv.Handler()
	took := time.Since(start)
	srv.Close()
	if err != nil {
		return 0, fmt.Errorf("boot scan: %w", err)
	}
	return took, nil
}

// scanActions is what a restart would decide for each journaled session.
func scanActions(dir string) (map[string]serve.Action, error) {
	decisions, err := serve.ScanJournals(dir)
	if err != nil {
		return nil, fmt.Errorf("journal scan: %w", err)
	}
	out := make(map[string]serve.Action, len(decisions))
	for _, d := range decisions {
		out[d.ID] = d.Action
	}
	return out, nil
}

// waitIdle waits until the server has finished every session, terminal
// manifest included.
func (d *daemonServer) waitIdle() error {
	ctx, cancel := context.WithTimeout(context.Background(), daemonStragglerGrace)
	defer cancel()
	if err := d.srv.WaitIdle(ctx); err != nil {
		return fmt.Errorf("waiting for sessions to finish: %w", err)
	}
	return nil
}

func (d *daemonServer) close() {
	if d.srv != nil {
		d.srv.Close()
	}
	_ = os.RemoveAll(d.dir)
}

// session is one generated create request and what became of it.
type session struct {
	id      string
	due     int64 // when the schedule said to send it
	sent    int64 // when the POST started
	created int64 // when the POST returned
	done    int64 // when the watcher saw a terminal state
	code    int
	view    serve.View
}

func (s *session) admitted() bool { return s.code == http.StatusCreated }

// ok reports whether the session counts as served: admitted, done and
// converged.
func (s *session) ok() bool {
	return s.admitted() && s.view.State == serve.StateDone && s.view.Converged
}

func (s *session) latencyMS() float64 { return float64(s.done-s.due) / 1e6 }

// phase is the outcome of offering count sessions, either at a fixed
// rate (open loop) or with a fixed number in flight (closed loop).
type phase struct {
	rate     float64 // offered sessions per second; 0 in closed loop
	start    int64
	sessions []*session
	backlog  []backlogSample
}

// runPhase offers count sessions at rate per second from one generator
// goroutine on a due-time schedule, while one watcher goroutine detects
// completions and samples the backlog.
func runPhase(d *daemonServer, rng *rand.Rand, rate float64, count int) *phase {
	p := &phase{rate: rate, start: nowNS() + int64(2*time.Millisecond)}
	interval := float64(time.Second) / rate
	dueAt := func(k int) int64 { return p.start + int64(float64(k)*interval) }
	return p.generate(d, rng, count, func(k int) int64 {
		due := dueAt(k)
		if wait := due - nowNS(); wait > 0 {
			time.Sleep(time.Duration(wait))
		}
		return due
	}, nil)
}

// runClosed keeps inFlight sessions running until count have been
// offered: each completion lets the generator send the next at once.
func runClosed(d *daemonServer, rng *rand.Rand, inFlight, count int) *phase {
	p := &phase{start: nowNS()}
	done := make(chan struct{}, count) // one slot per session: the watcher never blocks
	running := 0
	return p.generate(d, rng, count, func(int) int64 {
		for ; running >= inFlight; running-- {
			if _, ok := <-done; !ok {
				running = 0 // the watcher gave up; send the rest unpaced
				break
			}
		}
		running++
		return nowNS()
	}, done)
}

// generate is the phase's generator: for each of count sessions it waits
// on pace, which returns the session's due time, then POSTs the create
// and hands the session to the phase's one watcher goroutine.
func (p *phase) generate(d *daemonServer, rng *rand.Rand, count int, pace func(k int) int64, done chan<- struct{}) *phase {
	handoff := make(chan *session, count) // one slot per session: the generator never blocks on the watcher
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		p.watch(d, handoff, count, done)
	}()
	for k := 0; k < count; k++ {
		s := &session{due: pace(k)}
		body, _ := json.Marshal(map[string]any{"scenario": daemonScenario, "seed": rng.Int63n(1<<31) + 1})
		req := httptest.NewRequest(http.MethodPost, "/api/v1/sessions", bytes.NewReader(body))
		rec := httptest.NewRecorder()
		s.sent = nowNS()
		d.h.ServeHTTP(rec, req)
		s.created = nowNS()
		s.code = rec.Code
		if s.admitted() {
			var v serve.View
			if err := json.Unmarshal(rec.Body.Bytes(), &v); err == nil {
				s.id = v.ID
			}
		}
		handoff <- s
	}
	close(handoff)
	wg.Wait()
	return p
}

// watch is the phase's single completion watcher: it polls the admitted
// sessions' states every watchTick, stamps terminal ones (signalling each
// on done, when set), and in open loop samples the backlog (sessions due
// by now and not yet finished) while sends are due. It gives up on the
// sessions still running once nothing has arrived or finished for
// daemonStragglerGrace; they then fail their checks.
func (p *phase) watch(d *daemonServer, in <-chan *session, count int, done chan<- struct{}) {
	release := func() { // lets a closed-loop generator stop waiting
		if done != nil {
			close(done)
			done = nil
		}
	}
	defer release()
	var pending []*session
	finished := 0
	lastProgress := nowNS()
	tick := time.NewTicker(watchTick)
	defer tick.Stop()
	for open := true; open || len(pending) > 0; {
		now := nowNS()
		for drained := false; open && !drained; {
			select {
			case s, ok := <-in:
				if !ok {
					open = false
					break
				}
				lastProgress = now
				p.sessions = append(p.sessions, s)
				if !s.admitted() {
					s.done = s.created
					finished++
					if done != nil {
						done <- struct{}{}
					}
					continue
				}
				pending = append(pending, s)
			default:
				drained = true
			}
		}
		kept := pending[:0]
		for _, s := range pending {
			sess, found := d.srv.Get(s.id)
			if found && sess.StateNow().Terminal() {
				s.done = now
				s.view = sess.View()
				finished++
				lastProgress = now
				if done != nil {
					done <- struct{}{}
				}
				continue
			}
			kept = append(kept, s)
		}
		pending = kept
		if p.rate > 0 && now >= p.start {
			interval := float64(time.Second) / p.rate
			if due := int(float64(now-p.start)/interval) + 1; due <= count {
				p.backlog = append(p.backlog, backlogSample{t: float64(now-p.start) / 1e9, backlog: float64(due - finished)})
			}
		}
		if now-lastProgress > int64(daemonStragglerGrace) {
			release()
			for s := range in {
				p.sessions = append(p.sessions, s)
			}
			return
		}
		<-tick.C
	}
}

// completionRate is the sessions completed per second over the phases'
// spans, each from its start to its last completion.
func completionRate(ps ...*phase) float64 {
	var completed int
	var span float64
	for _, p := range ps {
		var lastDone int64
		for _, s := range p.sessions {
			if s.ok() {
				completed++
				lastDone = max(lastDone, s.done)
			}
		}
		if lastDone > p.start {
			span += float64(lastDone-p.start) / 1e9
		}
	}
	if span == 0 {
		return 0
	}
	return float64(completed) / span
}

// rungOf summarizes the phases offered at one rate as a ladder rung: the
// pooled latencies, the completion rate over the phases' spans, and the
// backlog rule applied to each phase's own timeline.
func rungOf(ps ...*phase) rung {
	r := rung{rate: ps[0].rate, achieved: completionRate(ps...)}
	var late []float64
	var backlog []backlogSample
	var duration float64
	for _, p := range ps {
		for _, s := range p.sessions {
			late = append(late, float64(s.sent-s.due)/1e6)
			if !s.ok() {
				r.failed++
				continue
			}
			r.latencies = append(r.latencies, s.latencyMS())
		}
		r.sessionsIn += len(p.sessions)
		duration += float64(len(p.sessions)) / p.rate / float64(len(ps))
		backlog = append(backlog, p.backlog...)
	}
	r.growing = backlogGrowing(backlog, duration, r.rate, daemonLimitMS/1e3)
	if v, err := percentile(late, 99); err == nil {
		r.lateP99 = v
	}
	r.judge(daemonLimitMS)
	return r
}

// runDaemon is the daemon-durable workload. Untraced, it alternates
// short blocks at the nominal rate, each on a due-time schedule, with
// short closed-loop blocks that measure throughput; with o.ladder it then
// offers the ladder's middle and top rungs to a server of their own.
// Traced, it alternates short nominal blocks between an untraced and a
// traced server, then offers the top rung to the traced one. Every
// session must end done and converged, and scan as complete from the
// journal. Set-up is a restart's boot over the journal of the nominal
// (and closed-loop) blocks.
func runDaemon(o opts) (*result, error) {
	r := newResult()
	rng := newRand(o.seed)
	plain, err := newDaemon(o.workdir, false)
	if err != nil {
		return nil, err
	}
	defer plain.close()
	// ladder serves the rungs past the nominal rate: the traced server in
	// a traced run, a server of its own in an untraced one, so the
	// ladder leaves plain's journal, and so set-up, alone.
	var traced, ladder *daemonServer
	if o.trace {
		if traced, err = newDaemon(o.workdir, true); err != nil {
			return nil, err
		}
		defer traced.close()
		ladder = traced
	} else if o.ladder {
		if ladder, err = newDaemon(o.workdir, false); err != nil {
			return nil, err
		}
		defer ladder.close()
	}

	// blocksFor is how many nominal blocks fill the share of the run.
	blocksFor := func(share float64) int {
		n := max(daemonMinCount, int(daemonNominalRate*share*o.seconds.Seconds()))
		return (n + daemonBlock - 1) / daemonBlock
	}
	var nominal, tracedNominal, mid, closed, top []*phase
	var nominalFsyncs []int64
	if o.trace {
		// Alternate short blocks between the two servers until each has
		// served a full nominal phase.
		blocks := blocksFor(0.5)
		for k := 0; k < 2*blocks; k++ {
			if k%2 == 1 {
				tracedNominal = append(tracedNominal, runPhase(traced, rng, daemonNominalRate, daemonBlock))
			} else {
				nominal = append(nominal, runPhase(plain, rng, daemonNominalRate, daemonBlock))
			}
		}
		nominalFsyncs = traced.fs.takeFsyncs()
	} else {
		// A short closed-loop block follows each nominal block, so both
		// figures sample the whole run of a host whose speed drifts. The
		// closed-loop blocks are short because a saturating loop drives
		// the journal disk at thousands of fsyncs a second: on the 2-vCPU
		// VM this was tuned on, a loop that ran for some 2000 sessions
		// lost about 40% of its rate for the rest of the run, as if the
		// virtual disk's IO allowance had run out.
		alloc0 := heapAllocMB()
		for k := 0; k < blocksFor(0.6); k++ {
			nominal = append(nominal, runPhase(plain, rng, daemonNominalRate, daemonBlock))
			closed = append(closed, runClosed(plain, rng, daemonInFlight, daemonClosedCount))
			// The closed-loop block's last sessions are still writing
			// their terminal manifests; the next nominal block starts
			// once they have, so its latencies are the nominal rate's.
			if err := plain.waitIdle(); err != nil {
				return nil, err
			}
		}
		n := len(sessionsOf(nominal)) + len(sessionsOf(closed))
		r.set("alloc_mb_per_op", (heapAllocMB()-alloc0)/float64(n), n)
		if ladder != nil {
			mid = append(mid, runPhase(ladder, rng, daemonMidRate, daemonMinCount))
		}
	}
	// The top rung's backlog, and so its memory, grows with how far past
	// the knee it lands; peak RSS is read before it.
	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	if ladder != nil {
		top = append(top, runPhase(ladder, rng, daemonTopRate, daemonMinCount))
	}

	// A session's terminal manifest is written after its state turns
	// terminal; wait for every write before scanning the journals.
	actions := map[string]serve.Action{}
	servers := []*daemonServer{plain}
	if traced != nil {
		servers = append(servers, traced)
	}
	if ladder != nil && ladder != traced {
		servers = append(servers, ladder)
	}
	for _, d := range servers {
		if err := d.waitIdle(); err != nil {
			return nil, err
		}
		a, err := scanActions(d.dir)
		if err != nil {
			return nil, err
		}
		for id, act := range a {
			actions[d.dir+"/"+id] = act
		}
	}
	check := func(ps []*phase, d *daemonServer) {
		for _, p := range ps {
			for _, s := range p.sessions {
				act := actions[d.dir+"/"+s.id]
				r.check(s.ok() && act == serve.ActionComplete,
					"session %s at %g/s: HTTP %d, state %q, converged %v, journal scan %q, error %q",
					s.id, p.rate, s.code, s.view.State, s.view.Converged, act, s.view.Error)
			}
		}
	}
	check(nominal, plain)
	check(tracedNominal, traced)
	check(closed, plain)
	check(append(mid, top...), ladder)

	var boots []float64
	for i := 0; i < daemonBoots; i++ {
		took, err := bootOver(plain.dir)
		if err != nil {
			return nil, err
		}
		boots = append(boots, took.Seconds())
	}

	nominalRung := rungOf(nominal...)
	r.set("setup_s", median(boots), len(boots))
	r.set("peak_rss_mb", rss, 1)
	r.set("latency_ms.p50", median(nominalRung.latencies), len(nominalRung.latencies))
	r.setPercentile("latency_ms.p99", nominalRung.latencies, 99)
	if !o.trace {
		// The median block: one block hit by a neighbour's CPU or disk
		// burst does not move it.
		var rates []float64
		for _, p := range closed {
			rates = append(rates, completionRate(p))
		}
		r.set("throughput_per_s", median(rates), len(sessionsOf(closed)))
	}
	if !o.trace && ladder != nil {
		rungs := []rung{nominalRung, rungOf(mid...), rungOf(top...)}
		if c, ok := capacity(rungs); ok {
			r.set("sessions_per_s_max", c, len(rungs))
		} else {
			r.note("sessions_per_s_max not reported: no rung met the limit")
		}
		for _, g := range rungs {
			r.note("rung %g/s: %d sessions, p99 %.1f ms (%v), late p99 %.1f ms, backlog growing %v, achieved %.1f/s, sustained %v",
				g.rate, g.sessionsIn, g.p99, g.p99Err, g.lateP99, g.growing, g.achieved, g.sustained)
		}
	}
	if o.trace {
		traceDaemon(r, tracedNominal, nominalRung, top, traced.fs, nominalFsyncs)
	}
	return r, nil
}

// traceDaemon sets the per-layer metrics from the traced nominal blocks
// and the traced top rung.
func traceDaemon(r *result, tracedNominal []*phase, plain rung, top []*phase, fs *fsTrace, fsyncs []int64) {
	var lat, create, solve, outside, late, backlog []float64
	var syncs, busy, bytes float64
	var a attribution
	for _, s := range sessionsOf(tracedNominal) {
		if !s.ok() {
			continue
		}
		l := s.latencyMS()
		lat = append(lat, l)
		create = append(create, float64(s.created-s.sent)/1e3)
		solve = append(solve, s.view.SolveMS)
		outside = append(outside, l-s.view.SolveMS)
		late = append(late, float64(s.sent-s.due)/1e6)
		io := fs.session(s.id)
		syncs += float64(io.fsyncs)
		busy += float64(io.busyNS) / 1e6
		bytes += float64(io.bytes)
		a.total += l
	}
	n := len(lat)
	r.set("trace.overhead_frac", median(lat)/median(plain.latencies)-1, n)
	r.setPercentile("serve.create_us.p50", create, 50)
	r.setPercentile("serve.create_us.p99", create, 99)
	r.setPercentile("serve.solve_ms.p50", solve, 50)
	r.setPercentile("serve.solve_ms.p99", solve, 99)
	r.setPercentile("serve.outside_solve_ms.p50", outside, 50)
	r.setPercentile("serve.outside_solve_ms.p99", outside, 99)
	r.setPercentile("gen.late_ms.p99", late, 99)
	for _, p := range tracedNominal {
		for _, b := range p.backlog {
			backlog = append(backlog, b.backlog)
		}
	}
	r.set("serve.backlog", mean(backlog), len(backlog))
	r.set("store.fsyncs_per_session", syncs/float64(n), n)
	r.set("store.busy_ms_per_session", busy/float64(n), n)
	r.set("store.bytes_per_session", bytes/float64(n), n)
	var durations []float64
	for _, d := range fsyncs {
		durations = append(durations, float64(d)/1e3)
	}
	r.setPercentile("store.fsync_us.p50", durations, 50)
	r.setPercentile("store.fsync_us.p99", durations, 99)
	var retries float64
	sat := sessionsOf(top)
	for _, s := range sat {
		retries += float64(s.view.Retries)
	}
	r.set("sched.retries_per_session", retries/float64(len(sat)), len(sat))
	a.add("gen.late", sum(late))
	a.add("serve.create", sum(create)/1e3)
	a.add("serve.solve", sum(solve))
	r.setAttribution(a, daemonAttributionTol, n)
}

func sessionsOf(ps []*phase) []*session {
	var out []*session
	for _, p := range ps {
		out = append(out, p.sessions...)
	}
	return out
}
