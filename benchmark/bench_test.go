package main

import (
	"context"
	"encoding/json"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"olevgrid/internal/serve"
	"olevgrid/internal/store"
	"olevgrid/internal/v2i"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending, so percentile must sort
	}
	return xs
}

func TestPercentileNearestRankRefusesThinTails(t *testing.T) {
	cases := []struct {
		n    int
		p    float64
		want float64
		ok   bool
	}{
		{100, 90, 90, true},   // rank 90, ten beyond
		{100, 91, 0, false},   // rank 91, nine beyond
		{1000, 99, 990, true}, // rank 990, ten beyond
		{999, 99, 0, false},   // rank 990, nine beyond
		{20, 50, 10, true},    // the median needs twenty samples
		{19, 50, 0, false},
		{0, 50, 0, false},
		{100, 0, 0, false},
		{100, 100, 0, false},
	}
	for _, c := range cases {
		got, err := percentile(seq(c.n), c.p)
		if (err == nil) != c.ok || (c.ok && got != c.want) {
			t.Errorf("percentile(%d samples, p%g) = %v, %v; want %v, ok=%v", c.n, c.p, got, err, c.want, c.ok)
		}
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %v", got)
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of nothing should be NaN")
	}
}

func TestAttributionResidual(t *testing.T) {
	a := attribution{total: 100}
	a.add("sched.coord", 60)
	a.add("sched.agent", 30)
	a.add("v2i.wire", 8)
	if got := a.residualFrac(); math.Abs(got-0.02) > 1e-12 {
		t.Fatalf("residual = %v, want 0.02", got)
	}
	if !a.sums(0.05) || a.sums(0.01) {
		t.Fatalf("sums: a 2%% residual is within 5%% and not within 1%%")
	}
	if got, want := a.String(), "sched.coord 60.0%, sched.agent 30.0%, v2i.wire 8.0%, unattributed 2.0%"; got != want {
		t.Errorf("table %q, want %q", got, want)
	}
}

// TestLinkTraceAttributionSumsToWall drives synthetic turns through the
// traced link decorator: the grid quotes, the vehicle works agentWork
// before answering, the grid works coordWork after each answer. The
// layers must account for the wall time, each close to the work it did.
func TestLinkTraceAttributionSumsToWall(t *testing.T) {
	const (
		turns     = 40
		agentWork = 2 * time.Millisecond
		coordWork = 1 * time.Millisecond
	)
	var lt linkTrace
	grid, veh := lt.wrap(v2i.NewPair(1))
	ctx := context.Background()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < turns; i++ {
			if _, err := veh.Recv(ctx); err != nil {
				t.Error(err)
				return
			}
			time.Sleep(agentWork)
			if err := veh.Send(ctx, v2i.Envelope{Type: v2i.TypeRequest}); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	start := nowNS()
	for i := 0; i < turns; i++ {
		if err := grid.Send(ctx, v2i.Envelope{Type: v2i.TypeQuote}); err != nil {
			t.Fatal(err)
		}
		if _, err := grid.Recv(ctx); err != nil {
			t.Fatal(err)
		}
		time.Sleep(coordWork)
	}
	// The last turn's bookkeeping ends at the next quote.
	if err := grid.Send(ctx, v2i.Envelope{Type: v2i.TypeQuote}); err != nil {
		t.Fatal(err)
	}
	wall := float64(nowNS() - start)
	wg.Wait()

	coord, agent, call := float64(lt.coordNS.Load()), float64(lt.agentNS.Load()), float64(lt.gridCallNS.Load())
	a := attribution{total: wall}
	a.add("sched.coord", coord)
	a.add("sched.agent", agent)
	a.add("v2i.wire", call-agent)
	if !a.sums(0.05) {
		t.Errorf("layers leave %.1f%% of the wall unattributed", 100*a.residualFrac())
	}
	perTurn := func(ns float64) time.Duration { return time.Duration(ns / turns) }
	if c := perTurn(coord); c < coordWork || c > 3*coordWork {
		t.Errorf("coordinator %v per turn, slept %v", c, coordWork)
	}
	if g := perTurn(agent); g < agentWork || g > 3*agentWork {
		t.Errorf("agent %v per turn, slept %v", g, agentWork)
	}
	if got := lt.frames.Load(); got != 2*turns+1 {
		t.Errorf("frames = %d, want %d", got, 2*turns+1)
	}
}

// TestTracedFleetIsTransparent runs the same small game untraced and
// traced: the decorator must leave the report and the wire bytes
// unchanged, and keep the binary wire visible to v2i.WireOf so the
// coordinator takes the same batched-quote path.
func TestTracedFleetIsTransparent(t *testing.T) {
	const n, c, seed = 24, 6, 7
	solve := func(tr *linkTrace) (rep [2]any, bytes int64) {
		f, err := newArterialFleet(n, c, seed, tr)
		if err != nil {
			t.Fatal(err)
		}
		defer f.stop()
		report, err := f.coord.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if !report.Converged {
			t.Fatalf("game did not converge in %d rounds", report.Rounds)
		}
		rows := map[string][]uint64{}
		for id, row := range report.Schedule {
			for _, v := range row {
				rows[id] = append(rows[id], math.Float64bits(v))
			}
		}
		key, err := json.Marshal(struct {
			Rounds  int
			Welfare uint64
			Rows    map[string][]uint64
		}{report.Rounds, math.Float64bits(report.WelfareCost), rows})
		if err != nil {
			t.Fatal(err)
		}
		return [2]any{string(key), report.Retries}, f.bytesSent()
	}
	plain, plainBytes := solve(nil)
	tr := &linkTrace{}
	traced, tracedBytes := solve(tr)
	if plain != traced {
		t.Errorf("traced report differs:\nplain  %v\ntraced %v", plain, traced)
	}
	if plainBytes != tracedBytes || plainBytes == 0 {
		t.Errorf("bytes sent: plain %d, traced %d", plainBytes, tracedBytes)
	}
	if tr.frames.Load() == 0 || tr.agentNS.Load() == 0 || tr.coordNS.Load() == 0 {
		t.Errorf("traced solve recorded no spans: %d frames", tr.frames.Load())
	}
	g, _ := (&linkTrace{}).wrap(v2i.NewPipePair(v2i.WireBinary))
	if w := v2i.WireOf(g); w != v2i.WireBinary {
		t.Errorf("WireOf(traced binary link) = %v", w)
	}
	if _, ok := g.(v2i.TypedSender); !ok {
		t.Error("traced link hides the typed send path")
	}
}

func TestFSTraceAttributesBySession(t *testing.T) {
	dir := t.TempDir()
	fs := newFSTrace(store.OS)
	var _ store.FS = fs
	data := []byte(`{"state":"running"}`)
	path := filepath.Join(dir, "s-000042.manifest.json")
	if err := store.WriteFileAtomic(fs, path, data); err != nil {
		t.Fatal(err)
	}
	got, err := fs.ReadFile(path)
	if err != nil || string(got) != string(data) {
		t.Fatalf("read back %q, %v", got, err)
	}
	io := fs.session("s-000042")
	// create, write, fsync, close, rename, dir fsync, read.
	if io.calls != 7 || io.fsyncs != 2 || io.bytes != int64(len(data)) || io.busyNS <= 0 {
		t.Errorf("session io = %+v", io)
	}
	if n := len(fs.takeFsyncs()); n != 2 {
		t.Errorf("%d fsync durations, want 2", n)
	}
	if other := fs.session(""); other.calls != 0 {
		t.Errorf("unattributed calls: %+v", other)
	}
}

// synthPhase builds a phase of count sessions offered at rate, each
// finishing latency(k) after it was due, with the backlog samples the
// watcher would take every tick.
func synthPhase(rate float64, count int, latency func(k int) time.Duration, ok func(k int) bool) *phase {
	p := &phase{rate: rate, start: 1e9}
	interval := float64(time.Second) / rate
	for k := 0; k < count; k++ {
		due := p.start + int64(float64(k)*interval)
		s := &session{id: "s", due: due, sent: due, created: due, code: http.StatusCreated,
			done: due + int64(latency(k)), view: serve.View{State: serve.StateDone, Converged: ok(k)}}
		p.sessions = append(p.sessions, s)
	}
	last := p.start + int64(float64(count-1)*interval)
	for now := p.start; now <= last; now += int64(time.Millisecond) {
		due := int(float64(now-p.start)/interval) + 1
		finished := 0
		for _, s := range p.sessions {
			if s.done <= now {
				finished++
			}
		}
		p.backlog = append(p.backlog, backlogSample{t: float64(now-p.start) / 1e9, backlog: float64(due - finished)})
	}
	return p
}

func TestLadderAndBacklogRule(t *testing.T) {
	all := func(int) bool { return true }
	steady := synthPhase(100, 1000, func(int) time.Duration { return 10 * time.Millisecond }, all)
	// Service slower than arrivals: each session waits 3 ms longer than
	// the one before, so the backlog climbs through the rung.
	queueing := synthPhase(200, 1000, func(k int) time.Duration { return time.Duration(k) * 3 * time.Millisecond / 10 }, all)
	// Fast, flat, but one session in a thousand fails.
	failing := synthPhase(150, 1000, func(int) time.Duration { return 5 * time.Millisecond }, func(k int) bool { return k != 500 })
	// Too few sessions to read a p99.
	short := synthPhase(120, 500, func(int) time.Duration { return 5 * time.Millisecond }, all)

	r1, r2, r3, r4 := rungOf(steady), rungOf(queueing), rungOf(failing), rungOf(short)
	if !r1.sustained || r1.growing || r1.p99 != 10 {
		t.Errorf("steady rung: %+v", r1)
	}
	if r2.sustained || !r2.growing {
		t.Errorf("queueing rung should grow and fail: growing %v, p99 %v", r2.growing, r2.p99)
	}
	if r3.sustained || r3.failed != 1 {
		t.Errorf("a failed session must fail the rung: %+v", r3)
	}
	if r4.sustained || r4.p99Err == nil {
		t.Errorf("a rung without ten samples beyond its p99 cannot pass: %+v", r4)
	}
	if got := backlogGrowth(steady.backlog, 10); math.Abs(got) > 1 {
		t.Errorf("steady backlog grows by %v", got)
	}

	c, ok := capacity([]rung{r1, r2, r3, r4})
	if !ok || math.Abs(c-100) > 0.5 {
		t.Errorf("capacity = %v, %v; want the steady rung's ~100/s", c, ok)
	}
	if _, ok := capacity([]rung{r2, r3}); ok {
		t.Error("capacity with no sustained rung")
	}
}

// TestBenchmarkJSONMatches keeps the committed BENCHMARK.json and the
// program's workload and metric tables in step.
func TestBenchmarkJSONMatches(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json beside the benchmark: %v", err)
	}
	var spec struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: %q / %q in BENCHMARK.json", i, w.Name, w.Why)
		}
	}
	for _, c := range []struct {
		got  []struct{ Name, Unit, Better string }
		want []metricDef
	}{{spec.EndToEnd, endToEnd}, {spec.PerLayer, perLayer}} {
		if len(c.got) != len(c.want) {
			t.Fatalf("%d metrics in BENCHMARK.json, %d in the program", len(c.got), len(c.want))
		}
		for i, m := range c.got {
			if w := c.want[i]; m.Name != w.name || m.Unit != w.unit || m.Better != w.better {
				t.Errorf("metric %d: BENCHMARK.json %+v, program %+v", i, m, w)
			}
		}
	}
}
