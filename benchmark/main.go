// Command olevbench is olevgrid's benchmark. It runs one of three
// workloads for a fixed time on inputs generated from a seed, checks
// every output the program produced, and prints each metric by name with
// its unit and sample count. The last line of standard output is one
// JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {"<name>": {"value": v, "unit": "u"}, ...}}
//
// carrying the end-to-end metrics with -trace 0 and the per-layer
// metrics with -trace 1. A traced run interleaves untraced operations
// with traced ones and reports the tracing overhead as the difference
// between the two. The process exits non-zero if any output check fails.
//
// Usage, from the repository root:
//
//	bash benchmark/run.sh --workload arterial-1000 --seed 1 --seconds 30 --trace 0
//	bash benchmark/run.sh --report [--seed 1] [--seconds 30] [--record benchmark/BENCH_baseline.json]
//
// --report runs every workload untraced and traced, each in a child
// process of its own, and prints every metric; --record also writes them,
// with the environment, as JSON. A child run with --full ends with its
// whole result (every metric with its sample count, the notes and the
// failed checks) instead of the contract line. --ladder has an untraced
// daemon-durable run go on to the capacity ladder's rungs; the report
// passes it to every child.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"os/exec"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"syscall"
	"time"
)

// maxProcs pins GOMAXPROCS so a run on a bigger machine measures the
// same parallelism; it never exceeds the CPUs present.
const maxProcs = 2

type workload struct {
	name string
	why  string
	run  func(opts) (*result, error)
}

var workloads = []workload{
	{"arterial-1000", "closed loop: one 1000-vehicle binary-wire fleet per solve under the sequential coordinator; stresses sched bookkeeping, the agents' best responses and the v2i codec",
		runArterial},
	{"archetype-mix", "closed loop: cold solves of the five city archetypes through pricing.Nonlinear on core.Game.Run, as library callers run the policy; no sched, v2i, store or serve",
		runArchetype},
	{"daemon-durable", "open loop at 80/s, then a short closed loop: depot-overnight sessions POSTed to a durable in-process daemon (file journal, fsync always); per-session serve and store costs dominate",
		runDaemon},
}

type metricDef struct {
	name, unit, better string
}

// endToEnd are the metrics a user of olevgrid sees, measured untraced on
// every workload:
//
//   - setup_s: building one fleet and its coordinator (arterial-1000),
//     compiling one scenario (archetype-mix), or a restart's boot scan
//     over the run's journal (daemon-durable); the median of many.
//   - latency_ms.p50: one solve's wall time, or one session's time from
//     its due time to its terminal state at the nominal rate.
//   - throughput_per_s: vehicle turns (rounds × N) per second of solving,
//     equilibria per second of solving, or sessions completed per second
//     with 8 in flight, more than the daemon can take at once (the
//     median of 180-session blocks).
//   - alloc_mb_per_op: heap allocated per solve, its set-up included, or
//     per session, the generator's request and the watcher's view
//     included; the memory cost a caller pays in garbage collection.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"latency_ms.p50", "ms", "lower"},
	{"throughput_per_s", "1/s", "higher"},
	{"alloc_mb_per_op", "MB", "lower"},
}

// reportOnly are end-to-end figures the report prints and records but
// the contract line leaves out: each but the peak resident set exists on
// one workload only, and a failure rate is carried by the line's
// attempted and failed counts. The peak resident set is left out because
// it is a maximum: on archetype-mix, whose heap is a few MB, one garbage
// collection that finishes late raises it by a third, in some runs of a
// seed and not in others.
var reportOnly = []metricDef{
	{"peak_rss_mb", "MB", "lower"},
	{"latency_ms.p90", "ms", "lower"},
	{"latency_ms.p99", "ms", "lower"},
	{"sessions_per_s_max", "1/s", "higher"},
	{"failed_frac", "ratio", "lower"},
}

// perLayer are the traced metrics. A workload that does not exercise a
// layer reports it as 0 with no samples.
var perLayer = []metricDef{
	{"trace.overhead_frac", "ratio", "lower"},
	{"attribution.residual_frac", "ratio", "lower"},
	{"sched.coord_us_per_turn", "us", "lower"},
	{"sched.agent_us_per_turn", "us", "lower"},
	{"v2i.wire_us_per_turn", "us", "lower"},
	{"v2i.frames_per_turn", "count", "lower"},
	{"v2i.bytes_per_turn", "B", "lower"},
	{"gc.cycles_per_solve", "count", "lower"},
	{"mem.alloc_bytes_per_turn", "B", "lower"},
	{"core.turns_per_solve", "count", "lower"},
	{"core.ns_per_turn", "ns", "lower"},
	{"core.allocs_per_turn", "count", "lower"},
	{"core.solve_ms.blackout-recovery", "ms", "lower"},
	{"core.solve_ms.depot-overnight", "ms", "lower"},
	{"core.solve_ms.heat-wave-price-spike", "ms", "lower"},
	{"core.solve_ms.rush-hour-surge", "ms", "lower"},
	{"core.solve_ms.stadium-egress", "ms", "lower"},
	{"serve.create_us.p50", "us", "lower"},
	{"serve.create_us.p99", "us", "lower"},
	{"serve.solve_ms.p50", "ms", "lower"},
	{"serve.solve_ms.p99", "ms", "lower"},
	{"serve.outside_solve_ms.p50", "ms", "lower"},
	{"serve.outside_solve_ms.p99", "ms", "lower"},
	{"serve.backlog", "count", "lower"},
	{"store.fsyncs_per_session", "count", "lower"},
	{"store.fsync_us.p50", "us", "lower"},
	{"store.fsync_us.p99", "us", "lower"},
	{"store.busy_ms_per_session", "ms", "lower"},
	{"store.bytes_per_session", "B", "lower"},
	{"sched.retries_per_session", "count", "lower"},
	{"gen.late_ms.p99", "ms", "lower"},
}

type opts struct {
	seed    int64
	seconds time.Duration
	trace   bool
	workdir string
	// ladder has an untraced daemon-durable run also offer the capacity
	// ladder's rungs past the nominal rate, for sessions_per_s_max.
	ladder bool
}

// metric is one reported figure and the number of samples behind it.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n"`
}

// result is what one workload run measured and checked.
type result struct {
	Metrics   map[string]metric `json:"metrics"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Failures  []string          `json:"failures,omitempty"`
	Notes     []string          `json:"notes,omitempty"`
}

func newResult() *result { return &result{Metrics: map[string]metric{}} }

func (r *result) note(format string, args ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

func unitOf(name string) string {
	for _, defs := range [][]metricDef{endToEnd, reportOnly, perLayer} {
		for _, d := range defs {
			if d.name == name {
				return d.unit
			}
		}
	}
	panic("unregistered metric " + name)
}

func (r *result) set(name string, v float64, n int) {
	r.Metrics[name] = metric{Value: v, Unit: unitOf(name), N: n}
}

// setPercentile sets a nearest-rank percentile, or notes why it was
// refused.
func (r *result) setPercentile(name string, xs []float64, p float64) {
	v, err := percentile(xs, p)
	if err != nil {
		r.note("%s not reported: %v", name, err)
		return
	}
	r.set(name, v, len(xs))
}

// setAttribution reports the share of the end-to-end total no layer span
// covered, and notes when it exceeds the workload's stated tolerance.
func (r *result) setAttribution(a attribution, tol float64, n int) {
	r.set("attribution.residual_frac", a.residualFrac(), n)
	r.note("attribution: %s", a)
	if !a.sums(tol) {
		r.note("attribution leaves %.1f%% of the total to no layer, over its %.0f%% tolerance", 100*a.residualFrac(), 100*tol)
	}
}

// check counts one operation and records its failure.
func (r *result) check(ok bool, format string, args ...any) {
	r.Attempted++
	if !ok {
		r.Failed++
		r.Failures = append(r.Failures, fmt.Sprintf(format, args...))
	}
}

func (r *result) correct() bool { return r.Failed == 0 && r.Attempted > 0 }

// line is the JSON object the last line of standard output carries.
type line struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]valueInUnit `json:"metrics"`
}

type valueInUnit struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// contractLine selects the defs' metrics from r. A per-layer metric the
// workload does not exercise reads 0; a missing end-to-end metric is an
// error.
func contractLine(r *result, defs []metricDef, zeroMissing bool) (line, error) {
	l := line{Correct: r.correct(), Attempted: r.Attempted, Failed: r.Failed, Metrics: map[string]valueInUnit{}}
	for _, d := range defs {
		m, ok := r.Metrics[d.name]
		if !ok && !zeroMissing {
			return l, fmt.Errorf("metric %s was not measured", d.name)
		}
		l.Metrics[d.name] = valueInUnit{Value: m.Value, Unit: d.unit}
	}
	return l, nil
}

// printTable writes every measured metric with its unit and sample count.
func printTable(w io.Writer, name string, r *result) {
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "== %s: attempted %d, failed %d\n", name, r.Attempted, r.Failed)
	for _, n := range names {
		m := r.Metrics[n]
		fmt.Fprintf(w, "  %-36s %14.6g %-6s n=%d\n", n, m.Value, m.Unit, m.N)
	}
	for _, s := range r.Notes {
		fmt.Fprintf(w, "  note: %s\n", s)
	}
	for i, s := range r.Failures {
		if i == 10 {
			fmt.Fprintf(w, "  ... %d more failures\n", len(r.Failures)-i)
			break
		}
		fmt.Fprintf(w, "  FAILED: %s\n", s)
	}
}

// newRand is the generator every workload draws its inputs from.
func newRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

func findWorkload(name string) (workload, error) {
	var names []string
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return workload{}, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(names, ", "))
}

// heapAllocMB is the heap allocated by the process so far. It stops no
// goroutine, so reading it around an operation leaves the operation's
// timing alone.
func heapAllocMB() float64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64()) / 1e6
}

// peakRSSMB is the process's resident-set high-water mark so far.
func peakRSSMB() (float64, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, fmt.Errorf("getrusage: %w", err)
	}
	return float64(ru.Maxrss) / 1024, nil // Maxrss is in KiB on Linux
}

// runOne runs a workload and adds the process-wide figures.
func runOne(w workload, o opts) (*result, error) {
	r, err := w.run(o)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	if _, ok := r.Metrics["peak_rss_mb"]; !ok {
		rss, err := peakRSSMB()
		if err != nil {
			return nil, err
		}
		r.set("peak_rss_mb", rss, 1)
	}
	r.set("failed_frac", float64(r.Failed)/float64(max(r.Attempted, 1)), r.Attempted)
	return r, nil
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "olevbench:", err)
		os.Exit(1)
	}
}

var errChecksFailed = errors.New("output checks failed")

func run() error {
	name := flag.String("workload", "", "workload to run: arterial-1000, archetype-mix or daemon-durable")
	seed := flag.Int64("seed", 1, "seed every input is generated from")
	seconds := flag.Int("seconds", 30, "measurement time per run")
	trace := flag.Int("trace", 0, "1 reports per-layer metrics from a traced run, 0 end-to-end metrics")
	workdir := flag.String("workdir", ".bench_build", "directory for the daemon's journals")
	report := flag.Bool("report", false, "run every workload untraced and traced, each in its own process, and print every metric")
	record := flag.String("record", "", "with -report, also write the metrics and environment as JSON here")
	full := flag.Bool("full", false, "end with every metric, its sample count and the checks' messages instead of the contract line")
	ladder := flag.Bool("ladder", false, "daemon-durable: after the measured blocks, offer the capacity ladder's rungs (sessions_per_s_max)")
	flag.Parse()

	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		return fmt.Errorf("need -seconds ≥ 1 and -trace 0 or 1")
	}
	procs := runtime.NumCPU()
	if procs > maxProcs {
		procs = maxProcs
	}
	runtime.GOMAXPROCS(procs)
	if err := os.MkdirAll(*workdir, 0o755); err != nil {
		return err
	}
	o := opts{seed: *seed, seconds: time.Duration(*seconds) * time.Second, workdir: *workdir, ladder: *ladder}
	if *report {
		return runReport(o, *record)
	}
	w, err := findWorkload(*name)
	if err != nil {
		return err
	}
	o.trace = *trace == 1
	r, err := runOne(w, o)
	if err != nil {
		return err
	}
	printTable(os.Stderr, w.name, r)
	if *full {
		out, err := json.Marshal(r)
		if err != nil {
			return err
		}
		fmt.Println(string(out))
		if !r.correct() {
			return errChecksFailed
		}
		return nil
	}
	defs, zero := endToEnd, false
	if o.trace {
		defs, zero = perLayer, true
	}
	l, err := contractLine(r, defs, zero)
	if err != nil {
		return err
	}
	out, err := json.Marshal(l)
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	if !l.Correct {
		return errChecksFailed
	}
	return nil
}

// recordFile is the committed record of one report: the environment,
// the seed and every metric of every workload with its sample count.
type recordFile struct {
	Date        string           `json:"date"`
	Seed        int64            `json:"seed"`
	Seconds     int              `json:"seconds"`
	Environment map[string]any   `json:"environment"`
	Workloads   []recordWorkload `json:"workloads"`
}

type recordWorkload struct {
	Name      string            `json:"name"`
	Why       string            `json:"why"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	EndToEnd  map[string]metric `json:"end_to_end"`
	PerLayer  map[string]metric `json:"per_layer"`
}

func runReport(o opts, recordPath string) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	rec := recordFile{
		Date:    time.Now().UTC().Format("2006-01-02"),
		Seed:    o.seed,
		Seconds: int(o.seconds / time.Second),
		Environment: map[string]any{
			"go_version":  runtime.Version(),
			"nproc":       runtime.NumCPU(),
			"gomaxprocs":  runtime.GOMAXPROCS(0),
			"journal_fs":  fsType(o.workdir),
			"goos_goarch": runtime.GOOS + "/" + runtime.GOARCH,
		},
	}
	allOK := true
	for _, w := range workloads {
		rw := recordWorkload{Name: w.name, Why: w.why, Correct: true,
			EndToEnd: map[string]metric{}, PerLayer: map[string]metric{}}
		for _, traced := range []bool{false, true} {
			// A process per run, as the benchmark is driven: peak RSS and
			// the heap are the run's own.
			r, err := runChild(self, w.name, o, traced)
			if err != nil {
				return err
			}
			label, into := w.name+" (untraced)", rw.EndToEnd
			if traced {
				label, into = w.name+" (traced)", rw.PerLayer
			}
			printTable(os.Stdout, label, r)
			for n, m := range r.Metrics {
				if traced == isPerLayer(n) {
					into[n] = m
				}
			}
			rw.Correct = rw.Correct && r.correct()
			rw.Attempted += r.Attempted
			rw.Failed += r.Failed
		}
		allOK = allOK && rw.Correct
		rec.Workloads = append(rec.Workloads, rw)
	}
	if recordPath != "" {
		blob, err := json.MarshalIndent(rec, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(recordPath, append(blob, '\n'), 0o644); err != nil {
			return err
		}
	}
	if !allOK {
		return errChecksFailed
	}
	return nil
}

// runChild runs one workload in a child process and reads back its full
// result.
func runChild(self, name string, o opts, traced bool) (*result, error) {
	trace := "0"
	if traced {
		trace = "1"
	}
	cmd := exec.Command(self, "--workload", name, "--seed", fmt.Sprint(o.seed),
		"--seconds", fmt.Sprint(int(o.seconds/time.Second)), "--trace", trace, "--workdir", o.workdir, "--full", "--ladder")
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	runErr := cmd.Run() // a failed check exits non-zero after printing its result
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	r := newResult()
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), r); err != nil {
		return nil, fmt.Errorf("%s trace %s: %v\n%s", name, trace, runErr, stderr.String())
	}
	return r, nil
}

func isPerLayer(name string) bool {
	for _, d := range perLayer {
		if d.name == name {
			return true
		}
	}
	return false
}

// fsType names the filesystem holding dir, the one the daemon's fsyncs
// hit.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch uint64(st.Type) {
	case 0xef53:
		return "ext4"
	case 0x01021994:
		return "tmpfs"
	case 0x794c7630:
		return "overlayfs"
	case 0x58465342:
		return "xfs"
	case 0x9123683e:
		return "btrfs"
	}
	return fmt.Sprintf("0x%x", uint64(st.Type))
}
