// Command olevgrid-bench runs the repository's acceptance and
// performance gates. Each gate measures one layer and writes a
// machine-readable JSON report that carries the host header
// (go_version, num_cpu, go_max_procs) and a verdict: pass plus the
// ordered list of failed checks, each naming the check, the observed
// value and the bound. The verdict is always written; -check only
// makes the exit status follow it.
//
// Usage:
//
//	olevgrid-bench <gate> [-o path] [-check] [gate flags]
//
// -o names the report file (- for stdout; each gate has its own
// default). `olevgrid-bench <gate> -h` lists a gate's flags. CI runs
// every gate with -check and uploads the reports; see DESIGN.md for
// how to read them.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"

	"olevgrid/internal/obs"
)

// gate is one subcommand: flags registers the gate's own flags and
// returns the function that runs it.
type gate struct {
	name, out, doc string
	flags          func(fs *flag.FlagSet) func() (report, error)
}

var gates = []gate{
	{"core", "BENCH_core.json", "equilibrium hot path and the ≤3% metrics-overhead gate", coreGate},
	{"sweep", "BENCH_sweep.json", "figure sweep and coupled day, cold vs warm-started", sweepGate},
	{"meanfield", "BENCH_meanfield.json", "mean-field tier accuracy vs exact and scaling to 10^6", meanfieldGate},
	{"wire", "BENCH_wire.json", "JSON vs binary V2I codec, broadcast bytes and bit-equal welfare", wireGate},
	{"chaos", "CHAOS_controlplane.json", "control-plane chaos and failover determinism", chaosGate},
	{"store", "CHAOS_store.json", "durable-store crash consistency", storeGate},
	{"serve", "BENCH_serve.json", "daemon load, overload, drain and restart SLOs", serveGate},
	{"scenario", "SCENARIO_conformance.json", "every city archetype vs its declared envelope", scenarioGate},
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "olevgrid-bench:", err)
		os.Exit(1)
	}
}

// run dispatches args[0] to its gate; stdout receives the report when
// -o is "-".
func run(args []string, stdout io.Writer) error {
	for _, g := range gates {
		if len(args) > 0 && args[0] == g.name {
			return g.run(args[1:], stdout)
		}
	}
	var b strings.Builder
	if len(args) == 0 {
		b.WriteString("no gate given\n")
	} else {
		fmt.Fprintf(&b, "unknown gate %q\n", args[0])
	}
	b.WriteString("usage: olevgrid-bench <gate> [-o path] [-check] [gate flags]\ngates:\n")
	for _, g := range gates {
		fmt.Fprintf(&b, "  %-10s %s (-o %s)\n", g.name, g.doc, g.out)
	}
	return errors.New(strings.TrimSuffix(b.String(), "\n"))
}

func (g gate) run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet(g.name, flag.ExitOnError)
	out := fs.String("o", g.out, "output path (- for stdout)")
	check := fs.Bool("check", false, "exit non-zero unless every check passes")
	runGate := g.flags(fs)
	_ = fs.Parse(args) // ExitOnError: a bad flag exits with status 2

	rep, err := runGate()
	if err != nil {
		return fmt.Errorf("%s: %w", g.name, err)
	}
	*rep.header() = Header{
		GoVersion:  runtime.Version(),
		NumCPU:     runtime.NumCPU(),
		GoMaxProcs: runtime.GOMAXPROCS(0),
	}
	v := rep.verdict()
	v.Pass = len(v.Failures) == 0
	if v.Failures == nil {
		v.Failures = []string{}
	}
	if err := emit(*out, stdout, rep); err != nil {
		return fmt.Errorf("%s: write report: %w", g.name, err)
	}
	if *check && !v.Pass {
		return fmt.Errorf("%s: %d check(s) failed: %s", g.name, len(v.Failures), strings.Join(v.Failures, "; "))
	}
	return nil
}

// report is a gate's JSON document. Every report embeds Header first
// and Verdict last, which provides both methods.
type report interface {
	header() *Header
	verdict() *Verdict
}

// Header records the toolchain and host a report was measured on, so
// a 1-core reading of a parallel speedup is self-describing.
type Header struct {
	GoVersion  string `json:"go_version"`
	NumCPU     int    `json:"num_cpu"`
	GoMaxProcs int    `json:"go_max_procs"`
}

func (h *Header) header() *Header { return h }

// Verdict is a gate's outcome: Pass holds exactly when Failures is
// empty, and Failures lists the failed checks in the order the gate
// made them.
type Verdict struct {
	Pass     bool     `json:"pass"`
	Failures []string `json:"failures"`
}

func (v *Verdict) verdict() *Verdict { return v }

// expect records a failed check unless ok. The message names the
// check, the observed value and the bound.
func (v *Verdict) expect(ok bool, format string, args ...any) {
	if !ok {
		v.Failures = append(v.Failures, fmt.Sprintf(format, args...))
	}
}

// emit writes v as indented JSON to path, or to stdout when path is
// "-".
func emit(path string, stdout io.Writer, v any) error {
	blob, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	blob = append(blob, '\n')
	if path == "-" {
		_, err = stdout.Write(blob)
		return err
	}
	return os.WriteFile(path, blob, 0o644)
}

// dumpMetrics writes an obs registry and its event ring as the JSON
// -metrics-out document to path ("-" for stdout); an empty path
// disables it.
func dumpMetrics(path string, reg *obs.Registry, sink *obs.EventSink) error {
	if path == "" {
		return nil
	}
	return emit(path, os.Stdout, obs.BuildDump(reg, sink))
}
