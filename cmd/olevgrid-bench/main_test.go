package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"olevgrid"
)

type syntheticReport struct {
	Header
	Value int `json:"value"`
	Verdict
}

// syntheticGate fails three of its four checks, in a fixed order.
var syntheticGate = gate{name: "synthetic", out: "-", flags: func(*flag.FlagSet) func() (report, error) {
	return func() (report, error) {
		rep := &syntheticReport{Value: 7}
		rep.expect(rep.Value <= 5, "value %d > %d", rep.Value, 5)
		rep.expect(true, "never recorded")
		rep.expect(rep.Value%2 == 0, "value %d odd, want even", rep.Value)
		rep.expect(false, "always recorded")
		return rep, nil
	}
}}

// TestVerdictOrderedAndStable: the failures come out in check order,
// identically on every run, in both the report and the -check error;
// without -check the same verdict is written and the exit is clean.
func TestVerdictOrderedAndStable(t *testing.T) {
	want := []string{"value 7 > 5", "value 7 odd, want even", "always recorded"}
	wantErr := "synthetic: 3 check(s) failed: value 7 > 5; value 7 odd, want even; always recorded"
	for i := 0; i < 10; i++ {
		var out bytes.Buffer
		err := syntheticGate.run([]string{"-check"}, &out)
		if err == nil || err.Error() != wantErr {
			t.Fatalf("run %d: error %v, want %q", i, err, wantErr)
		}
		var rep syntheticReport
		if err := json.Unmarshal(out.Bytes(), &rep); err != nil {
			t.Fatalf("run %d: decode report: %v\n%s", i, err, out.Bytes())
		}
		if rep.Pass || !reflect.DeepEqual(rep.Failures, want) {
			t.Fatalf("run %d: pass=%v failures=%q, want false %q", i, rep.Pass, rep.Failures, want)
		}
	}

	var out bytes.Buffer
	if err := syntheticGate.run(nil, &out); err != nil {
		t.Fatalf("without -check: %v", err)
	}
	if !strings.Contains(out.String(), `"pass": false`) {
		t.Fatalf("without -check the verdict is not written:\n%s", out.String())
	}
}

type failingWriter struct{}

var errWrite = errors.New("disk full")

func (failingWriter) Write([]byte) (int, error) { return 0, errWrite }

// TestEmitReturnsWriteErrors: a report that cannot be written is an
// error, whether it goes to stdout or to a file.
func TestEmitReturnsWriteErrors(t *testing.T) {
	if err := emit("-", failingWriter{}, Verdict{}); !errors.Is(err, errWrite) {
		t.Fatalf("emit to a failing stdout = %v, want %v", err, errWrite)
	}
	missing := filepath.Join(t.TempDir(), "no-such-dir", "report.json")
	if err := emit(missing, nil, Verdict{}); err == nil {
		t.Fatal("emit into a missing directory returned nil")
	}
	if err := syntheticGate.run([]string{"-o", missing}, nil); err == nil {
		t.Fatal("a gate whose report cannot be written returned nil")
	}
}

// TestUnknownGateIsUsageError: a missing or unknown gate name fails
// with the usage, which lists every gate.
func TestUnknownGateIsUsageError(t *testing.T) {
	for _, args := range [][]string{nil, {"bench-core"}, {"-check"}} {
		err := run(args, nil)
		if err == nil {
			t.Fatalf("run(%q) returned nil", args)
		}
		for _, g := range gates {
			if !strings.Contains(err.Error(), "\n  "+g.name+" ") {
				t.Fatalf("run(%q) usage does not list gate %s:\n%v", args, g.name, err)
			}
		}
	}
}

// runGate runs a real gate in process with its report on stdout and
// decodes it.
func runGate(t *testing.T, args ...string) (map[string]any, error) {
	t.Helper()
	var out bytes.Buffer
	err := run(append(args, "-o", "-"), &out)
	var rep map[string]any
	if jerr := json.Unmarshal(out.Bytes(), &rep); jerr != nil {
		t.Fatalf("%s: decode report: %v (run error: %v)\n%s", args[0], jerr, err, out.Bytes())
	}
	if v, _ := rep["go_version"].(string); !strings.HasPrefix(v, "go") {
		t.Fatalf("%s: header go_version %q", args[0], rep["go_version"])
	}
	if n, _ := rep["num_cpu"].(float64); n < 1 {
		t.Fatalf("%s: header num_cpu %v", args[0], rep["num_cpu"])
	}
	if n, _ := rep["go_max_procs"].(float64); n < 1 {
		t.Fatalf("%s: header go_max_procs %v", args[0], rep["go_max_procs"])
	}
	if _, ok := rep["failures"].([]any); !ok {
		t.Fatalf("%s: failures %v, want a list", args[0], rep["failures"])
	}
	return rep, err
}

func TestScenarioGateSmoke(t *testing.T) {
	rep, err := runGate(t, "scenario", "-check")
	if err != nil {
		t.Fatalf("scenario -check: %v", err)
	}
	if rep["pass"] != true {
		t.Fatalf("scenario pass=%v failures=%v", rep["pass"], rep["failures"])
	}
	rows, _ := rep["scenarios"].([]any)
	if len(rows) != len(olevgrid.ScenarioNames()) {
		t.Fatalf("%d scenario rows, want %d", len(rows), len(olevgrid.ScenarioNames()))
	}
	for _, r := range rows {
		row := r.(map[string]any)
		if row["pass"] != true || row["converged"] != true {
			t.Fatalf("scenario row %v: pass=%v converged=%v", row["name"], row["pass"], row["converged"])
		}
	}
}

// TestCoreGateSmoke runs the core gate at a toy size. Its verdict is
// not asserted: the 3% overhead bound is meant for the default size,
// and a run this short reads mostly timer noise.
func TestCoreGateSmoke(t *testing.T) {
	rep, err := runGate(t, "core", "-n", "8", "-c", "8", "-rounds", "5", "-trials", "1")
	if err != nil {
		t.Fatalf("core: %v", err)
	}
	if rep["n"] != 8.0 || rep["c"] != 8.0 {
		t.Fatalf("core n=%v c=%v, want 8 8", rep["n"], rep["c"])
	}
	if async := rep["run_async"].(map[string]any); async["converged"] != true {
		t.Fatalf("core run_async did not converge: %v", async)
	}
	if p1 := rep["engine_p1"].(map[string]any); p1["parallelism"] != 1.0 {
		t.Fatalf("core engine_p1 parallelism %v, want 1", p1["parallelism"])
	}
	// The determinism contract: the engine lands on the same welfare
	// at one worker and at GOMAXPROCS.
	if rep["welfare_agreement"] != 0.0 {
		t.Fatalf("core welfare_agreement %v, want 0", rep["welfare_agreement"])
	}
	if mo := rep["metrics_overhead"].(map[string]any); mo["trials"] != 1.0 {
		t.Fatalf("core metrics_overhead trials %v, want 1", mo["trials"])
	}
	if _, ok := rep["pass"].(bool); !ok {
		t.Fatalf("core report has no verdict: pass=%v", rep["pass"])
	}
}
