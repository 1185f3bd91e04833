package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestQuickRunEmitsEveryMetric runs the benchmark's smoke mode (one round,
// two operations per workload, traced pass included) and holds its output
// to BENCHMARK.json: every workload and every metric declared there is
// printed exactly once per workload, finite, in the declared unit.
func TestQuickRunEmitsEveryMetric(t *testing.T) {
	spec, root, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-quick"}, &stdout, &stderr); code != 0 {
		t.Fatalf("bench -quick exited %d\nstdout:\n%s\nstderr:\n%s", code, stdout.String(), stderr.String())
	}
	rep, err := readReport(filepath.Join(root, "bench", "out", "report.json"))
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"nproc", "gomaxprocs", "goos", "goarch", "go", "seed"} {
		if _, ok := rep.Host[key]; !ok {
			t.Errorf("report host section lacks %q", key)
		}
	}

	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]*$`)
	printed := map[string]int{} // "workload metric" -> lines
	for _, line := range strings.Split(stdout.String(), "\n") {
		if f := strings.Fields(line); len(f) >= 4 && f[0] != "host" {
			printed[f[0]+" "+f[1]]++
		}
	}
	if len(spec.Workloads) != len(workloads(false)) {
		t.Errorf("BENCHMARK.json names %d workloads, the program has %d", len(spec.Workloads), len(workloads(false)))
	}
	for _, w := range spec.Workloads {
		wr := rep.Workloads[w.Name]
		if wr == nil {
			t.Errorf("workload %s: declared in BENCHMARK.json, not run", w.Name)
			continue
		}
		if wr.Failed != 0 || wr.Attempted == 0 {
			t.Errorf("workload %s: %d of %d operations failed: %v", w.Name, wr.Failed, wr.Attempted, wr.Failures)
		}
		check := func(got map[string]value, specs []metricSpec) {
			for _, ms := range specs {
				if !nameRE.MatchString(ms.Name) {
					t.Errorf("metric name %q does not match %v", ms.Name, nameRE)
				}
				v, ok := got[ms.Name]
				switch {
				case !ok:
					t.Errorf("%s: metric %s declared but not emitted", w.Name, ms.Name)
				case math.IsNaN(v.Value) || math.IsInf(v.Value, 0):
					t.Errorf("%s: metric %s = %v is not finite", w.Name, ms.Name, v.Value)
				case v.Unit != ms.Unit:
					t.Errorf("%s: metric %s in unit %q, declared %q", w.Name, ms.Name, v.Unit, ms.Unit)
				}
				if n := printed[w.Name+" "+ms.Name]; n != 1 {
					t.Errorf("%s: metric %s printed %d times, want once", w.Name, ms.Name, n)
				}
			}
		}
		check(wr.EndToEnd, spec.allEndToEnd())
		check(wr.PerLayer, spec.PerLayer)
		if len(wr.EndToEnd) != len(spec.EndToEnd)+len(exactMetrics) || len(wr.PerLayer) != len(spec.PerLayer) {
			t.Errorf("%s: emitted %d end-to-end and %d per-layer metrics, declared %d and %d",
				w.Name, len(wr.EndToEnd), len(wr.PerLayer), len(spec.EndToEnd)+len(exactMetrics), len(spec.PerLayer))
		}
	}
	if _, err := os.Stat(filepath.Join(root, "bench", "out", "trace.json")); err != nil {
		t.Errorf("traced pass left no trace: %v", err)
	}
}

// TestCorruptedModelHashFails proves the model-hash check can fail: one
// flipped bit in one operation's hash must show up as a failed operation,
// a non-zero exit and "correct": false on the result line.
func TestCorruptedModelHashFails(t *testing.T) {
	calls := 0
	hashHook = func(h uint64) uint64 {
		if calls++; calls == 3 {
			return h ^ 1
		}
		return h
	}
	defer func() { hashHook = func(h uint64) uint64 { return h } }()

	var stdout, stderr bytes.Buffer
	code := run([]string{"-quick", "-workload", "weave_k8", "-trace", "0"}, &stdout, &stderr)
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res struct {
		Correct   bool `json:"correct"`
		Attempted int  `json:"attempted"`
		Failed    int  `json:"failed"`
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not the result object: %v\n%s", err, stdout.String())
	}
	if code == 0 || res.Correct || res.Failed == 0 || res.Attempted <= res.Failed {
		t.Errorf("corrupted hash went unnoticed: exit %d, result %+v", code, res)
	}
	if !strings.Contains(stdout.String(), "model hash") {
		t.Errorf("no failed-check line names the model hash:\n%s", stdout.String())
	}
}

// TestCompareJudgesByBoundAndExactness holds -compare to its two rules.
func TestCompareJudgesByBoundAndExactness(t *testing.T) {
	spec, _, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	mk := func(opMs, sim float64) *report {
		e2e := map[string]value{"sim_seconds": {Value: sim, Unit: "s"}, "fail_share": {Unit: "ratio"}}
		for _, ms := range spec.EndToEnd {
			e2e[ms.Name] = value{Value: opMs, Unit: ms.Unit}
		}
		return &report{Workloads: map[string]*workloadReport{"glm_cached": {EndToEnd: e2e}}}
	}
	var out bytes.Buffer
	if code := compareReports(&out, spec, mk(100, 0.5), mk(101, 0.5)); code != 0 {
		t.Errorf("1%% worse within every bound, yet -compare exited %d:\n%s", code, out.String())
	}
	if code := compareReports(&out, spec, mk(100, 0.5), mk(200, 0.5)); code != 1 {
		t.Errorf("2x worse passed -compare (exit %d)", code)
	}
	if code := compareReports(&out, spec, mk(100, 0.5), mk(100, math.Nextafter(0.5, 1))); code != 1 {
		t.Errorf("a one-ulp drift of sim_seconds passed -compare (exit %d)", code)
	}
}
