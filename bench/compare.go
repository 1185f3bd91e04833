package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

func readReport(path string) (*report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rep report
	if err := json.Unmarshal(data, &rep); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rep, nil
}

// runCompare judges report b against base report a: for every workload and
// end-to-end metric it prints both values and b/a, and fails the pair when
// b is worse than a by more than the metric's bound in BENCHMARK.json. The
// two exact metrics must match bit for bit. Run it both ways round to ask
// whether two runs of one commit agree.
func runCompare(stdout, stderr io.Writer, spec *benchSpec, pathA, pathB string) int {
	a, err := readReport(pathA)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	b, err := readReport(pathB)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	return compareReports(stdout, spec, a, b)
}

func compareReports(stdout io.Writer, spec *benchSpec, a, b *report) int {
	fails := 0
	fmt.Fprintf(stdout, "%-12s %-16s %14s %14s %10s  %s\n", "workload", "metric", "a (base)", "b", "b/a", "verdict")
	names := make([]string, 0, len(a.Workloads))
	for name := range a.Workloads {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		wa, wb := a.Workloads[name], b.Workloads[name]
		if wb == nil {
			fmt.Fprintf(stdout, "%-12s missing from b: FAIL\n", name)
			fails++
			continue
		}
		for _, ms := range spec.allEndToEnd() {
			va, okA := wa.EndToEnd[ms.Name]
			vb, okB := wb.EndToEnd[ms.Name]
			verdict := "PASS"
			switch {
			case !okA || !okB:
				verdict = "FAIL (missing)"
			case ms.Bound == 0:
				if math.Float64bits(va.Value) != math.Float64bits(vb.Value) {
					verdict = "FAIL (must match exactly)"
				}
			default:
				worse := vb.Value/va.Value - 1
				if ms.Better == "higher" {
					worse = va.Value/vb.Value - 1
				}
				if !(worse <= ms.Bound) {
					verdict = fmt.Sprintf("FAIL (worse by %.1f%%, bound %.0f%%)", 100*worse, 100*ms.Bound)
				}
			}
			if verdict != "PASS" {
				fails++
			}
			ratio := 1.0 // 0/0: both sides agree
			if va.Value != vb.Value {
				ratio = vb.Value / va.Value
			}
			fmt.Fprintf(stdout, "%-12s %-16s %14.6g %14.6g %10.4f  %s\n", name, ms.Name, va.Value, vb.Value, ratio, verdict)
		}
	}
	if fails > 0 {
		fmt.Fprintf(stdout, "%d FAIL\n", fails)
		return 1
	}
	fmt.Fprintln(stdout, "all PASS")
	return 0
}
