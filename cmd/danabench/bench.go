package main

// Benchmark export and regression gate (CI's `bench` job).
//
//	danabench -bench . -count 5 -name ci                 # write BENCH_ci.json
//	danabench -bench . -count 5 -name ci \
//	    -baseline BENCH_baseline.json -maxreg 0.15       # and gate on it
//
// The bench mode shells out to `go test -run=^$ -bench=<re> -benchmem
// -count=N <pkgs>`, parses the standard benchmark output, and writes a
// machine-readable BENCH_<name>.json holding the median ns/op per
// benchmark plus a deterministic "modeled" section (cycle counters from
// an in-process LR training run, exported through internal/obs). With
// -baseline, it compares wall times against the committed baseline and
// exits non-zero when any benchmark regressed by more than -maxreg.
//
// Wall times are normalized by BenchmarkCalibration — a fixed
// arithmetic kernel measured in the same run — before comparison, so a
// slower CI runner does not read as a regression and a faster one does
// not mask a real slowdown. Modeled counters are compared exactly and
// reported (informational): they are bit-deterministic, so any drift
// means the cycle model changed and the baseline needs regenerating.

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"runtime"
	"sort"
	"strconv"
	"strings"

	"dana"
)

// benchSchema versions the BENCH_*.json layout.
const benchSchema = 1

type benchFile struct {
	Schema int    `json:"schema"`
	Name   string `json:"name"`
	GoOS   string `json:"goos"`
	GoArch string `json:"goarch"`
	// The host the wall times are from (the `go test` child inherits both).
	NProc      int                   `json:"nproc"`
	GoMaxProcs int                   `json:"gomaxprocs"`
	Count      int                   `json:"count"`
	Benchmarks map[string]benchEntry `json:"benchmarks"`
	// Modeled holds deterministic simulator counters (engine / strider
	// / bufpool cycles and volumes) from a fixed in-process LR train.
	Modeled map[string]int64 `json:"modeled,omitempty"`
}

type benchEntry struct {
	// NsPerOp is the median across -count runs.
	NsPerOp     float64   `json:"ns_per_op"`
	Samples     []float64 `json:"samples,omitempty"`
	BytesPerOp  int64     `json:"bytes_per_op,omitempty"`
	AllocsPerOp int64     `json:"allocs_per_op,omitempty"`
	// Metrics carries custom b.ReportMetric units (medians across
	// repetitions) — e.g. the server load benchmark's vjobs/s, p99ms,
	// and reuse%. Informational in the gate: only ns/op is gated.
	Metrics map[string]float64 `json:"metrics,omitempty"`

	metricSamples map[string][]float64
}

// calibrationBench is the fixed-arithmetic kernel used to normalize
// wall times across machines (see BenchmarkCalibration in bench_test.go).
const calibrationBench = "BenchmarkCalibration"

func runBenchMode(benchRe string, count int, pkgs, name, outDir, baseline string, maxReg float64) error {
	results, err := runGoBench(benchRe, count, strings.Fields(pkgs))
	if err != nil {
		return err
	}
	if len(results) == 0 {
		return fmt.Errorf("no benchmarks matched %q", benchRe)
	}
	bf := &benchFile{
		Schema: benchSchema, Name: name,
		GoOS: runtime.GOOS, GoArch: runtime.GOARCH,
		NProc: runtime.NumCPU(), GoMaxProcs: runtime.GOMAXPROCS(0),
		Count: count, Benchmarks: results,
	}
	modeled, err := modeledCounters()
	if err != nil {
		return fmt.Errorf("modeled counters: %w", err)
	}
	bf.Modeled = modeled

	out := filepath.Join(outDir, "BENCH_"+name+".json")
	data, err := json.MarshalIndent(bf, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(out, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s: %d benchmarks, %d modeled counters\n", out, len(bf.Benchmarks), len(bf.Modeled))

	if baseline == "" {
		return nil
	}
	base, err := readBenchFile(baseline)
	if err != nil {
		return fmt.Errorf("baseline: %w", err)
	}
	return gate(bf, base, maxReg)
}

// runGoBench shells out to the Go benchmark runner, tees its output,
// and returns the per-benchmark median of ns/op across repetitions.
func runGoBench(benchRe string, count int, pkgs []string) (map[string]benchEntry, error) {
	if len(pkgs) == 0 {
		pkgs = []string{"./..."}
	}
	args := append([]string{
		"test", "-run", "^$", "-bench", benchRe, "-benchmem",
		"-count", strconv.Itoa(count),
	}, pkgs...)
	cmd := exec.Command("go", args...)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	samples := map[string]*benchEntry{}
	sc := bufio.NewScanner(stdout)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		fmt.Println(line)
		name, e, ok := parseBenchLine(line)
		if !ok {
			continue
		}
		agg, exists := samples[name]
		if !exists {
			agg = &benchEntry{}
			samples[name] = agg
		}
		agg.Samples = append(agg.Samples, e.NsPerOp)
		agg.BytesPerOp = e.BytesPerOp
		agg.AllocsPerOp = e.AllocsPerOp
		for unit, v := range e.Metrics {
			if agg.metricSamples == nil {
				agg.metricSamples = map[string][]float64{}
			}
			agg.metricSamples[unit] = append(agg.metricSamples[unit], v)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if err := cmd.Wait(); err != nil {
		return nil, fmt.Errorf("go test -bench: %w", err)
	}
	out := make(map[string]benchEntry, len(samples))
	for name, agg := range samples {
		agg.NsPerOp = median(agg.Samples)
		for unit, vs := range agg.metricSamples {
			if agg.Metrics == nil {
				agg.Metrics = map[string]float64{}
			}
			agg.Metrics[unit] = median(vs)
		}
		out[name] = *agg
	}
	return out, nil
}

var cpuSuffix = regexp.MustCompile(`-\d+$`)

// parseBenchLine parses a standard benchmark result line:
//
//	BenchmarkName-8   1234   5678 ns/op   90 B/op   1 allocs/op
//
// The -NumCPU suffix is stripped so results compare across machines.
func parseBenchLine(line string) (string, benchEntry, bool) {
	f := strings.Fields(line)
	if len(f) < 4 || !strings.HasPrefix(f[0], "Benchmark") {
		return "", benchEntry{}, false
	}
	var e benchEntry
	seen := false
	for i := 2; i+1 < len(f); i += 2 {
		v, err := strconv.ParseFloat(f[i], 64)
		if err != nil {
			continue
		}
		switch f[i+1] {
		case "ns/op":
			e.NsPerOp, seen = v, true
		case "B/op":
			e.BytesPerOp = int64(v)
		case "allocs/op":
			e.AllocsPerOp = int64(v)
		default:
			// Custom b.ReportMetric units (vjobs/s, p99ms, reuse%, ...).
			if e.Metrics == nil {
				e.Metrics = map[string]float64{}
			}
			e.Metrics[f[i+1]] = v
		}
	}
	if !seen {
		return "", benchEntry{}, false
	}
	return cpuSuffix.ReplaceAllString(f[0], ""), e, true
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// modeledCounters runs a fixed LR training configuration in process and
// exports the deterministic obs counters: bit-identical on every
// machine and run, so the gate can separate "this machine is slow"
// from "the simulator now does different work".
func modeledCounters() (map[string]int64, error) {
	eng, err := dana.Open(dana.Config{PageSize: 32 << 10, PoolBytes: 128 << 20, Workers: 1})
	if err != nil {
		return nil, err
	}
	d, err := eng.LoadWorkload("Remote Sensing LR", 0.01, 1)
	if err != nil {
		return nil, err
	}
	a, err := d.DSLAlgo(64)
	if err != nil {
		return nil, err
	}
	a.SetEpochs(3)
	if err := eng.RegisterUDF(a, 64); err != nil {
		return nil, err
	}
	if _, err := eng.Train(a.Name, d.Rel.Name); err != nil {
		return nil, err
	}
	snap := eng.Obs().Snapshot()
	modeled := map[string]int64{}
	for name, v := range snap.Counters {
		// Wall-clock counters vary per machine; everything else the
		// registry holds for this run is modeled and deterministic.
		if strings.HasSuffix(name, "_ns") {
			continue
		}
		modeled[name] = v
	}
	return modeled, nil
}

func readBenchFile(path string) (*benchFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var bf benchFile
	if err := json.Unmarshal(data, &bf); err != nil {
		return nil, err
	}
	if bf.Schema != benchSchema {
		return nil, fmt.Errorf("%s: schema %d, want %d", path, bf.Schema, benchSchema)
	}
	return &bf, nil
}

// gate compares current wall times against the baseline, normalized by
// the calibration benchmark, and fails on regressions beyond maxReg.
func gate(cur, base *benchFile, maxReg float64) error {
	norm := 1.0
	curCal, okC := cur.Benchmarks[calibrationBench]
	baseCal, okB := base.Benchmarks[calibrationBench]
	if okC && okB && curCal.NsPerOp > 0 && baseCal.NsPerOp > 0 {
		norm = baseCal.NsPerOp / curCal.NsPerOp
		fmt.Printf("calibration: baseline %.0f ns/op, current %.0f ns/op -> machine-speed factor %.3f\n",
			baseCal.NsPerOp, curCal.NsPerOp, 1/norm)
	} else {
		fmt.Println("calibration benchmark missing from baseline or current run; comparing raw wall times")
	}

	names := make([]string, 0, len(base.Benchmarks))
	for name := range base.Benchmarks {
		names = append(names, name)
	}
	sort.Strings(names)
	var regressions, missing []string
	for _, name := range names {
		if name == calibrationBench {
			continue
		}
		b := base.Benchmarks[name]
		c, ok := cur.Benchmarks[name]
		if !ok {
			missing = append(missing, name)
			continue
		}
		if b.NsPerOp <= 0 {
			continue
		}
		ratio := (c.NsPerOp * norm) / b.NsPerOp
		status := "ok"
		if ratio > 1+maxReg {
			status = "REGRESSED"
			regressions = append(regressions,
				fmt.Sprintf("%s: %.2fx baseline (%.0f -> %.0f ns/op normalized)", name, ratio, b.NsPerOp, c.NsPerOp*norm))
		}
		fmt.Printf("  %-44s %8.3fx  %s\n", name, ratio, status)
	}
	for _, name := range missing {
		fmt.Printf("  %-44s  (missing from current run)\n", name)
	}

	drift := 0
	for name, bv := range base.Modeled {
		if cv, ok := cur.Modeled[name]; ok && cv != bv {
			fmt.Printf("modeled counter drift: %s baseline %d, current %d\n", name, bv, cv)
			drift++
		}
	}
	if drift > 0 {
		fmt.Printf("note: %d modeled counter(s) drifted — the cycle model changed; regenerate the baseline if intended\n", drift)
	}

	if len(regressions) > 0 {
		return fmt.Errorf("wall-time regression beyond %.0f%%:\n  %s",
			100*maxReg, strings.Join(regressions, "\n  "))
	}
	fmt.Printf("bench gate passed: no benchmark beyond %.0f%% of baseline\n", 100*maxReg)
	return nil
}
