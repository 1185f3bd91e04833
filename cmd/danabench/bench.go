package main

// Benchmark export and exact-field gate (CI's `bench` job).
//
//	danabench -bench . -count 5 -name ci                 # write BENCH_ci.json
//	danabench -bench . -count 5 -name ci \
//	    -baseline BENCH_baseline.json -maxreg 0.15       # and gate on it
//
// The bench mode shells out to `go test -run=^$ -bench=<re> -benchmem
// -count=N <pkgs>`, parses the standard benchmark output, and writes a
// machine-readable BENCH_<name>.json holding each benchmark's median
// B/op, allocs/op and custom metrics, plus a deterministic "modeled"
// section (cycle counters from an in-process LR training run, exported
// through internal/obs).
//
// Wall time is not recorded: over five runs of one binary on a shared
// 2-vCPU host, 53 of 57 rows' calibration-normalised medians spread by
// more than 15 % (up to 78 %), so host time is measured by bench/'s
// paired, alternating runs instead. With -baseline the gate checks only
// what is exact, and fails when a modeled counter differs or is present
// on one side only, when a baseline row is not produced by the run, or
// when a row's median allocs/op exceeds the baseline's × (1 + -maxreg).

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"runtime"
	"slices"
	"strconv"
	"strings"

	"dana"
)

// benchSchema versions the BENCH_*.json layout.
const benchSchema = 2

type benchFile struct {
	Schema int    `json:"schema"`
	Name   string `json:"name"`
	GoOS   string `json:"goos"`
	GoArch string `json:"goarch"`
	// The host the run is from (the `go test` child inherits both).
	NProc      int                   `json:"nproc"`
	GoMaxProcs int                   `json:"gomaxprocs"`
	Count      int                   `json:"count"`
	Benchmarks map[string]benchEntry `json:"benchmarks"`
	// Modeled holds deterministic simulator counters (engine / strider
	// / bufpool cycles and volumes) from a fixed in-process LR train.
	Modeled map[string]int64 `json:"modeled,omitempty"`
}

// benchEntry holds medians across -count runs. Both per-op fields are
// always written, so a row recorded at zero allocations reads as zero
// and fails the gate on its first allocation. BytesPerOp is recorded but
// not gated: one binary's TrainWallClock/LR/parallel4+cache read
// 56 266–103 423 B/op over 25 samples.
type benchEntry struct {
	BytesPerOp  int64 `json:"bytes_per_op"`
	AllocsPerOp int64 `json:"allocs_per_op"`
	// Metrics carries custom b.ReportMetric units — e.g. the server load
	// benchmark's vjobs/s, p99ms, and reuse%. Informational.
	Metrics map[string]float64 `json:"metrics,omitempty"`
}

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
	if err := writeBenchFile(out, bf); err != nil {
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
// and returns each benchmark's median entry across repetitions.
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
	samples := map[string][]benchEntry{}
	sc := bufio.NewScanner(stdout)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		fmt.Println(line)
		if name, e, ok := parseBenchLine(line); ok {
			samples[name] = append(samples[name], e)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if err := cmd.Wait(); err != nil {
		return nil, fmt.Errorf("go test -bench: %w", err)
	}
	out := make(map[string]benchEntry, len(samples))
	for name, es := range samples {
		out[name] = medianEntry(es)
	}
	return out, nil
}

// medianEntry takes each field's median across one benchmark's samples.
func medianEntry(es []benchEntry) benchEntry {
	var bytes, allocs []int64
	metrics := map[string][]float64{}
	for _, e := range es {
		bytes = append(bytes, e.BytesPerOp)
		allocs = append(allocs, e.AllocsPerOp)
		for unit, v := range e.Metrics {
			metrics[unit] = append(metrics[unit], v)
		}
	}
	m := benchEntry{BytesPerOp: median(bytes), AllocsPerOp: median(allocs)}
	for unit, vs := range metrics {
		if m.Metrics == nil {
			m.Metrics = map[string]float64{}
		}
		m.Metrics[unit] = median(vs)
	}
	return m
}

var cpuSuffix = regexp.MustCompile(`-\d+$`)

// parseBenchLine parses a standard benchmark result line:
//
//	BenchmarkName-8   1234   5678 ns/op   90 B/op   1 allocs/op
//
// The ns/op field marks a result line and is not kept. The -NumCPU
// suffix is stripped so results compare across machines.
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
			seen = true
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

func median[T int64 | float64](xs []T) T {
	s := slices.Clone(xs)
	slices.Sort(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// modeledCounters runs a fixed LR training configuration in process and
// exports the deterministic obs counters: bit-identical on every
// machine, run and extraction worker count, so the gate can tell "the
// simulator now does different work" apart from host noise.
func modeledCounters() (map[string]int64, error) {
	eng, err := dana.Open(dana.Config{PageSize: 32 << 10, PoolBytes: 128 << 20})
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

func writeBenchFile(path string, bf *benchFile) error {
	data, err := json.MarshalIndent(bf, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
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

// gate checks cur against base on the fields that are exact and returns
// every finding, modeled counters first, each group in sorted order.
func gate(cur, base *benchFile, maxReg float64) error {
	var fails []string
	names := map[string]bool{}
	for name := range base.Modeled {
		names[name] = true
	}
	for name := range cur.Modeled {
		names[name] = true
	}
	for _, name := range sortedKeys(names) {
		bv, inBase := base.Modeled[name]
		cv, inCur := cur.Modeled[name]
		switch {
		case !inBase:
			fails = append(fails, fmt.Sprintf("modeled %s: %d in the run, absent from the baseline", name, cv))
		case !inCur:
			fails = append(fails, fmt.Sprintf("modeled %s: %d in the baseline, absent from the run", name, bv))
		case cv != bv:
			fails = append(fails, fmt.Sprintf("modeled %s: baseline %d, run %d", name, bv, cv))
		}
	}
	for _, name := range sortedKeys(base.Benchmarks) {
		b := base.Benchmarks[name]
		c, ok := cur.Benchmarks[name]
		switch {
		case !ok:
			fails = append(fails, name+": not produced by the run")
		case float64(c.AllocsPerOp) > float64(b.AllocsPerOp)*(1+maxReg):
			fails = append(fails, fmt.Sprintf("%s: %d allocs/op, baseline %d (+%.0f%% allowed)",
				name, c.AllocsPerOp, b.AllocsPerOp, 100*maxReg))
		}
	}
	if len(fails) > 0 {
		return fmt.Errorf("bench gate: %d finding(s) against the baseline:\n  %s", len(fails), strings.Join(fails, "\n  "))
	}
	fmt.Printf("bench gate passed: %d modeled counters equal, %d rows present, allocs/op within %.0f%% of baseline\n",
		len(base.Modeled), len(base.Benchmarks), 100*maxReg)
	return nil
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}
