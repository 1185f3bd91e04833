package main

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func TestParseBenchLine(t *testing.T) {
	for _, c := range []struct {
		line string
		name string
		want benchEntry
		ok   bool
	}{
		{
			line: "BenchmarkAccelConfigure/WLAN-2   \t   57063\t     21202 ns/op\t   73424 B/op\t       6 allocs/op",
			name: "BenchmarkAccelConfigure/WLAN",
			want: benchEntry{BytesPerOp: 73424, AllocsPerOp: 6},
			ok:   true,
		},
		{
			// No -N suffix (GOMAXPROCS 1), no -benchmem columns.
			line: "BenchmarkBufferPoolPin  12000000  97.52 ns/op",
			name: "BenchmarkBufferPoolPin",
			ok:   true,
		},
		{
			// The suffix is stripped once, from the end only.
			line: "BenchmarkParallelExtract/workers=4-16  300  3339680 ns/op  892.87 MB/s  3479978 tuples/s  4050000 B/op  253 allocs/op",
			name: "BenchmarkParallelExtract/workers=4",
			want: benchEntry{BytesPerOp: 4050000, AllocsPerOp: 253, Metrics: map[string]float64{"MB/s": 892.87, "tuples/s": 3479978}},
			ok:   true,
		},
		{
			line: "BenchmarkServerTenantLoad-2  5  25344559 ns/op  162.3 p99ms  50.00 reuse%  4.752 vjobs/s  29851284 B/op  18890 allocs/op",
			name: "BenchmarkServerTenantLoad",
			want: benchEntry{BytesPerOp: 29851284, AllocsPerOp: 18890, Metrics: map[string]float64{"p99ms": 162.3, "reuse%": 50, "vjobs/s": 4.752}},
			ok:   true,
		},
		{line: "BenchmarkEngineRowKernel/hand-2  \t some log output from the benchmark"},
		{line: "BenchmarkWeird-2  10  5 B/op  1 allocs/op"},
		{line: "goos: linux"},
		{line: "PASS"},
		{line: "ok  \tdana\t12.345s"},
	} {
		name, e, ok := parseBenchLine(c.line)
		if ok != c.ok || name != c.name || !reflect.DeepEqual(e, c.want) {
			t.Errorf("parseBenchLine(%q) = %q, %+v, %v; want %q, %+v, %v", c.line, name, e, ok, c.name, c.want, c.ok)
		}
	}
}

func TestMedianEntryTakesEveryFieldsMedian(t *testing.T) {
	got := medianEntry([]benchEntry{
		{BytesPerOp: 50609, AllocsPerOp: 26, Metrics: map[string]float64{"tuples/s": 3}},
		{BytesPerOp: 59341, AllocsPerOp: 25, Metrics: map[string]float64{"tuples/s": 1}},
		{BytesPerOp: 51000, AllocsPerOp: 26, Metrics: map[string]float64{"tuples/s": 2}},
		{BytesPerOp: 52000, AllocsPerOp: 26, Metrics: map[string]float64{"tuples/s": 5}},
		{BytesPerOp: 58000, AllocsPerOp: 25, Metrics: map[string]float64{"tuples/s": 4}},
	})
	want := benchEntry{BytesPerOp: 52000, AllocsPerOp: 26, Metrics: map[string]float64{"tuples/s": 3}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("medianEntry = %+v, want %+v", got, want)
	}
}

// gateBaseline writes a small baseline to disk and reads it back, so the
// gate is tested on what a committed file holds.
func gateBaseline(t *testing.T) *benchFile {
	t.Helper()
	bf := &benchFile{
		Schema: benchSchema, Name: "baseline", Count: 5,
		Benchmarks: map[string]benchEntry{
			"BenchmarkAccelConfigure/WLAN":    {BytesPerOp: 73424, AllocsPerOp: 6},
			"BenchmarkEngineMergeKernel/plan": {Metrics: map[string]float64{"ns/tuple": 74.19}},
			"BenchmarkTrainWallClock/LR/serial": {
				BytesPerOp: 51000, AllocsPerOp: 26, Metrics: map[string]float64{"tuples/s": 5649726},
			},
		},
		Modeled: map[string]int64{"engine.cycles": 24570, "runtime.cpu_fallbacks": 0, "strider.pages_walked": 138},
	}
	path := filepath.Join(t.TempDir(), "BENCH_baseline.json")
	if err := writeBenchFile(path, bf); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), `"allocs_per_op": 0`) {
		t.Fatalf("a zero-allocation row lost its allocs_per_op field:\n%s", data)
	}
	base, err := readBenchFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return base
}

// gateRun returns a run that reproduces base exactly.
func gateRun(base *benchFile) *benchFile {
	cur := *base
	cur.Name = "ci"
	cur.Benchmarks = map[string]benchEntry{}
	for name, e := range base.Benchmarks {
		cur.Benchmarks[name] = e
	}
	cur.Modeled = map[string]int64{}
	for name, v := range base.Modeled {
		cur.Modeled[name] = v
	}
	return &cur
}

func TestGatePassesExactRun(t *testing.T) {
	base := gateBaseline(t)
	if err := gate(gateRun(base), base, 0.15); err != nil {
		t.Fatalf("a run equal to its baseline failed the gate: %v", err)
	}
}

// TestGatePassesUngatedChanges: bytes/op, custom metrics and rows the
// baseline does not name are recorded, not gated, and allocs/op may grow
// up to the bound.
func TestGatePassesUngatedChanges(t *testing.T) {
	base := gateBaseline(t)
	cur := gateRun(base)
	e := cur.Benchmarks["BenchmarkTrainWallClock/LR/serial"]
	e.AllocsPerOp = 29 // 26 × 1.15 = 29.9
	e.BytesPerOp *= 3
	e.Metrics = map[string]float64{"tuples/s": 1}
	cur.Benchmarks["BenchmarkTrainWallClock/LR/serial"] = e
	cur.Benchmarks["BenchmarkNew"] = benchEntry{AllocsPerOp: 1000}
	if err := gate(cur, base, 0.15); err != nil {
		t.Fatalf("allocs/op inside the bound, bytes/op, metrics and a new row failed the gate: %v", err)
	}
}

// TestGateCatchesPlantedFaults plants one fault per gated field and
// requires each to fail with a message naming it.
func TestGateCatchesPlantedFaults(t *testing.T) {
	for _, c := range []struct {
		name  string
		plant func(cur *benchFile)
		want  string
	}{
		{"modeled counter +1", func(cur *benchFile) { cur.Modeled["engine.cycles"]++ }, "modeled engine.cycles: baseline 24570, run 24571"},
		{"modeled counter only in the run", func(cur *benchFile) { cur.Modeled["engine.new_counter"] = 0 }, "modeled engine.new_counter: 0 in the run, absent from the baseline"},
		{"modeled counter only in the baseline", func(cur *benchFile) { delete(cur.Modeled, "runtime.cpu_fallbacks") }, "modeled runtime.cpu_fallbacks: 0 in the baseline, absent from the run"},
		{"missing row", func(cur *benchFile) { delete(cur.Benchmarks, "BenchmarkAccelConfigure/WLAN") }, "BenchmarkAccelConfigure/WLAN: not produced by the run"},
		{"allocs over the bound", func(cur *benchFile) {
			e := cur.Benchmarks["BenchmarkTrainWallClock/LR/serial"]
			e.AllocsPerOp = 30 // 26 × 1.15 = 29.9
			cur.Benchmarks["BenchmarkTrainWallClock/LR/serial"] = e
		}, "BenchmarkTrainWallClock/LR/serial: 30 allocs/op, baseline 26"},
		{"zero-alloc row allocates once", func(cur *benchFile) {
			e := cur.Benchmarks["BenchmarkEngineMergeKernel/plan"]
			e.AllocsPerOp = 1
			cur.Benchmarks["BenchmarkEngineMergeKernel/plan"] = e
		}, "BenchmarkEngineMergeKernel/plan: 1 allocs/op, baseline 0"},
	} {
		t.Run(c.name, func(t *testing.T) {
			base := gateBaseline(t)
			cur := gateRun(base)
			c.plant(cur)
			err := gate(cur, base, 0.15)
			if err == nil {
				t.Fatal("planted fault passed the gate")
			}
			if !strings.Contains(err.Error(), c.want) {
				t.Fatalf("gate error does not name the fault %q:\n%v", c.want, err)
			}
		})
	}
}
