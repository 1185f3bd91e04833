package hwgen

import (
	"strings"
	"testing"

	"dana/internal/compiler"
	"dana/internal/dsl"
	"dana/internal/engine"
	"dana/internal/hdfg"
)

func compileLinear(t *testing.T, nFeat, coef int) *engine.Program {
	t.Helper()
	a := dsl.NewAlgo("linearR")
	mo := a.Model(nFeat)
	in := a.Input(nFeat)
	out := a.Output()
	lr := a.Meta(0.1)
	s := dsl.Sigma(dsl.Mul(mo, in), 1)
	grad := dsl.Mul(dsl.Sub(s, out), in)
	moUp := dsl.Sub(mo, dsl.Mul(lr, grad))
	if coef > 1 {
		a.MustMerge(grad, coef, "+")
	}
	a.SetModel(moUp)
	a.SetEpochs(1)
	g, err := hdfg.Translate(a)
	if err != nil {
		t.Fatal(err)
	}
	p, err := compiler.Compile(g)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestVU9PMatchesTable4(t *testing.T) {
	f := VU9P()
	if f.LUTs != 1182000 || f.FlipFlops != 2364000 {
		t.Errorf("LUT/FF = %d/%d", f.LUTs, f.FlipFlops)
	}
	if f.ClockHz != 150e6 {
		t.Errorf("clock = %v", f.ClockHz)
	}
	if f.BRAMBytes != 44<<20 {
		t.Errorf("BRAM = %d", f.BRAMBytes)
	}
	if f.DSPs != 6840 {
		t.Errorf("DSPs = %d", f.DSPs)
	}
	// §7.2: "In UltraScale+ FPGA, maximum 1024 compute units can be
	// instantiated."
	if f.MaxAUsAvailable() != 1024 {
		t.Errorf("MaxAUsAvailable = %d, want 1024", f.MaxAUsAvailable())
	}
}

func TestGeneratePicksFeasibleDesign(t *testing.T) {
	p := compileLinear(t, 54, 64) // Remote Sensing topology
	d, err := Generate(p, VU9P(), Params{PageSize: 32 << 10, MergeCoef: 64, NumTuples: 100000})
	if err != nil {
		t.Fatal(err)
	}
	if d.Engine.Threads < 1 || d.Engine.Threads > 64 {
		t.Errorf("threads = %d", d.Engine.Threads)
	}
	if d.AUs > VU9P().MaxAUsAvailable() {
		t.Errorf("AUs = %d over budget", d.AUs)
	}
	if d.BRAMBytes > VU9P().BRAMBytes {
		t.Errorf("BRAM = %d over budget", d.BRAMBytes)
	}
	if d.NumStriders < 1 || d.PageBuffers < d.NumStriders {
		t.Errorf("striders=%d buffers=%d", d.NumStriders, d.PageBuffers)
	}
	if !strings.Contains(d.String(), "threads") {
		t.Errorf("String() = %q", d.String())
	}
}

func TestMoreMergeCoefMoreThreads(t *testing.T) {
	p := compileLinear(t, 54, 2)
	d2, err := Generate(p, VU9P(), Params{PageSize: 32 << 10, MergeCoef: 2, NumTuples: 1 << 18})
	if err != nil {
		t.Fatal(err)
	}
	p64 := compileLinear(t, 54, 64)
	d64, err := Generate(p64, VU9P(), Params{PageSize: 32 << 10, MergeCoef: 64, NumTuples: 1 << 18})
	if err != nil {
		t.Fatal(err)
	}
	if d64.Engine.Threads <= d2.Engine.Threads {
		t.Errorf("threads: coef64 %d <= coef2 %d", d64.Engine.Threads, d2.Engine.Threads)
	}
	if d64.Utilization <= d2.Utilization {
		t.Errorf("utilization: coef64 %.2f <= coef2 %.2f", d64.Utilization, d2.Utilization)
	}
	e2 := p.Estimate(d2.Engine).EpochCycles(1<<18, 2, d2.Engine.Threads)
	e64 := p64.Estimate(d64.Engine).EpochCycles(1<<18, 64, d64.Engine.Threads)
	if e64 >= e2 {
		t.Errorf("epoch cycles: coef64 %d >= coef2 %d", e64, e2)
	}
}

func TestBRAMInfeasibleRejected(t *testing.T) {
	p := compileLinear(t, 2000, 1)
	tiny := VU9P()
	tiny.BRAMBytes = 1 << 10 // 1 KB
	if _, err := Generate(p, tiny, Params{PageSize: 8 << 10}); err == nil {
		t.Error("design with 1 KB BRAM should be infeasible")
	}
}

func TestTablaDesignSingleThreadNoStriders(t *testing.T) {
	p := compileLinear(t, 54, 64)
	dana := engine.Config{Threads: 64, ACsPerThread: 2, AUsPerAC: engine.DefaultAUsPerAC}
	d := TablaDesign(p, VU9P(), Params{PageSize: 32 << 10, MergeCoef: 64}, dana)
	if d.Engine.Threads != 1 {
		t.Errorf("threads = %d", d.Engine.Threads)
	}
	if d.NumStriders != 0 {
		t.Errorf("striders = %d", d.NumStriders)
	}
	// A program the explorer cannot place runs on one thread of dana.
	tiny := VU9P()
	tiny.BRAMBytes = 1 << 10
	want := dana
	want.Threads = 1
	if d := TablaDesign(p, tiny, Params{PageSize: 8 << 10}, dana); d.Engine != want || d.NumStriders != 0 {
		t.Errorf("unplaceable program: engine %+v with %d striders, want %+v with none", d.Engine, d.NumStriders, want)
	}
}

func TestWideModelUsesMoreACsPerThread(t *testing.T) {
	narrow := compileLinear(t, 8, 16)
	wide := compileLinear(t, 2000, 16)
	dn, err := Generate(narrow, VU9P(), Params{PageSize: 32 << 10, MergeCoef: 16})
	if err != nil {
		t.Fatal(err)
	}
	dw, err := Generate(wide, VU9P(), Params{PageSize: 32 << 10, MergeCoef: 16})
	if err != nil {
		t.Fatal(err)
	}
	if dw.Engine.ACsPerThread <= dn.Engine.ACsPerThread {
		t.Errorf("ACs/thread: wide %d <= narrow %d", dw.Engine.ACsPerThread, dn.Engine.ACsPerThread)
	}
}

func TestDesignDeterministic(t *testing.T) {
	p := compileLinear(t, 54, 64)
	params := Params{PageSize: 32 << 10, MergeCoef: 64, NumTuples: 12345}
	d1, err := Generate(p, VU9P(), params)
	if err != nil {
		t.Fatal(err)
	}
	d2, err := Generate(p, VU9P(), params)
	if err != nil {
		t.Fatal(err)
	}
	if d1.Engine != d2.Engine || d1.NumStriders != d2.NumStriders {
		t.Errorf("non-deterministic design: %+v vs %+v", d1, d2)
	}
}
