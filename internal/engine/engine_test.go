package engine

import (
	"math"
	"strings"
	"testing"
)

// linearProg builds a hand-written program over f features computing,
// per tuple (x[0..f), y): dot = Σ w*x ; err = dot - y ; grad = err*x ;
// w' = w - lr*grad, with no merge (plain SGD).
func linearProg(f int) *Program {
	// Layout: w x y lr prod dot err grad up wNew, vectors f wide.
	w, x, y, lr := Slot{0, f}, Slot{f, f}, Slot{2 * f, 1}, Slot{2*f + 1, 1}
	prod, dot, errS := Slot{2*f + 2, f}, Slot{3*f + 2, 1}, Slot{3*f + 3, 1}
	grad, up, wNew := Slot{3*f + 4, f}, Slot{4*f + 4, f}, Slot{5*f + 4, f}
	return &Program{
		Slots:     6*f + 4,
		ModelSlot: w,
		InputSlot: Slot{f, f + 1},
		ConstSlot: lr,
		Consts:    []float32{0.1},
		PerTuple: []Instr{
			{Kind: KEW, Op: AMul, Dst: prod, A: w, B: x},
			{Kind: KReduce, Op: AAdd, Dst: dot, A: prod, GroupSize: f, GStride: 0, EStride: 1},
			{Kind: KEW, Op: ASub, Dst: errS, A: dot, B: y},
			{Kind: KEW, Op: AMul, Dst: grad, A: errS, B: x},
			{Kind: KEW, Op: AMul, Dst: up, A: lr, B: grad},
			{Kind: KEW, Op: ASub, Dst: wNew, A: w, B: up},
		},
		UpdatedSlot: wNew,
	}
}

// handProg is the tiny 4-feature instance:
// w[0,4) x[4,8) y[8] lr[9] prod[10,14) dot[14] err[15] grad[16,20) up[20,24) wNew[24,28).
func handProg() *Program { return linearProg(4) }

// mergeProg adds a merge path to linearProg(f): the merged gradient
// lands back in the gradient slots.
func mergeProg(f int) *Program {
	p := linearProg(f)
	p.MergeSrc = Slot{3*f + 4, f}
	p.MergeDst = p.MergeSrc
	p.MergeOp = AAdd
	return p
}

func defaultCfg() Config {
	return Config{Threads: 1, ACsPerThread: 2, AUsPerAC: DefaultAUsPerAC, ClockHz: 150e6}
}

func TestMachineSGDStep(t *testing.T) {
	m, err := NewMachine(handProg(), defaultCfg())
	if err != nil {
		t.Fatal(err)
	}
	if err := m.SetModel([]float32{1, 2, 3, 4}); err != nil {
		t.Fatal(err)
	}
	// x = (1,1,1,1), y = 0 => dot = 10, err = 10, w' = w - 0.1*10*x = w-1.
	if err := m.RunBatch([][]float32{{1, 1, 1, 1, 0}}); err != nil {
		t.Fatal(err)
	}
	want := []float32{0, 1, 2, 3}
	got := m.Model()
	for i := range want {
		if math.Abs(float64(got[i]-want[i])) > 1e-6 {
			t.Errorf("w[%d] = %v, want %v", i, got[i], want[i])
		}
	}
	st := m.Stats()
	if st.Tuples != 1 || st.Batches != 1 {
		t.Errorf("stats = %+v", st)
	}
	if st.Cycles <= 0 || st.ComputeCycles <= 0 || st.LoadCycles <= 0 {
		t.Errorf("cycle accounting missing: %+v", st)
	}
}

func TestMachineStaticEstimateMatchesDynamic(t *testing.T) {
	p := handProg()
	cfg := defaultCfg()
	m, err := NewMachine(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	const n = 64
	tuples := make([][]float32, n)
	for i := range tuples {
		tuples[i] = []float32{1, 2, 3, 4, 5}
	}
	if err := m.RunEpoch(tuples, 1); err != nil {
		t.Fatal(err)
	}
	est := p.Estimate(cfg)
	want := est.EpochCycles(n, 1, cfg.Threads)
	if got := m.Stats().Cycles; got != want {
		t.Errorf("dynamic cycles %d != static estimate %d", got, want)
	}
}

func TestAluOps(t *testing.T) {
	cases := []struct {
		op   AluOp
		a, b float32
		want float64
	}{
		{AAdd, 2, 3, 5}, {ASub, 2, 3, -1}, {AMul, 2, 3, 6}, {ADiv, 6, 3, 2},
		{ALt, 1, 2, 1}, {ALt, 2, 1, 0}, {AGt, 2, 1, 1}, {AGt, 1, 2, 0},
		{ASigmoid, 0, 0, 0.5}, {AGaussian, 0, 0, 1}, {ASqrt, 9, 0, 3},
		{ASquare, 3, 0, 9}, {AMov, 7, 1, 7},
	}
	for _, c := range cases {
		got := alu(c.op, c.a, c.b)
		if math.Abs(float64(got)-c.want) > 1e-6 {
			t.Errorf("alu(%v, %v, %v) = %v, want %v", c.op, c.a, c.b, got, c.want)
		}
	}
}

func TestLatencies(t *testing.T) {
	if AAdd.Latency() != 1 || AMul.Latency() != 2 || ADiv.Latency() != 8 {
		t.Error("unexpected latencies")
	}
	if !ASigmoid.IsUnary() || AAdd.IsUnary() {
		t.Error("IsUnary wrong")
	}
}

func TestConfigHelpers(t *testing.T) {
	cfg := Config{Threads: 4, ACsPerThread: 3, AUsPerAC: 8}
	if cfg.Lanes() != 24 || cfg.TotalAUs() != 96 {
		t.Errorf("Lanes=%d TotalAUs=%d", cfg.Lanes(), cfg.TotalAUs())
	}
	if err := (Config{}).validate(); err == nil {
		t.Error("zero config should be invalid")
	}
}

func TestProgramValidate(t *testing.T) {
	p := handProg()
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := *p
	bad.PerTuple = append([]Instr(nil), p.PerTuple...)
	bad.PerTuple[0].Dst = Slot{1000, 4}
	if err := bad.Validate(); err == nil {
		t.Error("out-of-range dst accepted")
	}
	bad2 := *p
	bad2.PerTuple = []Instr{{Kind: KReduce, Op: AAdd, Dst: Slot{14, 1}, A: Slot{24, 4}, GroupSize: 10, EStride: 2}}
	if err := bad2.Validate(); err == nil {
		t.Error("reduce overrun accepted")
	}
}

func TestMachineRejectsBadTuple(t *testing.T) {
	m, err := NewMachine(handProg(), defaultCfg())
	if err != nil {
		t.Fatal(err)
	}
	if err := m.RunBatch([][]float32{{1, 2}}); err == nil {
		t.Error("short tuple accepted")
	}
}

func TestMachineSetModelWrongSize(t *testing.T) {
	m, err := NewMachine(handProg(), defaultCfg())
	if err != nil {
		t.Fatal(err)
	}
	if err := m.SetModel([]float32{1}); err == nil {
		t.Error("wrong model size accepted")
	}
}

func TestGatherScatterBounds(t *testing.T) {
	p := &Program{
		Slots:     12,
		ModelSlot: Slot{0, 8}, // 4 rows x 2 cols
		InputSlot: Slot{8, 1},
		PerTuple: []Instr{
			{Kind: KGather, Dst: Slot{10, 2}, A: Slot{8, 1}, RowLen: 2},
		},
	}
	m, err := NewMachine(p, defaultCfg())
	if err != nil {
		t.Fatal(err)
	}
	if err := m.RunBatch([][]float32{{99}}); err == nil {
		t.Error("gather out of range accepted")
	}
}

func TestExpandAndListing(t *testing.T) {
	p := handProg()
	cfg := defaultCfg()
	ms := Expand(p, cfg)
	if ms.PerTupleMicroOps <= 0 {
		t.Errorf("micro ops = %+v", ms)
	}
	l := Listing(p)
	for _, want := range []string{"ew.mul", "red.add", "per-tuple", "updated-model"} {
		if !strings.Contains(l, want) {
			t.Errorf("listing missing %q:\n%s", want, l)
		}
	}
}

func TestMoreLanesFewerCycles(t *testing.T) {
	p := &Program{
		Slots:     3000,
		ModelSlot: Slot{0, 1000},
		InputSlot: Slot{1000, 1000},
		PerTuple: []Instr{
			{Kind: KEW, Op: AMul, Dst: Slot{2000, 1000}, A: Slot{0, 1000}, B: Slot{1000, 1000}},
		},
	}
	small := p.Estimate(Config{Threads: 1, ACsPerThread: 1, AUsPerAC: 8})
	big := p.Estimate(Config{Threads: 1, ACsPerThread: 16, AUsPerAC: 8})
	if big.PerTuple >= small.PerTuple {
		t.Errorf("16 ACs (%d cyc) should beat 1 AC (%d cyc)", big.PerTuple, small.PerTuple)
	}
}

func TestLog2Ceil(t *testing.T) {
	cases := map[int]int{1: 0, 2: 1, 3: 2, 4: 2, 8: 3, 9: 4}
	for in, want := range cases {
		if got := log2Ceil(in); got != want {
			t.Errorf("log2Ceil(%d) = %d, want %d", in, got, want)
		}
	}
}
