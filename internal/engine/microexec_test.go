package engine

import (
	"math"
	"math/rand"
	"strings"
	"sync"
	"testing"
)

// lowerAndCompare runs the same tuple stream through the macro Machine
// (1 thread, batch 1) and the lowered MicroMachine, comparing models.
func lowerAndCompare(t *testing.T, p *Program, cfg Config, tupleWidth, n int, seed int64, initModel []float32) {
	t.Helper()
	cfg.Threads = 1
	mac, err := NewMachine(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	mp, err := Lower(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	mic := NewMicroMachine(mp)
	if initModel != nil {
		if err := mac.SetModel(initModel); err != nil {
			t.Fatal(err)
		}
		if err := mic.SetModel(initModel); err != nil {
			t.Fatal(err)
		}
	}
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < n; i++ {
		tuple := make([]float32, tupleWidth)
		for j := range tuple {
			tuple[j] = float32(rng.NormFloat64())
		}
		if err := mac.RunBatch([][]float32{tuple}); err != nil {
			t.Fatal(err)
		}
		if err := mic.RunTuple(tuple); err != nil {
			t.Fatal(err)
		}
	}
	a, b := mac.Model(), mic.Model()
	for i := range a {
		diff := math.Abs(float64(a[i] - b[i]))
		scale := math.Max(1, math.Abs(float64(a[i])))
		if diff/scale > 1e-4 {
			t.Fatalf("model[%d]: macro %v vs micro %v", i, a[i], b[i])
		}
	}
}

// linearProgWithMerge is the 4-feature merge program of engine_test.
func linearProgWithMerge() *Program { return mergeProg(4) }

func TestLowerHandProgramMatchesMacro(t *testing.T) {
	lowerAndCompare(t, handProg(), Config{Threads: 1, ACsPerThread: 2, AUsPerAC: 8, ClockHz: 150e6}, 5, 60, 1, []float32{0.5, -0.25, 1, 2})
}

func TestLowerSingleACConfig(t *testing.T) {
	lowerAndCompare(t, handProg(), Config{Threads: 1, ACsPerThread: 1, AUsPerAC: 8, ClockHz: 150e6}, 5, 40, 2, nil)
}

func TestLowerMergeProgram(t *testing.T) {
	lowerAndCompare(t, linearProgWithMerge(), Config{Threads: 1, ACsPerThread: 2, AUsPerAC: 8, ClockHz: 150e6}, 5, 40, 3, nil)
}

func TestLowerGatherScatterProgram(t *testing.T) {
	// Model: 4 rows x 2 cols; tuple = (row, delta): row' = row + delta.
	p := &Program{
		Slots:     16,
		ModelSlot: Slot{0, 8},
		InputSlot: Slot{8, 2},
		PerTuple: []Instr{
			{Kind: KGather, Dst: Slot{10, 2}, A: Slot{8, 1}, RowLen: 2},
			{Kind: KEW, Op: AAdd, Dst: Slot{12, 2}, A: Slot{10, 2}, B: Slot{9, 1}},
		},
		RowUpdates: []Instr{
			{Kind: KScatter, A: Slot{12, 2}, B: Slot{8, 1}, RowLen: 2},
		},
	}
	cfg := Config{Threads: 1, ACsPerThread: 1, AUsPerAC: 8, ClockHz: 150e6}
	mac, err := NewMachine(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	mp, err := Lower(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	mic := NewMicroMachine(mp)
	init := []float32{1, 2, 3, 4, 5, 6, 7, 8}
	if err := mac.SetModel(init); err != nil {
		t.Fatal(err)
	}
	if err := mic.SetModel(init); err != nil {
		t.Fatal(err)
	}
	tuples := [][]float32{{2, 0.5}, {0, -1}, {3, 2}, {2, 1}}
	for _, tup := range tuples {
		if err := mac.RunBatch([][]float32{tup}); err != nil {
			t.Fatal(err)
		}
		if err := mic.RunTuple(tup); err != nil {
			t.Fatal(err)
		}
	}
	a, b := mac.Model(), mic.Model()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("model[%d]: macro %v vs micro %v", i, a[i], b[i])
		}
	}
	// And the expected arithmetic: row 2 got +0.5 then +1.
	if a[4] != init[4]+1.5 || a[5] != init[5]+1.5 {
		t.Errorf("row 2 = %v,%v", a[4], a[5])
	}
}

func TestLowerStridedReduce(t *testing.T) {
	// Column sums of a 3x4 matrix (strided groups exercise the
	// group-serial lowering).
	p := &Program{
		Slots:     20,
		ModelSlot: Slot{0, 12},
		InputSlot: Slot{12, 1},
		PerTuple: []Instr{
			{Kind: KReduce, Op: AAdd, Dst: Slot{13, 4}, A: Slot{0, 12},
				GroupSize: 3, GStride: 1, EStride: 4},
		},
	}
	cfg := Config{Threads: 1, ACsPerThread: 2, AUsPerAC: 8, ClockHz: 150e6}
	mp, err := Lower(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	mic := NewMicroMachine(mp)
	model := make([]float32, 12)
	for i := range model {
		model[i] = float32(i + 1)
	}
	if err := mic.SetModel(model); err != nil {
		t.Fatal(err)
	}
	if err := mic.RunTuple([]float32{0}); err != nil {
		t.Fatal(err)
	}
	// Column j sum = (j+1) + (j+5) + (j+9).
	dst := mp.MapSlot(Slot{13, 4})
	for j := 0; j < 4; j++ {
		want := float32(3*j + 15)
		got := mic.scratch[dst.Base+j]
		if got != want {
			t.Errorf("col %d sum = %v, want %v", j, got, want)
		}
	}
}

func TestLowerMaskSanity(t *testing.T) {
	p := handProg()
	cfg := Config{Threads: 1, ACsPerThread: 2, AUsPerAC: 8, ClockHz: 150e6}
	mp, err := Lower(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	count := 0
	for _, mi := range mp.PerTuple {
		if mi.Kind != MCompute {
			continue
		}
		count++
		if mi.Mask == 0 {
			t.Errorf("empty mask in %v", mi)
		}
		if mi.AC < 0 || mi.AC >= cfg.ACsPerThread {
			t.Errorf("AC out of range in %v", mi)
		}
	}
	if count == 0 {
		t.Fatal("no compute micro ops")
	}
	pt, _, _ := mp.Count()
	if pt < count {
		t.Errorf("Count() = %d < %d", pt, count)
	}
}

func TestLowerListingStrings(t *testing.T) {
	p := handProg()
	mp, err := Lower(p, Config{Threads: 1, ACsPerThread: 2, AUsPerAC: 8, ClockHz: 150e6})
	if err != nil {
		t.Fatal(err)
	}
	sawBus, sawSIMD := false, false
	for _, mi := range mp.PerTuple {
		s := mi.String()
		if s == "?" || s == "" {
			t.Errorf("bad String for %+v", mi)
		}
		if mi.Kind == MBusLoad {
			sawBus = true
		}
		if mi.Kind == MCompute && strings.Contains(s, "mask=") {
			sawSIMD = true
		}
	}
	if !sawBus || !sawSIMD {
		t.Errorf("listing lacks bus loads (%v) or SIMD steps (%v)", sawBus, sawSIMD)
	}
}

func TestMicroMachineValidation(t *testing.T) {
	p := handProg()
	mp, err := Lower(p, Config{Threads: 1, ACsPerThread: 2, AUsPerAC: 8, ClockHz: 150e6})
	if err != nil {
		t.Fatal(err)
	}
	mic := NewMicroMachine(mp)
	if err := mic.SetModel([]float32{1}); err == nil {
		t.Error("wrong model size accepted")
	}
	if err := mic.LoadTuple([]float32{1}); err == nil {
		t.Error("wrong tuple width accepted")
	}
}

// Property: lowering any of a family of random EW programs preserves
// semantics against direct evaluation.
func TestLowerRandomEWPrograms(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 40; trial++ {
		n := 1 + rng.Intn(24)
		// input: two vectors of length n; output vector of length n.
		p := &Program{
			Slots:     8 + 3*n,
			ModelSlot: Slot{0, 4},
			InputSlot: Slot{8, 2 * n},
			PerTuple: []Instr{
				{Kind: KEW, Op: AMul, Dst: Slot{8 + 2*n, n}, A: Slot{8, n}, B: Slot{8 + n, n}},
			},
		}
		cfg := Config{Threads: 1, ACsPerThread: 1 + rng.Intn(3), AUsPerAC: 8, ClockHz: 150e6}
		mp, err := Lower(p, cfg)
		if err != nil {
			t.Fatal(err)
		}
		mic := NewMicroMachine(mp)
		tuple := make([]float32, 2*n)
		for j := range tuple {
			tuple[j] = float32(rng.NormFloat64())
		}
		if err := mic.RunTuple(tuple); err != nil {
			t.Fatal(err)
		}
		dst := mp.MapSlot(Slot{8 + 2*n, n})
		for i := 0; i < n; i++ {
			want := tuple[i] * tuple[n+i]
			if got := mic.scratch[dst.Base+i]; got != want {
				t.Fatalf("trial %d elem %d: %v != %v (cfg %+v)", trial, i, got, want, cfg)
			}
		}
	}
}

// TestLowerConcurrentKeepsOwnRemap: two programs lowered from parallel
// goroutines each get the slot translation of their own alignment.
// (alignProgram used to park the translation in a package variable that
// Lower read back, so overlapping calls raced and could swap MapSlots.)
func TestLowerConcurrentKeepsOwnRemap(t *testing.T) {
	cfg := Config{Threads: 1, ACsPerThread: 2, AUsPerAC: 8, ClockHz: 150e6}
	progs := []*Program{linearProg(5), linearProg(37)}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		p := progs[g%2]
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				mp, err := Lower(p, cfg)
				if err != nil {
					t.Error(err)
					return
				}
				for _, s := range []struct{ orig, aligned Slot }{
					{p.ModelSlot, mp.Prog.ModelSlot}, {p.InputSlot, mp.Prog.InputSlot},
					{p.UpdatedSlot, mp.Prog.UpdatedSlot}, {p.PerTuple[1].Dst, mp.Prog.PerTuple[1].Dst},
				} {
					if got := mp.MapSlot(s.orig); got != s.aligned {
						t.Errorf("%d-feature program: MapSlot(%v) = %v, its aligned program has %v", p.ModelSlot.Len, s.orig, got, s.aligned)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}
