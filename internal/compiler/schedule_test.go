package compiler

import (
	"strings"
	"testing"

	"dana/internal/dsl"
	"dana/internal/engine"
)

func schedCfg() engine.Config {
	return engine.Config{Threads: 1, ACsPerThread: 2, AUsPerAC: 8}
}

func TestScheduleRespectsBounds(t *testing.T) {
	for _, build := range []func() *dsl.Algo{
		func() *dsl.Algo { return linearAlgo(32, 8, 0.01) },
		func() *dsl.Algo { return logisticAlgo(16, 4, 0.1) },
		func() *dsl.Algo { return svmAlgo(24, 8, 0.05, 0.01) },
		func() *dsl.Algo { return lrmfAlgo(12, 6, 0.05) },
	} {
		_, p := mustCompile(t, build())
		s := ScheduleProgram(p, schedCfg())
		if s.MakespanCycles > s.SerialCycles {
			t.Errorf("makespan %d > serial %d", s.MakespanCycles, s.SerialCycles)
		}
		if s.MakespanCycles < s.CriticalPathCycles {
			t.Errorf("makespan %d < critical path %d", s.MakespanCycles, s.CriticalPathCycles)
		}
		// Every instruction scheduled exactly once.
		seen := map[int]bool{}
		for _, step := range s.Steps {
			for _, i := range step {
				if seen[i] {
					t.Fatalf("instruction %d scheduled twice", i)
				}
				seen[i] = true
			}
		}
		if len(seen) != len(p.PerTuple) {
			t.Errorf("scheduled %d of %d instructions", len(seen), len(p.PerTuple))
		}
	}
}

func TestScheduleExposesParallelChains(t *testing.T) {
	// Two independent elementwise chains must overlap: makespan well
	// below serial.
	mk := func(base int) []engine.Instr {
		return []engine.Instr{
			{Kind: engine.KEW, Op: engine.AMul, Dst: engine.Slot{Base: base, Len: 8}, A: engine.Slot{Base: 0, Len: 8}, B: engine.Slot{Base: 8, Len: 8}},
			{Kind: engine.KEW, Op: engine.AAdd, Dst: engine.Slot{Base: base + 8, Len: 8}, A: engine.Slot{Base: base, Len: 8}, B: engine.Slot{Base: 8, Len: 8}},
		}
	}
	list := append(mk(16), mk(32)...)
	s := ScheduleList(list, engine.Slot{Base: 0, Len: 8}, schedCfg())
	if s.ILP() < 1.5 {
		t.Errorf("ILP = %.2f, want ~2 for two independent chains", s.ILP())
	}
	if len(s.Steps) != 2 {
		t.Errorf("steps = %d, want 2", len(s.Steps))
	}
}

func TestScheduleSerializesDependences(t *testing.T) {
	// A RAW chain cannot overlap.
	list := []engine.Instr{
		{Kind: engine.KEW, Op: engine.AMul, Dst: engine.Slot{Base: 16, Len: 8}, A: engine.Slot{Base: 0, Len: 8}, B: engine.Slot{Base: 8, Len: 8}},
		{Kind: engine.KEW, Op: engine.AAdd, Dst: engine.Slot{Base: 24, Len: 8}, A: engine.Slot{Base: 16, Len: 8}, B: engine.Slot{Base: 8, Len: 8}},
		{Kind: engine.KEW, Op: engine.ASub, Dst: engine.Slot{Base: 32, Len: 8}, A: engine.Slot{Base: 24, Len: 8}, B: engine.Slot{Base: 8, Len: 8}},
	}
	s := ScheduleList(list, engine.Slot{Base: 0, Len: 8}, schedCfg())
	if len(s.Steps) != 3 {
		t.Errorf("steps = %d, want 3 (pure chain)", len(s.Steps))
	}
	if s.MakespanCycles != s.SerialCycles || s.MakespanCycles != s.CriticalPathCycles {
		t.Errorf("chain: makespan %d serial %d critical %d should all match",
			s.MakespanCycles, s.SerialCycles, s.CriticalPathCycles)
	}
}

func TestScheduleWAWAndWAR(t *testing.T) {
	// i1 writes X, i2 reads X, i3 overwrites X: i3 must come after i2
	// (WAR) and after i1 (WAW).
	list := []engine.Instr{
		{Kind: engine.KEW, Op: engine.AMov, Dst: engine.Slot{Base: 16, Len: 8}, A: engine.Slot{Base: 0, Len: 8}},
		{Kind: engine.KEW, Op: engine.AAdd, Dst: engine.Slot{Base: 24, Len: 8}, A: engine.Slot{Base: 16, Len: 8}, B: engine.Slot{Base: 8, Len: 8}},
		{Kind: engine.KEW, Op: engine.AMov, Dst: engine.Slot{Base: 16, Len: 8}, A: engine.Slot{Base: 8, Len: 8}},
	}
	s := ScheduleList(list, engine.Slot{Base: 0, Len: 8}, schedCfg())
	pos := map[int]int{}
	for stepIdx, step := range s.Steps {
		for _, i := range step {
			pos[i] = stepIdx
		}
	}
	if !(pos[2] > pos[1] && pos[2] > pos[0]) {
		t.Errorf("hazard ordering violated: positions %v", pos)
	}
}

func TestScheduleMemoryControllerPort(t *testing.T) {
	// Two independent gathers cannot issue in the same step (single
	// memory-controller port).
	list := []engine.Instr{
		{Kind: engine.KGather, Dst: engine.Slot{Base: 16, Len: 4}, A: engine.Slot{Base: 8, Len: 1}, RowLen: 4},
		{Kind: engine.KGather, Dst: engine.Slot{Base: 20, Len: 4}, A: engine.Slot{Base: 9, Len: 1}, RowLen: 4},
	}
	s := ScheduleList(list, engine.Slot{Base: 0, Len: 8}, schedCfg())
	if len(s.Steps) != 2 {
		t.Errorf("steps = %d, want 2 (one gather per port per step)", len(s.Steps))
	}
}

func TestOperationMapRendering(t *testing.T) {
	_, p := mustCompile(t, linearAlgo(16, 4, 0.05))
	s := ScheduleProgram(p, schedCfg())
	m := OperationMap(p.PerTuple, s)
	for _, want := range []string{"step", "ILP", "serial"} {
		if !strings.Contains(m, want) {
			t.Errorf("operation map missing %q:\n%s", want, m)
		}
	}
}

func TestScheduleEmptyList(t *testing.T) {
	s := ScheduleList(nil, engine.Slot{}, schedCfg())
	if s.MakespanCycles != 0 || len(s.Steps) != 0 || s.ILP() != 1 {
		t.Errorf("empty schedule = %+v", s)
	}
}

func TestInstrCostMatchesEngineEstimate(t *testing.T) {
	// The scheduler's cost function must agree with engine.Estimate on
	// a whole program (sum over the per-tuple list).
	_, p := mustCompile(t, logisticAlgo(20, 8, 0.1))
	cfg := schedCfg()
	var sum int64
	for _, in := range p.PerTuple {
		sum += instrCost(in, cfg)
	}
	// est.PerTuple is the per-tuple list's cost (plus, without a merge,
	// the row updates and the model write-back).
	if est := p.Estimate(cfg); est.PerTuple != sum {
		t.Errorf("scheduler serial cost %d != engine estimate %d", sum, est.PerTuple)
	}
}
