package hwgen_test

import (
	"testing"

	"dana/internal/datagen"
	"dana/internal/engine"
	"dana/internal/hwgen"
	"dana/internal/workload"
)

// TestChosenDesignsHoldTheirLoweredPrograms: for the design Generate
// picks for every Table 3 workload, the micro-instruction footprint of
// the program the engine actually runs (engine.Lower, which
// MicroMachine proves correct) fits the control store, InstrBufferDepth
// instructions for each of a thread's ACs. Generate checks the
// footprint engine.Expand counts, which is smaller, so this holds the
// chosen designs to the executed count.
func TestChosenDesignsHoldTheirLoweredPrograms(t *testing.T) {
	env := workload.DefaultEnv()
	for _, ws := range [][]datagen.Workload{datagen.Real(), datagen.SyntheticNominal(), datagen.SyntheticExtensive()} {
		for _, w := range ws {
			c, err := workload.Compile(w, env, 0)
			if err != nil {
				t.Fatal(err)
			}
			cfg := c.Design.Engine
			mp, err := engine.Lower(c.Program, cfg)
			if err != nil {
				t.Fatalf("%s: %v", w.Name, err)
			}
			pt, pm, cv := mp.Count()
			ms := engine.Expand(c.Program, cfg)
			t.Logf("%s: %d ACs/thread; Lower %d/%d/%d, Expand %d/%d/%d", w.Name, cfg.ACsPerThread,
				pt, pm, cv, ms.PerTupleMicroOps, ms.PostMergeMicroOps, ms.ConvMicroOps)
			if n, limit := pt+pm+cv, hwgen.InstrBufferDepth*cfg.ACsPerThread; n > limit {
				t.Errorf("%s: the lowered program takes %d micro-instructions, the control store holds %d", w.Name, n, limit)
			}
		}
	}
}

// TestEstimateIsWhatTheMachineCharges: for the design Generate picks for
// every real and S/N Table 3 workload at merge coefficients 1, 2, 64 and
// 1024, an epoch of n tuples in batches of c charges the machine the
// cycles of the estimate Generate ranked the design by, less the
// convergence check the epoch leaves to Converged. n runs on both sides
// of c, so short tail batches on fewer live threads than the design's
// are charged on both sides.
func TestEstimateIsWhatTheMachineCharges(t *testing.T) {
	env := workload.DefaultEnv()
	for _, w := range append(datagen.Real(), datagen.SyntheticNominal()...) {
		for _, c := range []int{1, 2, 64, 1024} {
			cw, err := workload.Compile(w, env, c)
			if err != nil {
				t.Fatal(err)
			}
			cfg := cw.Design.Engine
			est := cw.Program.Estimate(cfg)
			m, err := engine.NewMachine(cw.Program, cfg)
			if err != nil {
				t.Fatalf("%s: %v", w.Name, err)
			}
			for _, n := range []int{1, 3, c - 1, c, c + 1, 3*c + 5} {
				if n < 1 {
					continue
				}
				rows := make([][]float32, n)
				for i := range rows {
					rows[i] = make([]float32, cw.Program.InputSlot.Len)
				}
				m.Reset()
				if err := m.RunEpoch(rows, c); err != nil {
					t.Fatalf("%s c=%d n=%d: %v", w.Name, c, n, err)
				}
				want := est.EpochCycles(n, c, cfg.Threads) - est.Convergence
				if got := m.Stats().Cycles; got != want {
					t.Errorf("%s c=%d n=%d on %d threads: the machine charged %d cycles, the estimate %d", w.Name, c, n, cfg.Threads, got, want)
				}
			}
		}
	}
}
