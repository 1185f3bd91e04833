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
