package compiler

import (
	"testing"

	"dana/internal/engine"
)

func TestMicroInstructionFootprint(t *testing.T) {
	// The micro expansion of a 54-feature linear program should stay in
	// the hundreds of AC instructions — a compact footprint per §5.1.2.
	_, p := mustCompile(t, linearAlgo(54, 16, 0.01))
	mp, err := engine.Lower(p, engine.Config{Threads: 1, ACsPerThread: 7, AUsPerAC: 8})
	if err != nil {
		t.Fatal(err)
	}
	pt, pm, _ := mp.Count()
	if pt == 0 {
		t.Fatal("no per-tuple micro ops")
	}
	if pt+pm > 1500 {
		t.Errorf("micro footprint %d+%d unexpectedly large", pt, pm)
	}
}
