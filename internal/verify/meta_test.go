package verify

import (
	"math"
	"strings"
	"testing"

	"dana/internal/algos"
	"dana/internal/engine"
	"dana/internal/golden"
	"dana/internal/storage"
	"dana/internal/strider"
)

// The mutation meta-tests: each oracle must DETECT a deliberately
// injected fault. An oracle that stays green under a flipped byte, a
// corrupted walker, or a dropped cycle charge is measuring nothing.

const metaSeed = 0x5EED

// TestOracleADetectsFlippedByte flips one byte inside a live tuple's
// data area and requires the storage oracle to fail.
func TestOracleADetectsFlippedByte(t *testing.T) {
	g := NewGen(metaSeed)
	sc, err := g.PageScenario(storage.PageSize8K)
	if err != nil {
		t.Fatal(err)
	}
	if err := sc.CheckStorageOracle(); err != nil {
		t.Fatalf("pre-mutation: %v", err)
	}
	// Flip one byte in the first live tuple's fixed data region. Columns
	// of a null-bitmap tuple shift, so target the first no-null live one.
	target := -1
	for k, mask := range sc.Nulls {
		if mask == nil {
			target = k
			break
		}
	}
	if target < 0 {
		t.Skip("scenario has no null-free live tuple")
	}
	id, err := sc.Page.ItemID(sc.LiveItems[target])
	if err != nil {
		t.Fatal(err)
	}
	off := int(id.Off) + storage.TupleHeaderSize
	sc.Page[off] ^= 0x01
	if err := sc.CheckStorageOracle(); err == nil {
		t.Fatal("oracle A did not detect a flipped data byte")
	} else {
		t.Logf("oracle A fired: %v", err)
	}
	// Restore; the oracle must go green again (the fault, not the
	// harness, caused the failure).
	sc.Page[off] ^= 0x01
	if err := sc.CheckStorageOracle(); err != nil {
		t.Fatalf("post-restore: %v", err)
	}
}

// TestOracleADetectsWrongLiveness marks a ground-truth-live item dead:
// the oracle must notice the missing row.
func TestOracleADetectsWrongLiveness(t *testing.T) {
	g := NewGen(metaSeed + 1)
	sc, err := g.PageScenario(storage.PageSize8K)
	if err != nil {
		t.Fatal(err)
	}
	if err := sc.CheckStorageOracle(); err != nil {
		t.Fatalf("pre-mutation: %v", err)
	}
	if err := sc.Page.DeleteItem(sc.LiveItems[0]); err != nil {
		t.Fatal(err)
	}
	if err := sc.CheckStorageOracle(); err == nil {
		t.Fatal("oracle A did not detect a killed live tuple")
	}
}

// TestOracleBDetectsCorruptWalker mutates the generated walker program
// — widening the header skip so two extra header bytes leak into the
// record stream — and requires the Strider oracle to fail.
func TestOracleBDetectsCorruptWalker(t *testing.T) {
	g := NewGen(metaSeed + 2)
	sc, err := g.StriderScenario(storage.PageSize8K, 2, 30)
	if err != nil {
		t.Fatal(err)
	}
	prog, cfg, err := strider.Generate(strider.PostgresLayout(storage.PageSize8K))
	if err != nil {
		t.Fatal(err)
	}
	if err := sc.CheckProgram(prog, cfg); err != nil {
		t.Fatalf("pre-mutation: %v", err)
	}
	mutated := append([]strider.Instr(nil), prog...)
	found := false
	for i, in := range mutated {
		if in.Op == strider.OpClean {
			// The walker's cln skips the 24-byte tuple header; skip 16
			// instead, leaking header bytes into the stream.
			mutated[i].B = strider.Operand(16)
			found = true
			break
		}
	}
	if !found {
		t.Fatal("no cln instruction in generated walker")
	}
	if err := sc.CheckProgram(mutated, cfg); err == nil {
		t.Fatal("oracle B did not detect a corrupted walker program")
	} else {
		t.Logf("oracle B fired: %v", err)
	}
}

// TestOracleBDetectsFlippedPayloadByte flips a stored payload byte.
// Both the VM stream and the direct decode see the same corrupt page,
// so only the third leg — generator ground truth — can catch it; this
// proves that leg is load-bearing.
func TestOracleBDetectsFlippedPayloadByte(t *testing.T) {
	g := NewGen(metaSeed + 3)
	sc, err := g.StriderScenario(storage.PageSize8K, 1, 20)
	if err != nil {
		t.Fatal(err)
	}
	if err := sc.CheckStriderOracle(); err != nil {
		t.Fatalf("pre-mutation: %v", err)
	}
	page := sc.Pages[0]
	id, err := page.ItemID(0)
	if err != nil {
		t.Fatal(err)
	}
	page[int(id.Off)+storage.TupleHeaderSize] ^= 0x80
	err = sc.CheckStriderOracle()
	if err == nil {
		t.Fatal("oracle B did not detect a flipped payload byte")
	}
	if !strings.Contains(err.Error(), "ground truth") {
		t.Fatalf("expected the ground-truth leg to fire, got: %v", err)
	}
}

// TestOracleCDetectsWrongValue perturbs one trained parameter and
// requires the model comparator to fail at every tolerance tier.
func TestOracleCDetectsWrongValue(t *testing.T) {
	sp := golden.Spec{Kind: algos.KindLinear, NFeat: 4, LR: 0.05, Epochs: 2, MergeCoef: 2}
	g := NewGen(metaSeed + 4)
	tuples, init := trainingData(g, sp, 25)
	golden := append([]float64(nil), init...)
	if err := sp.Train(golden, tuples); err != nil {
		t.Fatal(err)
	}
	tampered := append([]float64(nil), golden...)
	tampered[1] += 0.1 // above every tolerance tier
	for _, tol := range []float64{0, 1e-9, 5e-3} {
		if err := CompareModels("meta", golden, tampered, tol); err == nil {
			t.Fatalf("tol=%g: comparator accepted a perturbed parameter", tol)
		}
	}
	if err := CompareModels("meta", golden, golden, 0); err != nil {
		t.Fatalf("comparator rejected identical models: %v", err)
	}
}

// TestOracleCDetectsWrongTrainer runs the full equivalence check with a
// spec whose golden trainer deliberately disagrees (wrong LR): the
// interpreter leg must fire.
func TestOracleCDetectsWrongTrainer(t *testing.T) {
	sp := golden.Spec{Kind: algos.KindLogistic, NFeat: 5, LR: 0.1, Epochs: 2, MergeCoef: 1}
	g := NewGen(metaSeed + 5)
	tuples, init := trainingData(g, sp, 25)
	if err := CheckTrainingEquivalence(sp, init, tuples, EquivalenceOpt{SkipEngine: true}); err != nil {
		t.Fatalf("pre-mutation: %v", err)
	}
	golden := append([]float64(nil), init...)
	bad := sp
	bad.LR = sp.LR * 1.001 // the golden trainer drifts from the DSL graph
	if err := bad.Train(golden, tuples); err != nil {
		t.Fatal(err)
	}
	// Reuse the comparator directly against the true interp result.
	good := append([]float64(nil), init...)
	if err := sp.Train(good, tuples); err != nil {
		t.Fatal(err)
	}
	if err := CompareModels("meta", good, golden, 0); err == nil {
		t.Fatal("oracle C did not detect a wrong-LR trainer")
	}
}

// TestOracleCDetectsMovedRounding nudges one parameter by one ulp — what
// a fused multiply-add in a plan kernel would do — and requires the
// plan-vs-reference comparator to fail where a tolerance would not.
func TestOracleCDetectsMovedRounding(t *testing.T) {
	a := []float32{0.25, -1.5, 3}
	b := append([]float32(nil), a...)
	b[1] = math.Float32frombits(math.Float32bits(b[1]) + 1)
	if err := CompareModelBits("meta", a, b); err == nil {
		t.Fatal("bit comparator accepted a one-ulp difference")
	}
	if err := CompareModelBits("meta", a, a); err != nil {
		t.Fatalf("bit comparator rejected identical models: %v", err)
	}
}

// TestOracleCDetectsDroppedCycle decrements one cycle from a stats copy
// — the "drop one cycle charge" fault — and requires the stats
// comparators to fail.
func TestOracleCDetectsDroppedCycle(t *testing.T) {
	a := engine.Stats{Cycles: 1234, ComputeCycles: 1000, LoadCycles: 234, Tuples: 10, Batches: 2, Instructions: 400}
	b := a
	b.Cycles--
	if err := CompareEngineStats("meta", a, b); err == nil {
		t.Fatal("engine stats comparator accepted a dropped cycle")
	}
	if err := CompareEngineStats("meta", a, a); err != nil {
		t.Fatalf("engine stats comparator rejected identical stats: %v", err)
	}
}
