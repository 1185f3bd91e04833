package verify

import (
	"fmt"
	"testing"

	"dana/internal/algos"
	"dana/internal/golden"
)

// BaseSeed anchors the deterministic differential suite. Every subtest
// derives its generator from BaseSeed+i and logs the seed, so a failure
// reproduces with:
//
//	go test -run 'TestDifferentialSuite/seed=0x<seed>' ./internal/verify
const BaseSeed = 0xDA7A

// NumInstances is the suite size (the acceptance floor is 100).
const NumInstances = 120

var kinds = []algos.Kind{algos.KindLinear, algos.KindLogistic, algos.KindSVM, algos.KindLRMF}

// specFor draws a random training spec. Hyper-parameters are kept in
// ranges where float32/float64 divergence stays well under the engine
// tolerance (no knife-edge SVM margins, bounded feature scale).
func specFor(g *Gen) golden.Spec {
	sp := golden.Spec{
		Kind:      kinds[g.Intn(len(kinds))],
		LR:        0.01 + 0.04*float64(g.Intn(5)),
		Epochs:    1 + g.Intn(3),
		MergeCoef: []int{1, 1, 2, 4, 8}[g.Intn(5)],
	}
	switch sp.Kind {
	case algos.KindLRMF:
		sp.Users = 2 + g.Intn(6)
		sp.Items = 2 + g.Intn(6)
		sp.Rank = 1 + g.Intn(4)
		sp.MergeCoef = 1 // row updates imply single-threaded (no merge)
	case algos.KindSVM:
		sp.NFeat = 2 + g.Intn(14)
		sp.Lambda = 0.01
	default:
		sp.NFeat = 2 + g.Intn(14)
	}
	return sp
}

// trainingData draws a well-scaled dataset and init model for the spec
// (see golden.TrainingTuples / InitModelFor, which external crosschecks reuse).
func trainingData(g *Gen, sp golden.Spec, n int) ([][]float64, []float64) {
	return golden.TrainingTuples(g, sp, n), golden.InitModelFor(g, sp)
}

// TestDifferentialSuite runs NumInstances random (schema, relation,
// algorithm) instances through all three oracles from a fixed seed.
func TestDifferentialSuite(t *testing.T) {
	for i := 0; i < NumInstances; i++ {
		seed := int64(BaseSeed + i)
		t.Run(fmt.Sprintf("seed=0x%X", seed), func(t *testing.T) {
			t.Parallel()
			t.Logf("reproduce with NewGen(0x%X)", seed)
			g := NewGen(seed)
			pageSize := g.PageSize()

			// Oracle A: page, relation, and InnoDB round-trips.
			psc, err := g.PageScenario(pageSize)
			if err != nil {
				t.Fatal(err)
			}
			if err := psc.CheckStorageOracle(); err != nil {
				t.Error(err)
			}
			rsc, err := g.RelationScenario(pageSize, 80)
			if err != nil {
				t.Fatal(err)
			}
			if err := rsc.CheckRelationOracle(); err != nil {
				t.Error(err)
			}
			isc, err := g.InnoScenario(pageSize, 60)
			if err != nil {
				t.Fatal(err)
			}
			if err := isc.CheckInnoOracle(); err != nil {
				t.Error(err)
			}

			// Oracle B: Strider walkers vs direct decode vs ground truth.
			ssc, err := g.StriderScenario(pageSize, 3, 40)
			if err != nil {
				t.Fatal(err)
			}
			if err := ssc.CheckStriderOracle(); err != nil {
				t.Error(err)
			}
			iss, err := g.InnoStriderScenario(pageSize, 40)
			if err != nil {
				t.Fatal(err)
			}
			if err := iss.CheckInnoStriderOracle(); err != nil {
				t.Error(err)
			}

			// Oracle C: training equivalence. The engine leg (compile +
			// design-space exploration + simulate) runs on a third of
			// the instances to keep the suite inside its time budget;
			// the golden/interp/ml legs run everywhere.
			sp := specFor(g)
			tuples, init := trainingData(g, sp, 20+g.Intn(40))
			opt := EquivalenceOpt{SkipEngine: i%3 != 0}
			if err := CheckTrainingEquivalence(sp, init, tuples, opt); err != nil {
				t.Error(err)
			}
		})
	}
}

// TestGoldenMatchesInterpAllKinds pins the bit-identity claim per kind,
// including merge batching, on fixed seeds (fast, always on).
func TestGoldenMatchesInterpAllKinds(t *testing.T) {
	cases := []golden.Spec{
		{Kind: algos.KindLinear, NFeat: 4, LR: 0.05, Epochs: 3, MergeCoef: 1},
		{Kind: algos.KindLinear, NFeat: 6, LR: 0.05, Epochs: 2, MergeCoef: 4},
		{Kind: algos.KindLogistic, NFeat: 5, LR: 0.1, Epochs: 3, MergeCoef: 1},
		{Kind: algos.KindLogistic, NFeat: 3, LR: 0.1, Epochs: 2, MergeCoef: 3},
		{Kind: algos.KindSVM, NFeat: 4, LR: 0.05, Lambda: 0.01, Epochs: 3, MergeCoef: 1},
		{Kind: algos.KindSVM, NFeat: 8, LR: 0.05, Lambda: 0.01, Epochs: 2, MergeCoef: 2},
		{Kind: algos.KindLRMF, Users: 4, Items: 3, Rank: 2, LR: 0.05, Epochs: 2, MergeCoef: 1},
	}
	for ci, sp := range cases {
		sp := sp
		t.Run(fmt.Sprintf("%s/mc=%d", sp.Kind, sp.MergeCoef), func(t *testing.T) {
			g := NewGen(int64(1000 + ci))
			tuples, init := trainingData(g, sp, 30)
			if err := CheckTrainingEquivalence(sp, init, tuples, EquivalenceOpt{SkipEngine: true}); err != nil {
				t.Fatal(err)
			}
		})
	}
}
