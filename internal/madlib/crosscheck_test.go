package madlib_test

import (
	"testing"

	"dana/internal/algos"
	"dana/internal/bufpool"
	"dana/internal/golden"
	"dana/internal/madlib"
	"dana/internal/ml"
	"dana/internal/storage"
	"dana/internal/verify"
)

// These crosschecks tie the MADlib baseline into the differential
// verification hierarchy: the model that comes out of a heap scan
// through the buffer pool must match ml.TrainSGD bit-for-bit (same
// update code, storage must not perturb values) and the pure golden
// trainer within float round-off.

// relationFor writes the tuples into a fresh heap relation attached to
// a fresh buffer pool. Values are float32-quantized by the generator so
// the float4 on-disk columns round-trip exactly.
func relationFor(t *testing.T, sp golden.Spec, tuples [][]float64, pageSize int) (*bufpool.Pool, *storage.Relation) {
	t.Helper()
	var schema *storage.Schema
	if sp.Kind == algos.KindLRMF {
		schema = storage.RatingSchema()
	} else {
		schema = storage.NumericSchema(sp.NFeat)
	}
	rel := storage.NewRelation("xcheck", schema, pageSize)
	if err := rel.InsertBatch(tuples); err != nil {
		t.Fatal(err)
	}
	pool := bufpool.New(64, pageSize, bufpool.DefaultDisk())
	if err := pool.AttachRelation(rel); err != nil {
		t.Fatal(err)
	}
	return pool, rel
}

// TestMADlibMatchesGoldenTrainer runs the MADlib trainer over every GLM
// kind and LRMF and compares against (a) ml.TrainSGD from the same init
// — bit-identical, proving the storage/bufpool path is value-preserving
// — and (b) the verify golden trainer within 1e-9.
func TestMADlibMatchesGoldenTrainer(t *testing.T) {
	cases := []struct {
		name string
		sp   golden.Spec
	}{
		{"linear", golden.Spec{Kind: algos.KindLinear, NFeat: 6, LR: 0.05, Epochs: 3, MergeCoef: 1}},
		{"logistic", golden.Spec{Kind: algos.KindLogistic, NFeat: 4, LR: 0.1, Epochs: 3, MergeCoef: 1}},
		{"svm", golden.Spec{Kind: algos.KindSVM, NFeat: 8, LR: 0.05, Lambda: 0.01, Epochs: 2, MergeCoef: 1}},
		{"lrmf", golden.Spec{Kind: algos.KindLRMF, Users: 5, Items: 4, Rank: 2, LR: 0.05, Epochs: 2, MergeCoef: 1}},
	}
	for ci, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			g := verify.NewGen(int64(0xBA5E + ci))
			tuples := golden.TrainingTuples(g, tc.sp, 40)
			pool, rel := relationFor(t, tc.sp, tuples, storage.PageSize8K)
			algo := tc.sp.Algorithm()

			tr, err := madlib.New(pool, rel, algo)
			if err != nil {
				t.Fatal(err)
			}
			got, st, err := tr.Train(tc.sp.Epochs)
			if err != nil {
				t.Fatal(err)
			}
			if want := int64(len(tuples) * tc.sp.Epochs); st.Tuples != want {
				t.Errorf("trained on %d tuple updates, want %d", st.Tuples, want)
			}

			// Leg 1: same init, same update code, but fed from decoded
			// heap tuples — must be bit-identical to in-memory SGD.
			ref := ml.InitModel(algo, 1)
			if err := ml.TrainSGD(algo, ref, tuples, tc.sp.Epochs); err != nil {
				t.Fatal(err)
			}
			if err := golden.CompareModels("madlib vs ml.TrainSGD", got, ref, 0); err != nil {
				t.Error(err)
			}

			// Leg 2: the independent golden trainer, 1e-9 for FP op-order
			// differences.
			want := ml.InitModel(algo, 1)
			if err := tc.sp.Train(want, tuples); err != nil {
				t.Fatal(err)
			}
			if err := golden.CompareModels("madlib vs golden", got, want, 1e-9); err != nil {
				t.Error(err)
			}
		})
	}
}

// TestMADlibCrosscheckDetectsTamper is the meta-test for this file: a
// perturbed model must trip the bit-exact comparator.
func TestMADlibCrosscheckDetectsTamper(t *testing.T) {
	sp := golden.Spec{Kind: algos.KindLinear, NFeat: 4, LR: 0.05, Epochs: 2, MergeCoef: 1}
	g := verify.NewGen(0xBA5E)
	tuples := golden.TrainingTuples(g, sp, 30)
	pool, rel := relationFor(t, sp, tuples, storage.PageSize8K)
	tr, err := madlib.New(pool, rel, sp.Algorithm())
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := tr.Train(sp.Epochs)
	if err != nil {
		t.Fatal(err)
	}
	tampered := append([]float64(nil), got...)
	tampered[0] += 1e-12
	if err := golden.CompareModels("meta", got, tampered, 0); err == nil {
		t.Fatal("bit-exact comparator accepted a perturbed model")
	}
}
