package greenplum_test

import (
	"testing"

	"dana/internal/algos"
	"dana/internal/bufpool"
	"dana/internal/cost"
	"dana/internal/golden"
	"dana/internal/greenplum"
	"dana/internal/ml"
	"dana/internal/storage"
	"dana/internal/verify"
)

// The Greenplum baseline's distributed IGD has an exact reference
// semantics: hash-shard tuples round-robin, each epoch train every
// shard from the shared model, then average the non-empty locals.
// These crosschecks pin the implementation to that reference and to
// the golden trainer in the single-segment (= plain SGD, MADlib) case.

func clusterFor(t *testing.T, sp golden.Spec, tuples [][]float64, segments int) *greenplum.Cluster {
	t.Helper()
	var schema *storage.Schema
	if sp.Kind == algos.KindLRMF {
		schema = storage.RatingSchema()
	} else {
		schema = storage.NumericSchema(sp.NFeat)
	}
	rel := storage.NewRelation("gpxcheck", schema, storage.PageSize8K)
	if err := rel.InsertBatch(tuples); err != nil {
		t.Fatal(err)
	}
	pool := bufpool.New(64, storage.PageSize8K, cost.Default().Disk)
	if err := pool.AttachRelation(rel); err != nil {
		t.Fatal(err)
	}
	c, err := greenplum.New(pool, rel, sp.Algorithm(), segments)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// referenceTrain is the explicit model of Greenplum's per-epoch
// shard-train-then-average loop, computed without storage or pools. The
// cluster must match it bit-for-bit.
func referenceTrain(algo ml.Algorithm, tuples [][]float64, segments, epochs int) []float64 {
	shards := make([][][]float64, segments)
	for i, tup := range tuples {
		s := i % segments
		shards[s] = append(shards[s], tup)
	}
	model := ml.InitModel(algo, 1)
	for e := 0; e < epochs; e++ {
		var locals [][]float64
		for s := 0; s < segments; s++ {
			if len(shards[s]) == 0 {
				continue
			}
			local := append([]float64(nil), model...)
			for _, tup := range shards[s] {
				algo.Update(local, tup)
			}
			locals = append(locals, local)
		}
		if len(locals) > 0 {
			model = ml.AverageModels(locals)
		}
	}
	return model
}

// TestGreenplumMatchesReference sweeps segment counts (including more
// segments than tuples) across GLM kinds: the cluster's averaged model
// must be bit-identical to the explicit reference loop.
func TestGreenplumMatchesReference(t *testing.T) {
	specs := []golden.Spec{
		{Kind: algos.KindLinear, NFeat: 5, LR: 0.05, Epochs: 3, MergeCoef: 1},
		{Kind: algos.KindLogistic, NFeat: 4, LR: 0.1, Epochs: 2, MergeCoef: 1},
		{Kind: algos.KindSVM, NFeat: 6, LR: 0.05, Lambda: 0.01, Epochs: 2, MergeCoef: 1},
	}
	for si, sp := range specs {
		sp := sp
		t.Run(string(sp.Kind), func(t *testing.T) {
			g := verify.NewGen(int64(0x6B00 + si))
			tuples := golden.TrainingTuples(g, sp, 35)
			for _, segments := range []int{1, 2, 4, 8, 64} {
				c := clusterFor(t, sp, tuples, segments)
				got, st, err := c.Train(sp.Epochs)
				if err != nil {
					t.Fatal(err)
				}
				if st.Segments != segments {
					t.Errorf("segments=%d: stats report %d segments", segments, st.Segments)
				}
				want := referenceTrain(sp.Algorithm(), tuples, segments, sp.Epochs)
				if err := golden.CompareModels("cluster vs reference", got, want, 0); err != nil {
					t.Errorf("segments=%d: %v", segments, err)
				}
			}
		})
	}
}

// TestSingleSegmentMatchesGolden: one segment degenerates to plain SGD,
// so the cluster must agree with the independent golden trainer within
// float round-off.
func TestSingleSegmentMatchesGolden(t *testing.T) {
	sp := golden.Spec{Kind: algos.KindLinear, NFeat: 6, LR: 0.05, Epochs: 3, MergeCoef: 1}
	g := verify.NewGen(0x6B10)
	tuples := golden.TrainingTuples(g, sp, 40)
	c := clusterFor(t, sp, tuples, 1)
	got, _, err := c.Train(sp.Epochs)
	if err != nil {
		t.Fatal(err)
	}
	want := ml.InitModel(sp.Algorithm(), 1)
	if err := sp.Train(want, tuples); err != nil {
		t.Fatal(err)
	}
	if err := golden.CompareModels("cluster vs golden", got, want, 1e-9); err != nil {
		t.Error(err)
	}
}

// TestMADlibMatchesGoldenTrainer runs the one-segment cluster — the
// MADlib baseline — over every GLM kind and LRMF and compares against
// (a) ml.TrainSGD from the same init, bit-identical, proving the
// storage/bufpool path is value-preserving, and (b) the golden trainer
// within 1e-9.
func TestMADlibMatchesGoldenTrainer(t *testing.T) {
	specs := []golden.Spec{
		{Kind: algos.KindLinear, NFeat: 6, LR: 0.05, Epochs: 3, MergeCoef: 1},
		{Kind: algos.KindLogistic, NFeat: 4, LR: 0.1, Epochs: 3, MergeCoef: 1},
		{Kind: algos.KindSVM, NFeat: 8, LR: 0.05, Lambda: 0.01, Epochs: 2, MergeCoef: 1},
		{Kind: algos.KindLRMF, Users: 5, Items: 4, Rank: 2, LR: 0.05, Epochs: 2, MergeCoef: 1},
	}
	for si, sp := range specs {
		sp := sp
		t.Run(string(sp.Kind), func(t *testing.T) {
			g := verify.NewGen(int64(0xBA5E + si))
			tuples := golden.TrainingTuples(g, sp, 40)
			got, st, err := clusterFor(t, sp, tuples, 1).Train(sp.Epochs)
			if err != nil {
				t.Fatal(err)
			}
			if want := int64(len(tuples) * sp.Epochs); st.Tuples != want {
				t.Errorf("trained on %d tuple updates, want %d", st.Tuples, want)
			}
			algo := sp.Algorithm()
			ref := ml.InitModel(algo, 1)
			if err := ml.TrainSGD(algo, ref, tuples, sp.Epochs); err != nil {
				t.Fatal(err)
			}
			if err := golden.CompareModels("madlib vs ml.TrainSGD", got, ref, 0); err != nil {
				t.Error(err)
			}
			want := ml.InitModel(algo, 1)
			if err := sp.Train(want, tuples); err != nil {
				t.Fatal(err)
			}
			if err := golden.CompareModels("madlib vs golden", got, want, 1e-9); err != nil {
				t.Error(err)
			}
		})
	}
}

// TestMADlibCrosscheckDetectsTamper is the meta-test for the bit-exact
// leg above: a perturbed model must trip the comparator.
func TestMADlibCrosscheckDetectsTamper(t *testing.T) {
	sp := golden.Spec{Kind: algos.KindLinear, NFeat: 4, LR: 0.05, Epochs: 2, MergeCoef: 1}
	g := verify.NewGen(0xBA5E)
	tuples := golden.TrainingTuples(g, sp, 30)
	got, _, err := clusterFor(t, sp, tuples, 1).Train(sp.Epochs)
	if err != nil {
		t.Fatal(err)
	}
	tampered := append([]float64(nil), got...)
	tampered[0] += 1e-12
	if err := golden.CompareModels("meta", got, tampered, 0); err == nil {
		t.Fatal("bit-exact comparator accepted a perturbed model")
	}
}

// TestGreenplumCrosscheckDetectsShardDrift is this file's meta-test: a
// reference with the wrong shard assignment must NOT match, proving the
// comparator pins the actual partitioning.
func TestGreenplumCrosscheckDetectsShardDrift(t *testing.T) {
	sp := golden.Spec{Kind: algos.KindLinear, NFeat: 4, LR: 0.05, Epochs: 2, MergeCoef: 1}
	g := verify.NewGen(0x6B20)
	tuples := golden.TrainingTuples(g, sp, 33)
	c := clusterFor(t, sp, tuples, 4)
	got, _, err := c.Train(sp.Epochs)
	if err != nil {
		t.Fatal(err)
	}
	// Rotate the tuple order before sharding: same data, wrong shards.
	rotated := append(append([][]float64(nil), tuples[1:]...), tuples[0])
	wrong := referenceTrain(sp.Algorithm(), rotated, 4, sp.Epochs)
	if err := golden.CompareModels("meta", got, wrong, 0); err == nil {
		t.Fatal("comparator accepted a reference with drifted shard assignment")
	}
}
