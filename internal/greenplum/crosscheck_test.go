package greenplum_test

import (
	"testing"

	"dana/internal/algos"
	"dana/internal/backend"
	"dana/internal/backend/backendtest"
	"dana/internal/golden"
	"dana/internal/greenplum"
	"dana/internal/verify"
)

// The Greenplum baseline's distributed IGD has an exact reference
// semantics: shard tuples round-robin, each epoch train every shard
// from the shared model on the golden trainer, then average the
// non-empty locals (backendtest.Reference for the sharded
// registration). These crosschecks pin the sharded backend to it at
// every segment count, and the MADlib baseline (the cpu backend) to
// the golden trainer and to golden's textbook-order IGD.

// scenario is a conformance instance over the given tuples.
func scenario(t *testing.T, sp golden.Spec, g golden.Source, tuples [][]float64) (backendtest.Scenario, backend.Program) {
	t.Helper()
	sc := backendtest.Scenario{Spec: sp, Tuples: tuples, Init: golden.InitModelFor(g, sp)}
	p, err := backendtest.BuildProgram(sc, backendtest.Env())
	if err != nil {
		t.Fatal(err)
	}
	return sc, p
}

// TestGreenplumMatchesReference sweeps segment counts (including more
// segments than tuples) across GLM kinds: the sharded backend's
// averaged model must be bit-identical to the reference.
func TestGreenplumMatchesReference(t *testing.T) {
	specs := []golden.Spec{
		{Kind: algos.KindLinear, NFeat: 5, LR: 0.05, Epochs: 3, MergeCoef: 1},
		{Kind: algos.KindLogistic, NFeat: 4, LR: 0.1, Epochs: 2, MergeCoef: 1},
		{Kind: algos.KindSVM, NFeat: 6, LR: 0.05, Lambda: 0.01, Epochs: 2, MergeCoef: 1},
	}
	for si, sp := range specs {
		t.Run(string(sp.Kind), func(t *testing.T) {
			g := verify.NewGen(int64(0x6B00 + si))
			sc, p := scenario(t, sp, g, golden.TrainingTuples(g, sp, 35))
			for _, segments := range []int{1, 2, 4, 8, 64} {
				env := segmentsEnv(segments)
				got := trainOn(t, greenplum.NewSharded(env), p, sc.Tuples, sp.Epochs)
				want, err := backendtest.Reference(backend.NameSharded, env, sc)
				if err != nil {
					t.Fatal(err)
				}
				if err := golden.CompareModels("sharded vs reference", got, want, 0); err != nil {
					t.Errorf("segments=%d: %v", segments, err)
				}
			}
		})
	}
}

// TestSingleSegmentMatchesGolden: one segment degenerates to plain SGD,
// so the sharded backend is bit-identical to the golden trainer.
func TestSingleSegmentMatchesGolden(t *testing.T) {
	sp := golden.Spec{Kind: algos.KindLinear, NFeat: 6, LR: 0.05, Epochs: 3, MergeCoef: 1}
	g := verify.NewGen(0x6B10)
	sc, p := scenario(t, sp, g, golden.TrainingTuples(g, sp, 40))
	got := trainOn(t, greenplum.NewSharded(segmentsEnv(1)), p, sc.Tuples, sp.Epochs)
	want := append([]float64(nil), sc.Init...)
	if err := sp.Train(want, sc.Tuples); err != nil {
		t.Fatal(err)
	}
	if err := golden.CompareModels("sharded vs golden", got, want, 0); err != nil {
		t.Error(err)
	}
}

// TestMADlibMatchesGoldenTrainer runs the MADlib baseline — the cpu
// backend at merge 1 — over every GLM kind and LRMF and compares it
// against (a) the golden trainer, bit-identical, and (b) golden's
// textbook-order IGD (golden.TrainSGD) from the same init within 1e-9,
// the tolerance Oracle C gives the two operation orders.
func TestMADlibMatchesGoldenTrainer(t *testing.T) {
	specs := []golden.Spec{
		{Kind: algos.KindLinear, NFeat: 6, LR: 0.05, Epochs: 3, MergeCoef: 1},
		{Kind: algos.KindLogistic, NFeat: 4, LR: 0.1, Epochs: 3, MergeCoef: 1},
		{Kind: algos.KindSVM, NFeat: 8, LR: 0.05, Lambda: 0.01, Epochs: 2, MergeCoef: 1},
		{Kind: algos.KindLRMF, Users: 5, Items: 4, Rank: 2, LR: 0.05, Epochs: 2, MergeCoef: 1},
	}
	for si, sp := range specs {
		t.Run(string(sp.Kind), func(t *testing.T) {
			g := verify.NewGen(int64(0xBA5E + si))
			sc, p := scenario(t, sp, g, golden.TrainingTuples(g, sp, 40))
			got := trainOn(t, backend.NewCPU(backendtest.Env()), p, sc.Tuples, sp.Epochs)
			want := append([]float64(nil), sc.Init...)
			if err := sp.Train(want, sc.Tuples); err != nil {
				t.Fatal(err)
			}
			if err := golden.CompareModels("madlib vs golden", got, want, 0); err != nil {
				t.Error(err)
			}
			ref := append([]float64(nil), sc.Init...)
			if err := golden.TrainSGD(sp.Algorithm(), ref, sc.Tuples, sp.Epochs); err != nil {
				t.Fatal(err)
			}
			if err := golden.CompareModels("madlib vs golden.TrainSGD", got, ref, 1e-9); err != nil {
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
	sc, p := scenario(t, sp, g, golden.TrainingTuples(g, sp, 30))
	got := trainOn(t, backend.NewCPU(backendtest.Env()), p, sc.Tuples, sp.Epochs)
	tampered := append([]float64(nil), got...)
	tampered[0] += 1e-12
	if err := golden.CompareModels("meta", got, tampered, 0); err == nil {
		t.Fatal("bit-exact comparator accepted a perturbed model")
	}
}
