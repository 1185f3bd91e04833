package backend_test

import (
	"errors"
	"strings"
	"testing"

	"dana/internal/algos"
	"dana/internal/backend"
	"dana/internal/hdfg"
	"dana/internal/ml"
)

// scorerGraph translates the named algorithm at the given topology.
func scorerGraph(t *testing.T, kind algos.Kind, topology ...int) *hdfg.Graph {
	t.Helper()
	a, err := algos.Build(kind, topology, algos.Hyper{LR: 0.1, MergeCoef: 1, Epochs: 1})
	if err != nil {
		t.Fatal(err)
	}
	g, err := hdfg.Translate(a)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// wantErr returns a check that a scoring call failed with msg in its
// error text.
func wantErr(t *testing.T, what, msg string) func(float64, error) {
	t.Helper()
	return func(got float64, err error) {
		t.Helper()
		if err == nil || !strings.Contains(err.Error(), msg) {
			t.Errorf("%s: got %v, %v; want an error containing %q", what, got, err, msg)
		}
	}
}

// TestRowScorerRule holds each class's scoring rule to values computed
// by hand, and each rejection to its error.
func TestRowScorerRule(t *testing.T) {
	glm := []float64{0.5, -1, 2}
	row := []float64{2, 3, 0.25, 9} // features, then the label the rule skips
	const margin = 0.5*2 - 1*3 + 2*0.25
	for _, c := range []struct {
		kind  algos.Kind
		class backend.Class
		want  float64
	}{
		{algos.KindLinear, backend.ClassLinear, margin},
		{algos.KindLogistic, backend.ClassLogistic, ml.Sigmoid(margin)},
		{algos.KindSVM, backend.ClassSVM, margin},
	} {
		g := scorerGraph(t, c.kind, len(glm))
		if got := backend.Classify(g); got != c.class {
			t.Fatalf("%s classifies as %s", c.kind, got)
		}
		s, err := backend.NewRowScorer(c.class, g, glm)
		if err != nil {
			t.Fatal(err)
		}
		if got, err := s.Score(0, row); err != nil || got != c.want {
			t.Errorf("%s: Score = %v, %v; want %v", c.class, got, err, c.want)
		}
		wantErr(t, string(c.class)+" short row", "row 4 has 2 values, need >= 3")(s.Score(4, row[:2]))
	}

	// LRMF: 2 users and 1 item give 3 factor rows of rank 2; a row names
	// two of them and scores their dot product.
	g := scorerGraph(t, algos.KindLRMF, 2, 1, 2)
	factors := []float64{1, 2, 3, 4, 5, 6}
	s, err := backend.NewRowScorer(backend.ClassLRMF, g, factors)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		row  []float64
		want float64
	}{
		{[]float64{0, 2, 7}, 1*5 + 2*6},
		{[]float64{1, 2, 7}, 3*5 + 4*6},
		{[]float64{1, 1}, 3*3 + 4*4},
	} {
		if got, err := s.Score(0, c.row); err != nil || got != c.want {
			t.Errorf("lrmf %v: Score = %v, %v; want %v", c.row, got, err, c.want)
		}
	}
	wantErr(t, "lrmf index", "row 5: factor index (0,3) out of [0,3)")(s.Score(5, []float64{0, 3, 7}))
	wantErr(t, "lrmf short row", "row 6 has 1 values, need >= 2")(s.Score(6, []float64{0}))

	_, err = backend.NewRowScorer(backend.ClassLinear, scorerGraph(t, algos.KindLinear, 3), glm[:2])
	wantErr(t, "model size", "model size 2, want 3")(0, err)
	if _, err := backend.NewRowScorer(backend.ClassLinear, nil, glm); !errors.Is(err, backend.ErrNotConfigured) {
		t.Errorf("NewRowScorer without a graph = %v, want ErrNotConfigured", err)
	}
}
