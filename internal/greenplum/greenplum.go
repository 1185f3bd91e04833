// Package greenplum re-implements the paper's in-database CPU
// baselines: MADlib running on an N-segment Greenplum, and at one
// segment MADlib on PostgreSQL. Training is a user-defined aggregate
// over a sequential heap scan through the same buffer pool DAnA's
// Striders read — one incremental gradient (IGD) update per tuple, the
// Bismarck architecture MADlib uses. The table is distributed
// round-robin across the segments; each epoch every segment runs IGD
// over its tuples from the shared model, and the coordinator merges the
// per-segment models by averaging (MADlib's distributed IGD semantics).
package greenplum

import (
	"fmt"

	"dana/internal/bufpool"
	"dana/internal/ml"
	"dana/internal/storage"
)

// Stats summarizes a segmented training run.
type Stats struct {
	Segments  int
	Epochs    int
	Tuples    int64 // tuple updates performed
	FinalLoss float64
	Pool      bufpool.Stats
}

// Cluster is a set of segments over one logical table.
type Cluster struct {
	Segments int
	Pool     *bufpool.Pool
	Rel      *storage.Relation
	Algo     ml.Algorithm
}

// New builds a cluster; segments must be >= 1 and the relation must be
// attached to the pool.
func New(pool *bufpool.Pool, rel *storage.Relation, algo ml.Algorithm, segments int) (*Cluster, error) {
	if segments < 1 {
		return nil, fmt.Errorf("greenplum: need >= 1 segment, got %d", segments)
	}
	if got, want := rel.Schema.NumCols(), algo.TupleWidth(); got != want {
		return nil, fmt.Errorf("greenplum: relation %q has %d columns, %s needs %d", rel.Name, got, algo.Name(), want)
	}
	return &Cluster{Segments: segments, Pool: pool, Rel: rel, Algo: algo}, nil
}

// Train runs distributed IGD with per-epoch model averaging, one pool
// scan per epoch. The i-th live tuple in heap order updates segment
// i mod Segments's local model, which starts the epoch as a copy of the
// shared model, so each segment sees its shard in shard order; the
// coordinator then averages the first min(n, Segments) locals, exactly
// the segments that saw data. One goroutine plays every segment: their
// modeled time is priced analytically (cost.MADlibGreenplum). FinalLoss
// is the mean loss over one more scan, summed in page order at every
// segment count.
func (c *Cluster) Train(epochs int) ([]float64, Stats, error) {
	if epochs < 1 {
		epochs = 1
	}
	model := ml.InitModel(c.Algo, 1)
	locals := make([][]float64, c.Segments)
	st := Stats{Segments: c.Segments}
	for e := 0; e < epochs; e++ {
		n := 0
		err := c.Pool.Scan(c.Rel.Name, func(vals []float64) (bool, error) {
			s := n % c.Segments
			if n < c.Segments {
				locals[s] = append(locals[s][:0], model...)
			}
			c.Algo.Update(locals[s], vals)
			n++
			return true, nil
		})
		if err != nil {
			return nil, Stats{}, err
		}
		if n > 0 {
			model = ml.AverageModels(locals[:min(n, c.Segments)])
		}
		st.Tuples += int64(n)
		st.Epochs++
	}
	var sum float64
	var n int64
	if err := c.Pool.Scan(c.Rel.Name, func(vals []float64) (bool, error) {
		sum += c.Algo.Loss(model, vals)
		n++
		return true, nil
	}); err != nil {
		return nil, Stats{}, err
	}
	if n > 0 {
		st.FinalLoss = sum / float64(n)
	}
	st.Pool = c.Pool.Stats()
	return model, st, nil
}
