// Package workload compiles a Table 3 workload at a given size — DSL ->
// hDFG -> engine program -> hardware design point — and assembles the
// analytic cost-model inputs of the result. It sits below the
// experiment harness, and the server takes its modeled environment
// (Env) from here, so that production code never imports the harness.
package workload

import (
	"fmt"

	"dana/internal/accessengine"
	"dana/internal/algos"
	"dana/internal/compiler"
	"dana/internal/cost"
	"dana/internal/datagen"
	"dana/internal/engine"
	"dana/internal/hdfg"
	"dana/internal/hwgen"
	"dana/internal/ml"
	"dana/internal/storage"
)

// Env fixes the modeled environment for a suite run.
type Env struct {
	Cost      cost.Params
	FPGA      hwgen.FPGA
	PageSize  int
	MergeCoef int // default merge coefficient for dense workloads
	Segments  int // Greenplum segments for the default comparisons
}

// DefaultEnv mirrors the paper's default setup (§7: 32 KB pages, 8 GB
// pool, 8-segment Greenplum, VU9P).
func DefaultEnv() Env {
	return Env{
		Cost:      cost.Default(),
		FPGA:      hwgen.VU9P(),
		PageSize:  storage.PageSize32K,
		MergeCoef: 1024,
		Segments:  8,
	}
}

// mlFor returns the reference algorithm for a workload's full topology.
func mlFor(w datagen.Workload) ml.Algorithm {
	switch w.Kind {
	case algos.KindLinear:
		return ml.Linear{NFeatures: w.Topology[0], LR: w.LR}
	case algos.KindLogistic:
		return ml.Logistic{NFeatures: w.Topology[0], LR: w.LR}
	case algos.KindSVM:
		return ml.SVM{NFeatures: w.Topology[0], LR: w.LR, Lambda: w.Lambda}
	default:
		return ml.LRMF{Users: w.Topology[0], Items: w.Topology[1], Rank: w.Topology[2], LR: w.LR}
	}
}

// Compiled caches the full-size compilation artifacts of one workload.
type Compiled struct {
	W       datagen.Workload
	Coef    int
	Graph   *hdfg.Graph
	Program *engine.Program
	Design  hwgen.Design
}

// Compile builds the full-size accelerator for a workload.
func Compile(w datagen.Workload, env Env, mergeCoef int) (*Compiled, error) {
	coef := mergeCoef
	if coef <= 0 {
		coef = env.MergeCoef
	}
	if w.Kind == algos.KindLRMF {
		coef = 1 // sparse row updates: single-threaded acceleration
	}
	a, err := algos.Build(w.Kind, w.Topology, w.Hyper(coef))
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.Name, err)
	}
	g, err := hdfg.Translate(a)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.Name, err)
	}
	prog, err := compiler.Compile(g)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.Name, err)
	}
	design, err := hwgen.Generate(prog, env.FPGA, hwgen.Params{
		PageSize:  env.PageSize,
		MergeCoef: coef,
		NumTuples: w.Tuples,
	})
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.Name, err)
	}
	return &Compiled{W: w, Coef: coef, Graph: g, Program: prog, Design: design}, nil
}

// CostWorkload assembles the cost-model inputs for the compiled design.
func (c *Compiled) CostWorkload(env Env) cost.Workload {
	w := c.W
	pages := w.PagesAt(env.PageSize)
	perPage := (env.PageSize - storage.PageHeaderSize) / w.TupleBytes()
	if perPage < 1 {
		perPage = 1
	}
	est := c.Program.Estimate(c.Design.Engine)
	// TABLA baseline: its own single-threaded design point with the
	// whole fabric available to one thread.
	tabla := hwgen.TablaDesign(c.Program, env.FPGA, hwgen.Params{PageSize: env.PageSize, NumTuples: w.Tuples}, c.Design.Engine)
	est1 := c.Program.Estimate(tabla.Engine)
	return cost.Workload{
		Tuples:                  w.Tuples,
		DAnAEpochs:              w.DAnAEpochs,
		Columns:                 w.Schema().NumCols(),
		Epochs:                  w.Epochs,
		DatasetBytes:            int64(pages) * int64(env.PageSize),
		PageSize:                env.PageSize,
		Pages:                   pages,
		FlopsPerTuple:           mlFor(w).FlopsPerUpdate(),
		ModelParams:             w.ModelSize(),
		EpochCycles:             est.EpochCycles(w.Tuples, c.Coef, c.Design.Engine.Threads),
		SingleThreadEpochCycles: est1.EpochCycles(w.Tuples, c.Coef, 1),
		StriderPageCycles:       accessengine.PageCycles(w.Schema(), perPage),
		Striders:                c.Design.NumStriders,
	}
}
