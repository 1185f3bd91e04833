// Churn: the paper's motivating scenario (§1, Example 1) — an analyst
// keeps customer data in PostgreSQL and trains a classifier over
// dozens of features without leaving the database or writing Verilog.
//
// This example loads the Remote Sensing LR workload (54 features,
// logistic regression) at small scale, trains it three ways — DAnA's
// accelerator, MADlib+PostgreSQL's single-threaded IGD (the cpu
// backend), and MADlib+Greenplum's 8-segment IGD (the sharded backend)
// — and compares learned quality and modeled cost.
//
//	go run ./examples/churn
package main

import (
	"fmt"
	"log"

	"dana"
	"dana/internal/cost"
	"dana/internal/runtime"
)

const epochs = 5

// train loads the customer table into an engine of the given config and
// trains its logistic-regression UDF at the merge coefficient.
func train(cfg dana.Config, merge int) (*dana.Engine, *dana.Dataset, *runtime.TrainResult) {
	eng, err := dana.Open(cfg)
	if err != nil {
		log.Fatal(err)
	}
	ds, err := eng.LoadWorkload("Remote Sensing LR", 0.01, 11)
	if err != nil {
		log.Fatal(err)
	}
	algo, err := ds.DSLAlgo(merge)
	if err != nil {
		log.Fatal(err)
	}
	algo.SetEpochs(epochs)
	if err := eng.RegisterUDF(algo, merge); err != nil {
		log.Fatal(err)
	}
	res, err := eng.Train(algo.Name, ds.Rel.Name)
	if err != nil {
		log.Fatal(err)
	}
	return eng, ds, res
}

func main() {
	// DAnA: the UDF with a 64-way merge on the simulated FPGA.
	cfg := dana.Config{PageSize: 32 << 10, PoolBytes: 128 << 20}
	eng, ds, acc := train(cfg, 64)
	fmt.Printf("customer table %q: %d tuples, %d features, %d pages\n",
		ds.Rel.Name, ds.Tuples, ds.Topology[0], ds.Rel.NumPages())
	fmt.Printf("\nDAnA: %s\n", acc.Design)
	fmt.Printf("  %d engine cycles, %d strider cycles, simulated %.4fs\n",
		acc.Engine.Cycles, acc.Access.Cycles, acc.SimulatedSeconds)

	// The CPU baselines train the same UDF at merge coefficient 1, plain
	// per-tuple IGD as an in-database aggregate, each on an engine of its
	// own backend.
	cfg.Backend = "cpu"
	_, _, mad := train(cfg, 1)
	fmt.Printf("\nMADlib+PostgreSQL: modeled %.4fs\n", mad.SimulatedSeconds)
	cfg.Backend, cfg.Segments = "sharded", 8
	_, _, gp := train(cfg, 1)
	fmt.Printf("Greenplum (8 segments, model averaging): modeled %.4fs\n", gp.SimulatedSeconds)

	// Compare classification agreement between the accelerator's
	// 64-way-merged model and the per-tuple IGD one.
	agree, total := 0, 0
	res, err := eng.SQL("SELECT * FROM " + ds.Rel.Name + " LIMIT 2000")
	if err != nil {
		log.Fatal(err)
	}
	nf := ds.Topology[0]
	for _, tup := range res.Rows {
		var sAcc, sRef float64
		for j := 0; j < nf; j++ {
			sAcc += float64(acc.Model[j]) * tup[j]
			sRef += float64(mad.Model[j]) * tup[j]
		}
		if (sAcc > 0) == (sRef > 0) {
			agree++
		}
		total++
	}
	fmt.Printf("\naccelerator vs MADlib prediction agreement: %d/%d (%.1f%%)\n",
		agree, total, 100*float64(agree)/float64(total))
	overhead := cost.OverheadSec(eng.CostParams(), acc.Epochs)
	fmt.Printf("accelerator pipeline %.4fs (+%.2fs setup and epoch dispatch) vs modeled MADlib+PostgreSQL %.4fs\n",
		acc.SimulatedSeconds-overhead, overhead, mad.SimulatedSeconds)
}
