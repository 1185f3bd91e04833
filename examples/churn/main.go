// Churn: the paper's motivating scenario (§1, Example 1) — an analyst
// keeps customer data in PostgreSQL and trains a classifier over
// dozens of features without leaving the database or writing Verilog.
//
// This example loads the Remote Sensing LR workload (54 features,
// logistic regression) at small scale, trains it three ways — DAnA's
// accelerator, MADlib-style single-threaded IGD, and Greenplum-style
// 8-segment parallel IGD — and compares learned quality and cost.
//
//	go run ./examples/churn
package main

import (
	"fmt"
	"log"

	"dana"
	"dana/internal/backend"
	"dana/internal/cost"
)

func main() {
	eng, err := dana.Open(dana.Config{PageSize: 32 << 10, PoolBytes: 128 << 20})
	if err != nil {
		log.Fatal(err)
	}

	ds, err := eng.LoadWorkload("Remote Sensing LR", 0.01, 11)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("customer table %q: %d tuples, %d features, %d pages\n",
		ds.Rel.Name, ds.Tuples, ds.Topology[0], ds.Rel.NumPages())

	const epochs = 5

	// DAnA: build the logistic-regression UDF with a 64-way merge and
	// train on the simulated FPGA.
	algo, err := ds.DSLAlgo(64)
	if err != nil {
		log.Fatal(err)
	}
	algo.SetEpochs(epochs)
	if err := eng.RegisterUDF(algo, 64); err != nil {
		log.Fatal(err)
	}
	acc, err := eng.Train(algo.Name, ds.Rel.Name)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nDAnA: %s\n", acc.Design)
	fmt.Printf("  %d engine cycles, %d strider cycles, simulated %.4fs\n",
		acc.Engine.Cycles, acc.Access.Cycles, acc.SimulatedSeconds)

	// MADlib baseline: same algorithm as an in-database aggregate.
	ref := dana.LogisticRegression{NFeatures: ds.Topology[0], LR: ds.Workload.LR}
	mad, err := eng.TrainMADlib(ds.Rel.Name, ref, epochs)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nMADlib+PostgreSQL: %d tuple updates, final loss %.4f\n", mad.Tuples, mad.FinalLoss)

	// Greenplum baseline: 8 segments with per-epoch model averaging.
	gp, err := eng.TrainGreenplum(ds.Rel.Name, ref, 8, epochs)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Greenplum (8 segments): final loss %.4f\n", gp.FinalLoss)

	// Compare classification agreement between the accelerator's
	// float32 model and the float64 reference.
	agree, total := 0, 0
	var tuples [][]float64
	res, err := eng.SQL("SELECT * FROM " + ds.Rel.Name + " LIMIT 2000")
	if err != nil {
		log.Fatal(err)
	}
	tuples = res.Rows
	nf := ds.Topology[0]
	for _, tup := range tuples {
		var sAcc, sRef float64
		for j := 0; j < nf; j++ {
			sAcc += float64(acc.Model[j]) * tup[j]
			sRef += mad.Model[j] * tup[j]
		}
		if (sAcc > 0) == (sRef > 0) {
			agree++
		}
		total++
	}
	fmt.Printf("\naccelerator vs MADlib prediction agreement: %d/%d (%.1f%%)\n",
		agree, total, 100*float64(agree)/float64(total))
	// The dispatcher prices the cpu backend as cost.MADlibPostgres: the
	// modeled MADlib+PostgreSQL run of this job.
	costs, err := eng.BackendCosts(algo.Name, ds.Rel.Name)
	if err != nil {
		log.Fatal(err)
	}
	var cpuSec float64
	for _, c := range costs {
		if c.Name == backend.NameCPU {
			cpuSec = c.Seconds
		}
	}
	overhead := cost.OverheadSec(eng.CostParams(), acc.Epochs)
	fmt.Printf("modeled MADlib+PostgreSQL time %.4fs vs accelerator pipeline %.4fs (+%.2fs setup and epoch dispatch)\n",
		cpuSec, acc.SimulatedSeconds-overhead, overhead)
}
