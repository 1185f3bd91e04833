// Package experiments regenerates every table and figure of the paper's
// evaluation (§7) from the reproduction: it compiles each Table 3
// workload at full size, runs hardware generation, takes static cycle
// schedules from the engine, and evaluates the unified cost model for
// all systems. cmd/danabench prints the results; bench_test.go wraps
// them as testing.B benchmarks; EXPERIMENTS.md records paper-vs-measured.
package experiments

import (
	"math"

	"dana/internal/cost"
	"dana/internal/datagen"
	"dana/internal/hwgen"
	"dana/internal/workload"
)

// Env fixes the modeled environment for a suite run.
type Env = workload.Env

// DefaultEnv mirrors the paper's default setup (§7: 32 KB pages, 8 GB
// pool, 8-segment Greenplum, VU9P).
func DefaultEnv() Env { return workload.DefaultEnv() }

// Compiled caches the full-size compilation artifacts of one workload.
type Compiled = workload.Compiled

// CompileWorkload builds the full-size accelerator for a workload.
func CompileWorkload(w datagen.Workload, env Env, mergeCoef int) (*Compiled, error) {
	return workload.Compile(w, env, mergeCoef)
}

// SystemTimes are the modeled end-to-end breakdowns of one workload
// across every system.
type SystemTimes struct {
	W      datagen.Workload
	Warm   bool
	Design hwgen.Design

	PG            cost.Breakdown // MADlib + PostgreSQL
	GP            cost.Breakdown // MADlib + Greenplum (env.Segments)
	DAnA          cost.Breakdown
	DAnANoStrider cost.Breakdown
	TABLA         cost.Breakdown
}

// SpeedupDAnAOverPG returns PG time / DAnA time.
func (s SystemTimes) SpeedupDAnAOverPG() float64 { return s.PG.TotalSec / s.DAnA.TotalSec }

// SpeedupDAnAOverGP returns GP time / DAnA time.
func (s SystemTimes) SpeedupDAnAOverGP() float64 { return s.GP.TotalSec / s.DAnA.TotalSec }

// Model evaluates every system on a workload.
func Model(w datagen.Workload, env Env, warm bool) (SystemTimes, error) {
	c, err := CompileWorkload(w, env, 0)
	if err != nil {
		return SystemTimes{}, err
	}
	return times(c, env, warm), nil
}

// times evaluates the cost model for a compiled workload.
func times(c *Compiled, env Env, warm bool) SystemTimes {
	cw := c.CostWorkload(env)
	return SystemTimes{
		W:             c.W,
		Warm:          warm,
		Design:        c.Design,
		PG:            cost.MADlibPostgres(cw, env.Cost, warm),
		GP:            cost.MADlibGreenplum(cw, env.Cost, env.Segments, warm),
		DAnA:          cost.DAnA(cw, env.Cost, warm),
		DAnANoStrider: cost.DAnANoStrider(cw, env.Cost, warm),
		TABLA:         cost.TABLA(cw, env.Cost, warm),
	}
}

// Geomean returns the geometric mean of xs (1 for empty), computed in
// log space to avoid overflow across 14 workloads.
func Geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 1
	}
	s := 0.0
	for _, x := range xs {
		if x <= 0 {
			return 0
		}
		s += math.Log(x)
	}
	return math.Exp(s / float64(len(xs)))
}
