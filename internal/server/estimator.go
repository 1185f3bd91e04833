package server

import (
	"errors"
	"fmt"

	"dana/internal/algos"
	"dana/internal/cost"
	"dana/internal/datagen"
	"dana/internal/workload"
)

// ErrUnsupportedWorkload marks job classes the server does not admit
// yet (sparse LRMF needs per-scale topology rescaling the estimator
// would have to mirror bit-for-bit; ROADMAP item 2's precision work is
// a better time to fold it in).
var ErrUnsupportedWorkload = errors.New("server: workload class not admitted")

// configKey is the configuration identity of a job: the hDFG/Strider
// program an instance must have loaded to run it. Training and scoring
// the same workload share a configuration, which is exactly the
// affinity the sequence-aware policy exploits for mixed traffic.
func configKey(workload string, merge int) string {
	return fmt.Sprintf("%s/m%d", workload, merge)
}

// costEstimator prices jobs with the same analytic model the backend
// dispatcher uses: it compiles each distinct (workload, scale, merge)
// once (hardware generation included), then evaluates cost.DAnA with
// the per-query SetupSec replaced by the planner's explicit
// reconfigure/reuse charge. Not safe for concurrent use; the Server
// serializes planning.
type costEstimator struct {
	env      workload.Env
	compiled map[string]cost.Workload // workload|scale|merge -> cost inputs
	cache    map[string]Estimate      // full spec key -> estimate
}

func newCostEstimator(env workload.Env) *costEstimator {
	return &costEstimator{
		env:      env,
		compiled: map[string]cost.Workload{},
		cache:    map[string]Estimate{},
	}
}

// effectiveMerge mirrors workload.Compile's coefficient resolution so
// the estimator's configuration key matches what the tenant systems
// actually build.
func (e *costEstimator) effectiveMerge(merge int) int {
	if merge <= 0 {
		return e.env.MergeCoef
	}
	return merge
}

func (e *costEstimator) costWorkload(w datagen.Workload, scale float64, merge int) (cost.Workload, error) {
	ck := fmt.Sprintf("%s|%g|%d", w.Name, scale, merge)
	if cw, ok := e.compiled[ck]; ok {
		return cw, nil
	}
	ws := w
	ws.Tuples = w.ScaledTuples(scale)
	comp, err := workload.Compile(ws, e.env, merge)
	if err != nil {
		return cost.Workload{}, err
	}
	cw := comp.CostWorkload(e.env)
	e.compiled[ck] = cw
	return cw, nil
}

// Estimate implements Estimator.
func (e *costEstimator) Estimate(spec JobSpec) (Estimate, error) {
	scale := spec.Scale
	if scale <= 0 {
		scale = 1
	}
	sk := fmt.Sprintf("%s|%g|%d|%d|%d", spec.Workload, scale, spec.Merge, spec.Epochs, spec.Kind)
	if est, ok := e.cache[sk]; ok {
		return est, nil
	}
	w, err := datagen.ByName(spec.Workload)
	if err != nil {
		return Estimate{}, err
	}
	if w.Kind == algos.KindLRMF {
		return Estimate{}, fmt.Errorf("%w: %q is LRMF", ErrUnsupportedWorkload, spec.Workload)
	}
	merge := e.effectiveMerge(spec.Merge)
	cw, err := e.costWorkload(w, scale, merge)
	if err != nil {
		return Estimate{}, err
	}
	// Schedule against the epochs the functional run will execute: the
	// explicit budget when given, otherwise the workload's own, with the
	// accelerated-path convergence override disabled either way (the
	// planner charges what was asked for, not the luckiest outcome).
	if spec.Epochs > 0 {
		cw.Epochs = spec.Epochs
	}
	cw.DAnAEpochs = 0

	var svc float64
	if spec.Kind == KindScore {
		svc = cost.ScoreServiceSec(cw, e.env.Cost)
	} else {
		svc = cost.ServerServiceSec(cost.DAnA(cw, e.env.Cost, true).TotalSec, e.env.Cost)
	}
	est := Estimate{Key: configKey(spec.Workload, merge), ServiceSec: svc, Bytes: cw.DatasetBytes}
	e.cache[sk] = est
	return est, nil
}
