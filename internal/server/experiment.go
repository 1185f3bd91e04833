package server

import (
	"fmt"
	"io"
)

// TenantExperiment is danabench -exp tenants: a fixed-seed open-loop
// load (seed 1, 6 tenants, 48 jobs at 24 per virtual second, scale
// 0.002, 2 epochs) run functionally under sequence-aware scheduling on 2
// instances, isolation and counter identities included, and the
// identical schedule re-planned under always-reconfigure. It returns the
// modeled-makespan speedup, and errors — danabench exits non-zero — if
// the counter identity breaks, any job fails, or sequence-aware does
// not beat always-reconfigure on makespan and reuse rate.
func TenantExperiment(w io.Writer) (speedup float64, err error) {
	load := LoadConfig{Seed: 1, Tenants: 6, Jobs: 48, RateJobsPerSec: 24, Scale: 0.002, Epochs: 2}
	specs := GenLoad(load)
	srv, err := New(Config{
		Tenants:   DefaultTenants(load.Tenants),
		Instances: 2,
		Policy:    PolicySequenceAware,
		Seed:      load.Seed,
	})
	if err != nil {
		return 0, err
	}
	rep, err := srv.Run(specs)
	if err != nil {
		return 0, err
	}
	if err := srv.IdentityError(); err != nil {
		return 0, err
	}
	if rep.Errors > 0 {
		for _, r := range rep.Results {
			if r.Err != nil {
				fmt.Fprintf(w, "job %d (%s %s for %s) failed: %v\n",
					r.Placement.Seq, r.Placement.Spec.Kind, r.Placement.Spec.Workload,
					r.Placement.Spec.Tenant, r.Err)
			}
		}
		return 0, fmt.Errorf("tenants experiment: %d job(s) failed under a fault-free schedule", rep.Errors)
	}

	// Same load, baseline policy — plan only.
	basePlan, err := srv.Replan(specs, PolicyAlwaysReconfigure)
	if err != nil {
		return 0, err
	}
	if rep.MakespanSec > 0 {
		speedup = basePlan.Makespan / rep.MakespanSec
	}

	WriteReport(w, rep)
	fmt.Fprintf(w, "always-reconfigure baseline: makespan %.3fs, reuse rate %.0f%%\n",
		basePlan.Makespan, 100*basePlan.ReuseRate())
	fmt.Fprintf(w, "sequence-aware vs always-reconfigure on modeled makespan: %.2fx\n", speedup)

	if rep.MakespanSec >= basePlan.Makespan {
		return speedup, fmt.Errorf("tenants experiment: sequence-aware makespan %.3fs did not beat always-reconfigure %.3fs",
			rep.MakespanSec, basePlan.Makespan)
	}
	if rep.ReuseRate <= basePlan.ReuseRate() {
		return speedup, fmt.Errorf("tenants experiment: sequence-aware reuse rate %.2f not above baseline %.2f",
			rep.ReuseRate, basePlan.ReuseRate())
	}
	return speedup, nil
}
