package server

import (
	"fmt"
	"testing"
)

// BenchmarkServerTenantLoad runs the CI-sized seeded open-loop load
// end-to-end per iteration and reports the served throughput, p99
// sojourn, and configuration reuse rate alongside the usual ns/op.
func BenchmarkServerTenantLoad(b *testing.B) {
	load := LoadConfig{
		Seed: 1, Tenants: 4, Jobs: 24, RateJobsPerSec: 6,
		Workloads: []string{"WLAN", "Patient", "Blog Feedback"},
		Scale:     0.002, Epochs: 1,
	}
	specs := GenLoad(load)
	var last *Report
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		srv, err := New(Config{
			Tenants:   DefaultTenants(load.Tenants),
			Instances: 2,
			Seed:      load.Seed,
		})
		if err != nil {
			b.Fatal(err)
		}
		rep, err := srv.Run(specs)
		if err != nil {
			b.Fatal(err)
		}
		if rep.Errors > 0 {
			b.Fatalf("%d job errors", rep.Errors)
		}
		if err := srv.IdentityError(); err != nil {
			b.Fatal(err)
		}
		last = rep
	}
	b.StopTimer()
	b.ReportMetric(last.JobsPerSec, "vjobs/s")
	b.ReportMetric(last.P99Sojourn*1e3, "p99ms")
	b.ReportMetric(100*last.ReuseRate, "reuse%")
}

// BenchmarkServerPlan isolates the virtual-time planner on a large
// synthetic batch (no functional execution).
func BenchmarkServerPlan(b *testing.B) {
	const tenants, jobs = 8, 512
	names := make([]string, tenants)
	quotas := map[string]Quota{}
	for i := range names {
		names[i] = fmt.Sprintf("t%02d", i)
		quotas[names[i]] = Quota{MemBytes: 1 << 30, MaxInFlight: 2}
	}
	specs, _ := synthLoad(3, tenants, jobs, 32)
	cfg := testPlanConfig(names, 4)
	cfg.Quotas = quotas
	est := &fakeEstimator{}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		plan, err := BuildPlan(specs, est, cfg)
		if err != nil {
			b.Fatal(err)
		}
		if len(plan.Placements) != jobs {
			b.Fatalf("placed %d of %d", len(plan.Placements), jobs)
		}
	}
}
