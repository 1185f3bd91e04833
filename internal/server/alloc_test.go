package server

import (
	"math/rand"
	hostrt "runtime"
	"testing"

	"dana/internal/obs"
)

// benchMix is bench/workloads.go's server_mix traffic (the bench module
// cannot be imported from here): 48 jobs from 4 tenants over four small
// GLM workloads at scale 0.002, 2 epochs, every fourth job of a workload a
// score, shuffled and given Poisson arrivals by a fixed draw.
func benchMix() []JobSpec {
	var specs []JobSpec
	for wi, name := range []string{"WLAN", "Patient", "Blog Feedback", "Remote Sensing LR"} {
		for j := 0; j < []int{23, 12, 8, 5}[wi]; j++ {
			kind := KindTrain
			if j%4 == 3 {
				kind = KindScore
			}
			specs = append(specs, JobSpec{Tenant: TenantName(j % 4), Kind: kind, Workload: name, Scale: 0.002, Epochs: 2})
		}
	}
	rng := rand.New(rand.NewSource(1))
	rng.Shuffle(len(specs), func(i, j int) { specs[i], specs[j] = specs[j], specs[i] })
	now := 0.0
	for i := range specs {
		now += rng.ExpFloat64() / 6
		specs[i].ArriveSec = now
	}
	return specs
}

// TestServerMixAllocBudget drains the benchmark's server_mix twice on one
// server and bounds what the second, warm drain allocates. Two changes
// set the bounds. The first stopped giving a train job a pad per model
// thread and a score job a materialised table: 35.4 MB in 3 731 objects
// became 2.7 MB in 1 500. The second lets a train job reuse the backend
// its tenant's last good Train of the same UDF configured: 2.08 of those
// 2.7 MB were machines built per job, and a drain allocated 0.55 MB in
// 1 338 objects. The third reads a score job's rows through the walker
// into buffers its tenant System keeps, not through a decoding heap scan:
// a drain allocated 432 512 B in 1 305 objects (up to 440 168 B in
// 1 395 under -race, which CI runs this under). The fourth prices a job
// once, when Submit registers its configuration, so a later estimate is
// a map lookup with no formatted key: a drain now allocates 433 968 B in
// 1 018 objects, under -race too; the bytes rose by the two names each
// placement carries. A machine per job, a pad per model thread, a score
// pass or page buffer built per job, or one materialised table per score
// job each break the byte bound, and a formatted key per estimate the
// object bound. The first drain builds one
// backend per training tenant and program — three tenants train four
// programs, tenant3 only scores — and the warm drain builds none.
func TestServerMixAllocBudget(t *testing.T) {
	srv, err := New(Config{Tenants: DefaultTenants(4), Instances: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	specs := benchMix()
	built := func() (n int64) {
		for _, name := range srv.TenantNames() {
			n += srv.TenantObs(name).Get(obs.RuntimeBackendsBuilt)
		}
		return n
	}
	drain := func() {
		rep, err := srv.Run(specs)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Errors != 0 || len(rep.Results) != len(specs) {
			t.Fatalf("%d results, %d errors for %d jobs", len(rep.Results), rep.Errors, len(specs))
		}
	}
	drain()
	if got := built(); got != 12 {
		t.Errorf("the first drain built %d backends, want 12 (3 training tenants × 4 programs)", got)
	}
	var before, after hostrt.MemStats
	hostrt.ReadMemStats(&before)
	drain()
	hostrt.ReadMemStats(&after)
	bytes, objects := after.TotalAlloc-before.TotalAlloc, after.Mallocs-before.Mallocs
	t.Logf("second drain: %d B in %d objects", bytes, objects)
	if bytes > 448<<10 || objects > 1080 {
		t.Errorf("second drain allocated %d B in %d objects, budget 448 KiB in 1080", bytes, objects)
	}
	if got := built(); got != 12 {
		t.Errorf("the warm drain built %d backends, want 0", got-12)
	}
}
