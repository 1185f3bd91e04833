package server

import (
	"math/rand"
	hostrt "runtime"
	"testing"
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
// server and bounds what the second, warm drain allocates. The parent of
// the change that added it allocated 35.4 MB here, 31.4 of them zeroed
// scratchpads (a pad per model thread per train job) and 3.8 the tables
// its score jobs materialised (2 200 of its 3 731 objects); a drain now
// allocates about 2.7 MB in about 1 540 objects. The bounds sit between: a
// pad per model thread, or one materialised table per score job, breaks
// one of them several times over.
func TestServerMixAllocBudget(t *testing.T) {
	srv, err := New(Config{Tenants: DefaultTenants(4), Instances: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	specs := benchMix()
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
	var before, after hostrt.MemStats
	hostrt.ReadMemStats(&before)
	drain()
	hostrt.ReadMemStats(&after)
	bytes, objects := after.TotalAlloc-before.TotalAlloc, after.Mallocs-before.Mallocs
	t.Logf("second drain: %d B in %d objects", bytes, objects)
	if bytes > 4<<20 || objects > 2000 {
		t.Errorf("second drain allocated %d B in %d objects, budget 4 MiB in 2000", bytes, objects)
	}
}
