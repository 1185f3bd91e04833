package verify_test

// Cross-backend failover chaos scenarios: a Train whose accelerated
// backend faults finishes on the golden CPU trainer, and these scenarios
// pin the behavior across the Backend seam:
//
//   - an accelerator fault storm degrades the streaming pipeline and the
//     failover lands on the CPU backend, with runtime.cpu_fallbacks
//     charged once and zero page pins leaked;
//   - a Precision-8 weave Train under the same storm drops its read
//     precision and lands on the CPU backend, with the model of a
//     full-width CPU Train;
//   - the same policy serves the non-streaming accelerated path (TABLA
//     override hit by cluster faults at the epoch boundary);
//   - non-accelerated backends (cpu, sharded) are immune to accelerator
//     fault schedules — explicit overrides run clean under a storm;
//   - the DisableCPUFallback knob flips failover off: the fault surfaces
//     typed and no failover is recorded (the load-bearing mutation for
//     this suite's green runs).

import (
	"errors"
	"testing"

	"dana/internal/fault"
	"dana/internal/obs"
	"dana/internal/runtime"
)

// stormSched is a persistent Strider trap storm: every (vm, page) walk
// faults, so the whole pool quarantines and the streaming pipeline
// degrades.
func stormSched(o *runtime.Options) {
	var rates [fault.NumPoints]float64
	rates[fault.StriderTrap] = 1.0
	o.Faults = fault.New(fault.Config{Seed: 61, Rates: rates, TransientAttempts: -1})
}

// clusterSched hard-fails the modeled cluster at every epoch boundary —
// the fault point that reaches accelerated backends with no Striders.
func clusterSched(o *runtime.Options) {
	var rates [fault.NumPoints]float64
	rates[fault.ClusterDown] = 1.0
	o.Faults = fault.New(fault.Config{Seed: 62, Rates: rates, TransientAttempts: -1})
}

// TestFailoverStreamingToCPU: the accelerator pipeline faults mid-train
// and the failover finishes the budget on the CPU backend.
func TestFailoverStreamingToCPU(t *testing.T) {
	wl := chaosWorkloads[0]
	s, udf, table := chaosSystem(t, wl, 8<<10, stormSched)
	res, err := s.Train(udf, table)
	if err != nil {
		t.Fatal(err)
	}
	if res.Backend != "accelerator" {
		t.Errorf("res.Backend = %q, want accelerator", res.Backend)
	}
	if !res.Degraded {
		t.Fatal("persistent trap storm should degrade the run")
	}
	if got := s.Obs().Get(obs.RuntimeCPUFallbacks); got != 1 {
		t.Errorf("cpu_fallbacks = %d, want 1", got)
	}
	if s.DB.Pool.PinnedCount() != 0 {
		t.Error("failover run leaked page pins")
	}
	assertWithinTol(t, "failover model", res.Model, chaosBaseline(t, wl, 8<<10), wl.tol)
}

// TestFailoverWeaveToCPU: a Precision-8 Train runs on the weave backend;
// under a persistent trap storm its first epoch faults, and the failover
// drops the read precision (the CPU trainer reads full width) and trains
// the whole budget on the CPU backend — the model of a CPU Train, bit for
// bit.
func TestFailoverWeaveToCPU(t *testing.T) {
	wl := chaosWorkloads[0]
	s, udf, table := chaosSystem(t, wl, 8<<10, stormSched,
		func(o *runtime.Options) { o.Precision = 8 })
	res, err := s.Train(udf, table)
	if err != nil {
		t.Fatal(err)
	}
	if res.Backend != "weave" {
		t.Errorf("res.Backend = %q, want weave", res.Backend)
	}
	if !res.Degraded || res.DegradedAtEpoch != 0 {
		t.Fatalf("degraded=%v at epoch %d, want a run degraded at epoch 0 failing over to cpu",
			res.Degraded, res.DegradedAtEpoch)
	}
	if got := s.Obs().Get(obs.RuntimeCPUFallbacks); got != 1 {
		t.Errorf("cpu_fallbacks = %d, want 1", got)
	}
	if s.DB.Pool.PinnedCount() != 0 {
		t.Error("failover run leaked page pins")
	}
	cs, cudf, ctable := chaosSystem(t, wl, 8<<10, func(o *runtime.Options) { o.Backend = "cpu" })
	want, err := cs.Train(cudf, ctable)
	if err != nil {
		t.Fatal(err)
	}
	assertBitIdentical(t, "weave failover model", res.Model, want.Model)
}

// TestFailoverTablaToCPU: the same policy serves the
// non-streaming accelerated path — a TABLA override hit by cluster
// faults degrades and lands on the CPU backend.
func TestFailoverTablaToCPU(t *testing.T) {
	wl := chaosWorkloads[0]
	s, udf, table := chaosSystem(t, wl, 8<<10, clusterSched,
		func(o *runtime.Options) { o.Backend = "tabla" })
	res, err := s.Train(udf, table)
	if err != nil {
		t.Fatal(err)
	}
	if res.Backend != "tabla" {
		t.Errorf("res.Backend = %q, want tabla", res.Backend)
	}
	if !res.Degraded {
		t.Fatal("want a degraded run failing over to cpu")
	}
	if got := s.Obs().Get(obs.RuntimeCPUFallbacks); got != 1 {
		t.Errorf("cpu_fallbacks = %d, want 1", got)
	}
	if s.DB.Pool.PinnedCount() != 0 {
		t.Error("failover run leaked page pins")
	}
	assertWithinTol(t, "tabla failover model", res.Model, chaosBaseline(t, wl, 8<<10), wl.tol)
}

// TestFailoverNonAcceleratedImmune: accelerator fault schedules must not
// reach backends that model no accelerator hardware — explicit cpu and
// sharded overrides run clean under the same storms.
func TestFailoverNonAcceleratedImmune(t *testing.T) {
	wl := chaosWorkloads[0]
	for _, name := range []string{"cpu", "sharded"} {
		for schedName, sched := range map[string]func(*runtime.Options){
			"trap-storm": stormSched, "cluster-down": clusterSched,
		} {
			s, udf, table := chaosSystem(t, wl, 8<<10, sched,
				func(o *runtime.Options) { o.Backend = name })
			res, err := s.Train(udf, table)
			if err != nil {
				t.Fatalf("%s under %s: %v", name, schedName, err)
			}
			if res.Backend != name {
				t.Errorf("%s under %s: res.Backend = %q", name, schedName, res.Backend)
			}
			if res.Degraded {
				t.Errorf("%s under %s: non-accelerated backend degraded", name, schedName)
			}
			if got := s.Obs().Get(obs.RuntimeCPUFallbacks); got != 0 {
				t.Errorf("%s under %s: cpu_fallbacks = %d, want 0", name, schedName, got)
			}
			if s.DB.Pool.PinnedCount() != 0 {
				t.Errorf("%s under %s: leaked page pins", name, schedName)
			}
		}
	}
}

// TestFailoverMetaDisableLoadBearing is the mutation meta-test for this
// suite: turning the failover knob off flips both scenarios from
// degraded-recovery to typed failure with zero failovers recorded —
// proving the green runs above exercise the failover path, not
// some silent recovery.
func TestFailoverMetaDisableLoadBearing(t *testing.T) {
	wl := chaosWorkloads[0]

	s, udf, table := chaosSystem(t, wl, 8<<10, stormSched,
		func(o *runtime.Options) { o.DisableCPUFallback = true })
	if _, err := s.Train(udf, table); !errors.Is(err, fault.ErrWorkerQuarantined) {
		t.Fatalf("streaming storm without failover: got %v, want ErrWorkerQuarantined", err)
	}
	if got := s.Obs().Get(obs.RuntimeCPUFallbacks); got != 0 {
		t.Errorf("cpu_fallbacks = %d after disabled failover, want 0", got)
	}
	if s.DB.Pool.PinnedCount() != 0 {
		t.Error("failed run leaked page pins")
	}

	s2, udf2, table2 := chaosSystem(t, wl, 8<<10, clusterSched,
		func(o *runtime.Options) { o.Backend = "tabla"; o.DisableCPUFallback = true })
	if _, err := s2.Train(udf2, table2); !errors.Is(err, fault.ErrClusterDown) {
		t.Fatalf("tabla cluster-down without failover: got %v, want ErrClusterDown", err)
	}
	if got := s2.Obs().Get(obs.RuntimeCPUFallbacks); got != 0 {
		t.Errorf("cpu_fallbacks = %d after disabled failover, want 0", got)
	}
}
