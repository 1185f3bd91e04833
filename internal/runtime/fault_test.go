package runtime

import (
	"errors"
	"math"
	"testing"
	"time"

	"dana/internal/fault"
	"dana/internal/obs"
	"dana/internal/verify"
)

// rate builds a Rates array with one injection point set.
func rate(p fault.Point, r float64) [fault.NumPoints]float64 {
	var rs [fault.NumPoints]float64
	rs[p] = r
	return rs
}

// tolCompare checks the degraded model against the fault-free baseline
// at Oracle-C tolerance: the CPU fallback runs the same update rule in
// float64, so the result must track the accelerator's float32 run.
func tolCompare(t *testing.T, what string, got, want []float32, tol float64) {
	t.Helper()
	a := make([]float64, len(got))
	b := make([]float64, len(want))
	for i := range got {
		a[i] = float64(got[i])
	}
	for i := range want {
		b[i] = float64(want[i])
	}
	if err := verify.CompareModels(what, a, b, tol); err != nil {
		t.Error(err)
	}
}

// obsCount reads a named counter off the system registry.
func obsCount(t *testing.T, s *System, name string) int64 {
	t.Helper()
	return s.Obs().Get(name)
}

const (
	ftWorkload  = "Remote Sensing LR"
	ftScale     = 0.002
	ftMergeCoef = 16
	ftEpochs    = 3

	// A persistent trap schedule that quarantines Striders and recovers
	// on the ft workload (4 quarantines; seed 23, its earlier value,
	// trapped no (Strider, page) pair once slot j of a group runs on
	// healthy[j mod h]).
	persistentTrapSeed = 9
	persistentTrapRate = 0.02
)

// ftSystem builds a system with the workload deployed and UDF
// registered, ready to Train.
func ftSystem(t *testing.T, mods ...func(*Options)) (*System, string, string) {
	t.Helper()
	opts := DefaultOptions()
	opts.PageSize = 8 << 10
	opts.Cost.PoolBytes = 32 << 20
	for _, mod := range mods {
		mod(&opts)
	}
	s := New(opts)
	d := deployScaled(t, s, ftWorkload, ftScale)
	a, err := d.DSLAlgo(ftMergeCoef)
	if err != nil {
		t.Fatal(err)
	}
	a.SetEpochs(ftEpochs)
	if _, err := s.Register(a, ftMergeCoef, d.Tuples); err != nil {
		t.Fatal(err)
	}
	return s, a.Name, d.Rel.Name
}

// TestTransientTrapRecoversBitIdentical: a low-rate transient Strider
// trap is absorbed by the same-VM page retry, so the run completes
// undegraded with a model bit-identical to the fault-free baseline.
func TestTransientTrapRecoversBitIdentical(t *testing.T) {
	baseline := trainConfigured(t, ftWorkload, ftScale, ftMergeCoef, ftEpochs, 4, false)

	s, udf, table := ftSystem(t, func(o *Options) {
		o.Faults = fault.New(fault.Config{
			Seed:              11,
			Rates:             rate(fault.StriderTrap, 0.05),
			TransientAttempts: 1,
		})
	})
	res, err := s.Train(udf, table)
	if err != nil {
		t.Fatal(err)
	}
	if res.Degraded {
		t.Fatal("transient traps should not degrade the run")
	}
	if got := obsCount(t, s, obs.RuntimePageRetries); got == 0 {
		t.Error("no page retries recorded; the trap-retry path never fired")
	}
	if s.Pool().PinnedCount() != 0 {
		t.Error("leaked page pins")
	}
	if len(res.Model) != len(baseline.Model) {
		t.Fatalf("model size %d != baseline %d", len(res.Model), len(baseline.Model))
	}
	for i := range res.Model {
		if math.Float32bits(res.Model[i]) != math.Float32bits(baseline.Model[i]) {
			t.Fatalf("model[%d] = %v != baseline %v (recovered run must be bit-identical)",
				i, res.Model[i], baseline.Model[i])
		}
	}
}

// TestPersistentTrapQuarantinesWorker: a persistent trap follows the
// (strider, page) pair, so the page-retry budget exhausts, the VM is
// quarantined, and the epoch re-runs on the healthy subset — the run
// still completes with a bit-identical model.
func TestPersistentTrapQuarantinesWorker(t *testing.T) {
	baseline := trainConfigured(t, ftWorkload, ftScale, ftMergeCoef, ftEpochs, 4, false)

	s, udf, table := ftSystem(t, func(o *Options) {
		o.Faults = fault.New(fault.Config{
			Seed:              persistentTrapSeed,
			Rates:             rate(fault.StriderTrap, persistentTrapRate),
			TransientAttempts: -1, // persistent: retries never clear it
		})
	})
	res, err := s.Train(udf, table)
	if err != nil {
		t.Fatal(err)
	}
	if got := obsCount(t, s, obs.RuntimeQuarantines); got == 0 {
		t.Error("no quarantines recorded; pick a seed/rate that traps at least one (vm, page) pair")
	}
	if got := obsCount(t, s, obs.RuntimeEpochRetries); got == 0 {
		t.Error("no epoch retries recorded")
	}
	if s.Pool().PinnedCount() != 0 {
		t.Error("leaked page pins")
	}
	if res.Degraded {
		// All VMs quarantined instead — legal at a high rate, but at 2%
		// the healthy subset should survive.
		t.Fatal("quarantine recovery should complete without degradation at this rate")
	}
	for i := range res.Model {
		if math.Float32bits(res.Model[i]) != math.Float32bits(baseline.Model[i]) {
			t.Fatalf("model[%d] = %v != baseline %v (recovered run must be bit-identical)",
				i, res.Model[i], baseline.Model[i])
		}
	}
}

// TestAllWorkersQuarantinedFallsBackToCPU: with every (strider, page)
// walk trapping persistently, quarantine drains the whole pool and the
// run degrades to the golden CPU trainer — same update rule, so the
// model lands within Oracle-C tolerance of the fault-free baseline.
func TestAllWorkersQuarantinedFallsBackToCPU(t *testing.T) {
	baseline := trainConfigured(t, ftWorkload, ftScale, ftMergeCoef, ftEpochs, 4, false)

	mkFaults := func(o *Options) {
		o.Faults = fault.New(fault.Config{
			Seed:              5,
			Rates:             rate(fault.StriderTrap, 1.0),
			TransientAttempts: -1,
		})
	}
	s, udf, table := ftSystem(t, mkFaults)
	res, err := s.Train(udf, table)
	if err != nil {
		t.Fatalf("graceful degradation must not surface an error: %v", err)
	}
	if !res.Degraded || res.DegradedAtEpoch != 0 {
		t.Fatalf("want Degraded at epoch 0, got %+v", res)
	}
	if got := obsCount(t, s, obs.RuntimeCPUFallbacks); got != 1 {
		t.Errorf("cpu_fallbacks = %d, want 1", got)
	}
	if got := obsCount(t, s, obs.RuntimeQuarantines); got == 0 {
		t.Error("no quarantines recorded before fallback")
	}
	if res.Epochs != ftEpochs {
		t.Errorf("degraded run trained %d epochs, want the full budget %d", res.Epochs, ftEpochs)
	}
	if s.Pool().PinnedCount() != 0 {
		t.Error("leaked page pins")
	}
	tolCompare(t, "cpu fallback", res.Model, baseline.Model, 1e-2)

	// Mutation meta-test: disabling the fallback must flip the outcome
	// to a clean typed failure, proving the fallback path is what saved
	// the run above.
	s2, udf2, table2 := ftSystem(t, mkFaults, func(o *Options) { o.DisableCPUFallback = true })
	_, err = s2.Train(udf2, table2)
	if !errors.Is(err, fault.ErrWorkerQuarantined) {
		t.Fatalf("DisableCPUFallback: got %v, want ErrWorkerQuarantined", err)
	}
	if !errors.Is(err, fault.ErrVMTrap) {
		t.Errorf("quarantine error should also wrap the underlying VM trap, got %v", err)
	}
	if s2.Pool().PinnedCount() != 0 {
		t.Error("failed run leaked page pins")
	}
	// The system stays usable after a clean failure: detach faults and
	// train again.
	s2.Opts.Faults = nil
	s2.DB.Pool.SetFaults(nil)
	res2, err := s2.Train(udf2, table2)
	if err != nil {
		t.Fatalf("system unusable after clean failure: %v", err)
	}
	if res2.Degraded {
		t.Error("fault-free retrain should not be degraded")
	}
}

// TestEpochTimeoutDegradesToCPU: an immediately-expired epoch budget
// surfaces ErrEpochTimeout, which counts as an accelerator fault and
// degrades the run to the CPU from epoch 0.
func TestEpochTimeoutDegradesToCPU(t *testing.T) {
	baseline := trainConfigured(t, ftWorkload, ftScale, ftMergeCoef, ftEpochs, 4, false)

	s, udf, table := ftSystem(t, func(o *Options) { o.EpochTimeout = time.Nanosecond })
	res, err := s.Train(udf, table)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Degraded || res.DegradedAtEpoch != 0 {
		t.Fatalf("want Degraded at epoch 0, got %+v", res)
	}
	if got := obsCount(t, s, obs.RuntimeEpochTimeout); got == 0 {
		t.Error("no epoch timeouts recorded")
	}
	if s.Pool().PinnedCount() != 0 {
		t.Error("leaked page pins")
	}
	tolCompare(t, "timeout fallback", res.Model, baseline.Model, 1e-2)

	s2, udf2, table2 := ftSystem(t,
		func(o *Options) { o.EpochTimeout = time.Nanosecond },
		func(o *Options) { o.DisableCPUFallback = true })
	_, err = s2.Train(udf2, table2)
	if !errors.Is(err, fault.ErrEpochTimeout) {
		t.Fatalf("DisableCPUFallback: got %v, want ErrEpochTimeout", err)
	}
	if s2.Pool().PinnedCount() != 0 {
		t.Error("failed run leaked page pins")
	}
}

// TestClusterDownDegradesToCPU: an analytic-cluster failure before the
// first epoch degrades the whole run to the CPU path.
func TestClusterDownDegradesToCPU(t *testing.T) {
	baseline := trainConfigured(t, ftWorkload, ftScale, ftMergeCoef, ftEpochs, 4, false)

	mkFaults := func(o *Options) {
		o.Faults = fault.New(fault.Config{Seed: 3, Rates: rate(fault.ClusterDown, 1.0)})
	}
	s, udf, table := ftSystem(t, mkFaults)
	res, err := s.Train(udf, table)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Degraded || res.DegradedAtEpoch != 0 {
		t.Fatalf("want Degraded at epoch 0, got %+v", res)
	}
	tolCompare(t, "cluster-down fallback", res.Model, baseline.Model, 1e-2)

	s2, udf2, table2 := ftSystem(t, mkFaults, func(o *Options) { o.DisableCPUFallback = true })
	_, err = s2.Train(udf2, table2)
	if !errors.Is(err, fault.ErrClusterDown) {
		t.Fatalf("DisableCPUFallback: got %v, want ErrClusterDown", err)
	}
}

// TestStorageFaultIsNotDegradable: persistent disk-read failure is not
// an accelerator fault — the CPU cannot read the table either, so the
// run must fail with the typed I/O error instead of degrading.
func TestStorageFaultIsNotDegradable(t *testing.T) {
	s, udf, table := ftSystem(t, func(o *Options) {
		o.Faults = fault.New(fault.Config{
			Seed:              9,
			Rates:             rate(fault.PoolRead, 1.0),
			TransientAttempts: -1,
		})
	})
	// The injected read faults begin once the deployed pages age out —
	// force cold reads so the first epoch hits the disk path.
	if err := s.DropCaches(); err != nil {
		t.Fatal(err)
	}
	_, err := s.Train(udf, table)
	if err == nil {
		t.Fatal("persistent read faults must fail the run")
	}
	if !errors.Is(err, fault.ErrIOTransient) {
		t.Fatalf("got %v, want ErrIOTransient", err)
	}
	if s.Pool().PinnedCount() != 0 {
		t.Error("failed run leaked page pins")
	}
}

// TestLatencySpikesChargeSimulatedTime: injected latency spikes slow the
// modeled I/O clock but never change the trained model.
func TestLatencySpikesChargeSimulatedTime(t *testing.T) {
	baseline := trainConfigured(t, ftWorkload, ftScale, ftMergeCoef, ftEpochs, 4, false)

	s, udf, table := ftSystem(t, func(o *Options) {
		o.Faults = fault.New(fault.Config{
			Seed:            31,
			Rates:           rate(fault.PoolLatency, 0.5),
			LatencySpikeSec: 5e-3,
		})
	})
	if err := s.DropCaches(); err != nil {
		t.Fatal(err)
	}
	res, err := s.Train(udf, table)
	if err != nil {
		t.Fatal(err)
	}
	if res.Degraded {
		t.Fatal("latency spikes must not degrade the run")
	}
	if res.Pool.IOSeconds <= baseline.Pool.IOSeconds {
		t.Errorf("spiked IOSeconds %v not above baseline %v", res.Pool.IOSeconds, baseline.Pool.IOSeconds)
	}
	for i := range res.Model {
		if math.Float32bits(res.Model[i]) != math.Float32bits(baseline.Model[i]) {
			t.Fatalf("model[%d] changed under latency spikes", i)
		}
	}
}
