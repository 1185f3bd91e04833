package runtime

// The reuse rule: a Train runs on the backend its UDF's last good Train
// on the same registration left configured, checked out for the whole
// run. A Train that fails or degrades returns nothing, a failover target
// is never kept, and concurrent Trains of one UDF never share a backend.

import (
	"errors"
	"math"
	"sync"
	"sync/atomic"
	"testing"

	"dana/internal/backend"
	"dana/internal/fault"
	"dana/internal/greenplum"
	"dana/internal/obs"
)

// backendCounts reads how many backends a System's Trains built and
// reused.
func backendCounts(s *System) (built, reused int64) {
	return s.Obs().Get(obs.RuntimeBackendsBuilt), s.Obs().Get(obs.RuntimeBackendsReused)
}

// TestFailedOrDegradedTrainKeepsNoBackend: under a trap storm a Train
// degrades to the failover backend, and with the fallback off one fails;
// neither leaves a backend kept — the failover target included — so the
// next Train builds one. The Train after that reuses it and trains the
// same bits.
func TestFailedOrDegradedTrainKeepsNoBackend(t *testing.T) {
	s, udf, table := ftSystem(t, func(o *Options) {
		o.Faults = fault.New(fault.Config{Seed: 5, Rates: rate(fault.StriderTrap, 1.0), TransientAttempts: -1})
	})
	step := func(what string, wantBuilt, wantReused int64) {
		t.Helper()
		if built, reused := backendCounts(s); built != wantBuilt || reused != wantReused {
			t.Errorf("%s: %d built, %d reused, want %d and %d", what, built, reused, wantBuilt, wantReused)
		}
		if what != "clean" && len(s.kept) != 0 {
			t.Errorf("%s: %d backends kept", what, len(s.kept))
		}
	}
	res, err := s.Train(udf, table)
	if err != nil || !res.Degraded {
		t.Fatalf("trap storm: %v, degraded=%v; want a degraded run", err, res != nil && res.Degraded)
	}
	step("degraded", 1, 0)
	s.Opts.DisableCPUFallback = true
	if _, err := s.Train(udf, table); !errors.Is(err, fault.ErrWorkerQuarantined) {
		t.Fatalf("trap storm without fallback: %v, want ErrWorkerQuarantined", err)
	}
	step("failed", 2, 0)

	s.Opts.Faults, s.Opts.DisableCPUFallback = nil, false
	s.DB.Pool.SetFaults(nil)
	first, err := s.Train(udf, table)
	if err != nil || first.Degraded {
		t.Fatalf("clean Train: %v", err)
	}
	again, err := s.Train(udf, table)
	if err != nil {
		t.Fatal(err)
	}
	step("clean", 3, 1)
	requireSameModeled(t, "reused backend", again, first, nil)
}

// TestConcurrentTrainsCheckOutTheirBackends: two goroutines train one UDF
// of one System round after round. Every result equals the serial run's,
// and every Train either built its backend or reused one. Under -race
// this is the check-out's publication check.
func TestConcurrentTrainsCheckOutTheirBackends(t *testing.T) {
	s, udf, table := ftSystem(t)
	var want *TrainResult
	for i := 0; i < 2; i++ { // the second is cache-served and reuses, like every concurrent one
		res, err := s.Train(udf, table)
		if err != nil {
			t.Fatal(err)
		}
		want = res
	}
	const rounds = 6
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; round < rounds; round++ {
				res, err := s.Train(udf, table)
				if err != nil {
					t.Errorf("round %d: %v", round, err)
					return
				}
				if res.Engine != want.Engine || res.Epochs != want.Epochs ||
					math.Float64bits(res.SimulatedSeconds) != math.Float64bits(want.SimulatedSeconds) {
					t.Errorf("round %d: modeled outputs differ from the serial run's", round)
				}
				for i := range want.Model {
					if math.Float32bits(res.Model[i]) != math.Float32bits(want.Model[i]) {
						t.Errorf("round %d: model[%d] = %v, serial %v", round, i, res.Model[i], want.Model[i])
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	if built, reused := backendCounts(s); built+reused != 2+2*rounds || reused == 0 {
		t.Errorf("%d built and %d reused over %d Trains", built, reused, 2+2*rounds)
	}
}

// TestKeptTrainBuildsNoBackend: a Train builds only the backend it runs
// on, and a warm Train that checks out its kept backend builds none —
// at full width and at a reduced precision, where the dispatcher chooses
// among the windowed backends. The factories of the System's
// registrations are wrapped to count every instance they build.
func TestKeptTrainBuildsNoBackend(t *testing.T) {
	for _, precision := range []int{0, 8} {
		s, udf, table := ftSystem(t, func(o *Options) { o.Precision = precision })
		var builds atomic.Int64
		var regs []backend.Registration
		for _, reg := range append(backend.Builtins(), greenplum.ShardedRegistration()) {
			regs = append(regs, backend.Registration{Name: reg.Name, New: func(env backend.Env) backend.Backend {
				builds.Add(1)
				return reg.New(env)
			}})
		}
		s.disp = backend.NewDispatcher(backend.Env{Obs: s.obs, Cost: s.Opts.Cost, FPGA: s.Opts.FPGA, Segments: s.Opts.Segments}, regs...)
		dark := builds.Load()
		for i, want := range []int64{1, 0, 0} {
			before := builds.Load()
			if _, err := s.Train(udf, table); err != nil {
				t.Fatal(err)
			}
			if got := builds.Load() - before; got != want {
				t.Errorf("precision %d, Train %d: built %d backends, want %d", precision, i, got, want)
			}
		}
		if dark != int64(len(regs)) {
			t.Errorf("precision %d: the dispatcher built %d dark instances for %d registrations", precision, dark, len(regs))
		}
	}
}
