package backend_test

// Dispatcher decision tests: the heterogeneous selection policy over a
// seeded job matrix (class x size x override). The policy is documented
// on Dispatcher.Pick — classify, price via internal/cost, choose the
// minimum modeled seconds with ties broken by name — and these tests
// pin each clause, recomputing the expected costs straight from
// internal/cost so a drift between EstimateCost and the analytic model
// fails here.

import (
	"errors"
	"testing"

	"dana/internal/backend"
	"dana/internal/cost"
	"dana/internal/hwgen"
)

func newTestDispatcher() (*backend.Dispatcher, backend.Env) {
	env := backend.ConformanceEnv()
	return backend.NewDispatcher(env, allRegistrations()...), env
}

// jobForSeed builds the dispatch job for one scenario seed.
func jobForSeed(t *testing.T, seed int64, env backend.Env) backend.Job {
	t.Helper()
	sc := backend.GenScenario(seed)
	p, err := backend.BuildProgram(sc, env)
	if err != nil {
		t.Fatalf("seed %d: %v", seed, err)
	}
	return backend.JobFor(sc, p)
}

// scaled grows the job by a tuple factor, keeping pages and bytes
// consistent (the size axis of the dispatch matrix).
func scaled(job backend.Job, factor int) backend.Job {
	job.Tuples *= factor
	job.Pages = job.Tuples/8 + 1
	job.DatasetBytes = int64(job.Pages) * int64(job.PageSize)
	return job
}

func coef1(c int) int {
	if c < 1 {
		return 1
	}
	return c
}

// expectedSeconds recomputes each backend's modeled seconds straight
// from internal/cost, mirroring the paper's analytic comparison.
func expectedSeconds(job backend.Job, env backend.Env) map[string]float64 {
	out := map[string]float64{}

	w := job.Workload()
	w.EpochCycles = job.Engine.Estimate(job.Design.Engine).EpochCycles(job.Tuples, coef1(job.MergeCoef), job.Design.Engine.Threads)
	out[backend.NameAccelerator] = cost.DAnA(w, env.Cost, job.Warm).TotalSec

	wt := job.Workload()
	single := job.Design.Engine
	single.Threads = 1
	if td, err := hwgen.TablaDesign(job.Engine, env.FPGA, hwgen.Params{
		PageSize: job.PageSize, MergeCoef: 1, NumTuples: job.Tuples,
	}); err == nil {
		single = td.Engine
	}
	wt.SingleThreadEpochCycles = job.Engine.Estimate(single).EpochCycles(job.Tuples, coef1(job.MergeCoef), 1)
	out[backend.NameTabla] = cost.TABLA(wt, env.Cost, job.Warm).TotalSec

	out[backend.NameCPU] = cost.MADlibPostgres(job.Workload(), env.Cost, job.Warm).TotalSec

	if job.Class != backend.ClassLRMF {
		segs := env.Segments
		if segs <= 0 {
			segs = backend.DefaultSegments
		}
		out[backend.NameSharded] = cost.MADlibGreenplum(job.Workload(), env.Cost, segs, job.Warm).TotalSec
	}
	return out
}

// TestDispatcherCostConsistency: every admissible backend prices jobs
// exactly as internal/cost does, and Pick selects the argmin, across
// the class x size matrix.
func TestDispatcherCostConsistency(t *testing.T) {
	disp, env := newTestDispatcher()
	classSeeds := map[string]int64{"linear": 3, "logistic": 1, "svm": 2, "lrmf": 15}
	for name, seed := range classSeeds {
		for _, factor := range []int{1, 50, 2000} {
			job := scaled(jobForSeed(t, seed, env), factor)
			want := expectedSeconds(job, env)

			for beName, sec := range want {
				be, _, err := disp.New(beName, job)
				if err != nil {
					t.Fatalf("%s x%d: New(%s): %v", name, factor, beName, err)
				}
				c, err := be.EstimateCost(job)
				if err != nil {
					t.Fatalf("%s x%d: EstimateCost(%s): %v", name, factor, beName, err)
				}
				if c.Seconds != sec {
					t.Errorf("%s x%d: %s prices %.9g s, internal/cost says %.9g s",
						name, factor, beName, c.Seconds, sec)
				}
			}

			argmin := ""
			for beName, sec := range want {
				if argmin == "" || sec < want[argmin] || (sec == want[argmin] && beName < argmin) {
					argmin = beName
				}
			}
			_, reg, c, err := disp.Pick(job)
			if err != nil {
				t.Fatalf("%s x%d: Pick: %v", name, factor, err)
			}
			if reg.Name != argmin {
				t.Errorf("%s x%d: Pick chose %s (%.6g s), argmin of internal/cost is %s (%.6g s)",
					name, factor, reg.Name, c.Seconds, argmin, want[argmin])
			}
			if c.Seconds != want[argmin] {
				t.Errorf("%s x%d: Pick cost %.9g s != expected %.9g s", name, factor, c.Seconds, want[argmin])
			}
		}
	}
}

// TestDispatcherDeterministic: same job, same choice — including across
// dispatcher rebuilds with shuffled registration order (NewDispatcher
// sorts by name).
func TestDispatcherDeterministic(t *testing.T) {
	env := backend.ConformanceEnv()
	regs := allRegistrations()
	reversed := make([]backend.Registration, len(regs))
	for i, r := range regs {
		reversed[len(regs)-1-i] = r
	}
	a := backend.NewDispatcher(env, regs...)
	b := backend.NewDispatcher(env, reversed...)

	job := jobForSeed(t, 3, env)
	_, ra, ca, err := a.Pick(job)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		_, rb, cb, err := b.Pick(job)
		if err != nil {
			t.Fatal(err)
		}
		if rb.Name != ra.Name || cb.Seconds != ca.Seconds {
			t.Fatalf("run %d: picked %s/%.9g, first run picked %s/%.9g", i, rb.Name, cb.Seconds, ra.Name, ca.Seconds)
		}
	}
}

// TestDispatcherOverride: the explicit-override path instantiates any
// registered backend by name and fails typed otherwise.
func TestDispatcherOverride(t *testing.T) {
	disp, env := newTestDispatcher()
	job := jobForSeed(t, 3, env)

	for _, name := range disp.Names() {
		j := job
		if caps := mustCaps(disp, name); caps.MaxBits > 0 {
			j.Bits = caps.MaxBits // weave-windowed backends serve only explicit k-bit jobs
		}
		be, reg, err := disp.New(name, j)
		if err != nil {
			t.Fatalf("New(%s): %v", name, err)
		}
		if reg.Name != name || be.Capabilities().Name != name {
			t.Errorf("New(%s) returned registration %q / capabilities %q", name, reg.Name, be.Capabilities().Name)
		}
	}

	if _, _, err := disp.New("gpu", job); !errors.Is(err, backend.ErrUnknownBackend) {
		t.Errorf("New(gpu) = %v, want ErrUnknownBackend", err)
	}

	// The bits window is enforced both ways: a full-width backend cannot
	// honor a k-bit weave request, and the weave backend does not accept
	// full-width jobs (no silent rerouting through quantization).
	kbit := job
	kbit.Bits = 8
	if _, _, err := disp.New(backend.NameAccelerator, kbit); !errors.Is(err, backend.ErrUnsupported) {
		t.Errorf("New(accelerator, 8-bit job) = %v, want ErrUnsupported", err)
	}
	if _, _, err := disp.New(backend.NameWeave, job); !errors.Is(err, backend.ErrUnsupported) {
		t.Errorf("New(weave, full-width job) = %v, want ErrUnsupported", err)
	}

	lrmf := jobForSeed(t, 15, env)
	if _, _, err := disp.New(backend.NameSharded, lrmf); !errors.Is(err, backend.ErrUnsupported) {
		t.Errorf("New(sharded, lrmf job) = %v, want ErrUnsupported", err)
	}
}

// fakeBackend is a stub with a fixed price for tie-break and failover
// policy tests.
type fakeBackend struct {
	caps backend.Capabilities
	sec  float64
}

func (f *fakeBackend) Capabilities() backend.Capabilities { return f.caps }
func (f *fakeBackend) EstimateCost(backend.Job) (backend.Cost, error) {
	return backend.Cost{Seconds: f.sec}, nil
}
func (f *fakeBackend) ModeledSeconds(backend.Job, backend.Run) float64 {
	return f.sec
}
func (f *fakeBackend) Configure(backend.Program) error { return nil }
func (f *fakeBackend) RunEpoch(*backend.Stream) error  { return nil }
func (f *fakeBackend) Model() []float64                { return nil }
func (f *fakeBackend) SetModel([]float64) error        { return nil }

func fakeReg(name string, sec float64, fallback bool) backend.Registration {
	return backend.Registration{
		Name: name,
		New: func(backend.Env) backend.Backend {
			return &fakeBackend{sec: sec, caps: backend.Capabilities{
				Name:          name,
				Classes:       backend.AllClasses(),
				Precision:     backend.PrecisionFloat64,
				BitExactModel: true,
				Fallback:      fallback,
			}}
		},
	}
}

// TestDispatcherTieBreak: equal modeled cost resolves by name order, so
// selection never depends on registration order or map iteration.
func TestDispatcherTieBreak(t *testing.T) {
	env := backend.ConformanceEnv()
	disp := backend.NewDispatcher(env,
		fakeReg("zeta", 1.0, false),
		fakeReg("alpha", 1.0, false),
		fakeReg("mid", 2.0, false),
	)
	_, reg, _, err := disp.Pick(backend.Job{Class: backend.ClassLinear})
	if err != nil {
		t.Fatal(err)
	}
	if reg.Name != "alpha" {
		t.Fatalf("tie resolved to %s, want alpha (name order)", reg.Name)
	}
}

// TestDispatcherFailover: the degradation target is the cheapest
// admissible Fallback backend that is not the one that faulted.
func TestDispatcherFailover(t *testing.T) {
	disp, env := newTestDispatcher()
	job := jobForSeed(t, 3, env)

	_, reg, err := disp.Failover(job, backend.NameAccelerator)
	if err != nil {
		t.Fatal(err)
	}
	if reg.Name != backend.NameCPU {
		t.Fatalf("failover after accelerator chose %s, want cpu (the only Fallback backend)", reg.Name)
	}

	if _, _, err := disp.Failover(job, backend.NameCPU); !errors.Is(err, backend.ErrNoFailover) {
		t.Errorf("failover after cpu = %v, want ErrNoFailover", err)
	}

	// Policy details on fakes: cheapest wins, the failed one is excluded
	// even if it declares Fallback, non-Fallback backends never serve.
	fd := backend.NewDispatcher(env,
		fakeReg("cheap", 0.5, true),
		fakeReg("pricey", 5.0, true),
		fakeReg("fast-but-no-fallback", 0.1, false),
	)
	fjob := backend.Job{Class: backend.ClassLinear}
	_, freg, err := fd.Failover(fjob, "accelerator")
	if err != nil {
		t.Fatal(err)
	}
	if freg.Name != "cheap" {
		t.Fatalf("failover chose %s, want cheap", freg.Name)
	}
	_, freg, err = fd.Failover(fjob, "cheap")
	if err != nil {
		t.Fatal(err)
	}
	if freg.Name != "pricey" {
		t.Fatalf("failover with cheap faulted chose %s, want pricey", freg.Name)
	}
}

// mustCaps returns the named backend's capability declaration without
// dispatch admissibility checks.
func mustCaps(disp *backend.Dispatcher, name string) backend.Capabilities {
	for _, reg := range disp.Registrations() {
		if reg.Name == name {
			return reg.New(backend.ConformanceEnv()).Capabilities()
		}
	}
	panic("unregistered backend " + name)
}
