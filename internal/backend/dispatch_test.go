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
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"dana/internal/backend"
	"dana/internal/backend/backendtest"
	"dana/internal/cost"
	"dana/internal/hwgen"
)

func newTestDispatcher() (*backend.Dispatcher, backend.Env) {
	env := backendtest.Env()
	return backend.NewDispatcher(env, allRegistrations()...), env
}

// jobForSeed builds the dispatch job for one scenario seed.
func jobForSeed(t *testing.T, seed int64, env backend.Env) backend.Job {
	t.Helper()
	sc := backendtest.GenScenario(seed)
	p, err := backendtest.BuildProgram(sc, env)
	if err != nil {
		t.Fatalf("seed %d: %v", seed, err)
	}
	return backendtest.JobFor(sc, p)
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
	single := hwgen.TablaDesign(job.Engine, env.FPGA, hwgen.Params{PageSize: job.PageSize, NumTuples: job.Tuples}, job.Design.Engine).Engine
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
	env := backendtest.Env()
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

// fakeBackend is a stub with a fixed price for the tie-break test.
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

func fakeReg(name string, sec float64) backend.Registration {
	return backend.Registration{
		Name: name,
		New: func(backend.Env) backend.Backend {
			return &fakeBackend{sec: sec, caps: backend.Capabilities{
				Name:          name,
				Classes:       backend.AllClasses(),
				Precision:     backend.PrecisionFloat64,
				BitExactModel: true,
			}}
		},
	}
}

// TestDispatcherTieBreak: equal modeled cost resolves by name order, so
// selection never depends on registration order or map iteration.
func TestDispatcherTieBreak(t *testing.T) {
	env := backendtest.Env()
	disp := backend.NewDispatcher(env,
		fakeReg("zeta", 1.0),
		fakeReg("alpha", 1.0),
		fakeReg("mid", 2.0),
	)
	_, reg, _, err := disp.Pick(backend.Job{Class: backend.ClassLinear})
	if err != nil {
		t.Fatal(err)
	}
	if reg.Name != "alpha" {
		t.Fatalf("tie resolved to %s, want alpha (name order)", reg.Name)
	}
}

// mustCaps returns the named backend's capability declaration without
// dispatch admissibility checks.
func mustCaps(disp *backend.Dispatcher, name string) backend.Capabilities {
	for _, reg := range disp.Registrations() {
		if reg.Name == name {
			return reg.New(backendtest.Env()).Capabilities()
		}
	}
	panic("unregistered backend " + name)
}

// counted wraps each registration's factory so that every backend it
// builds is counted in builds.
func counted(builds *atomic.Int64, regs ...backend.Registration) []backend.Registration {
	out := make([]backend.Registration, len(regs))
	for i, reg := range regs {
		out[i] = backend.Registration{Name: reg.Name, New: func(env backend.Env) backend.Backend {
			builds.Add(1)
			return reg.New(env)
		}}
	}
	return out
}

// TestDispatcherBuildsOnlyWhatItReturns: NewDispatcher builds one dark
// instance per registration, once; after that Pick and New build
// exactly the backend they hand out, Resolve and EstimateCost
// build nothing, and pricing on a dark instance equals pricing on the
// backend Pick builds.
func TestDispatcherBuildsOnlyWhatItReturns(t *testing.T) {
	var builds atomic.Int64
	env := backendtest.Env()
	regs := allRegistrations()
	disp := backend.NewDispatcher(env, counted(&builds, regs...)...)
	if got := builds.Load(); got != int64(len(regs)) {
		t.Fatalf("NewDispatcher built %d backends for %d registrations", got, len(regs))
	}
	job := jobForSeed(t, 3, env)
	for _, c := range []struct {
		what  string
		call  func() error
		build int64
	}{
		{"Pick", func() error { _, _, _, err := disp.Pick(job); return err }, 1},
		{"New", func() error { _, _, err := disp.New(backend.NameTabla, job); return err }, 1},
		{"Resolve(\"\")", func() error { _, _, err := disp.Resolve("", job); return err }, 0},
		{"Resolve(auto)", func() error { _, _, err := disp.Resolve(backend.NameAuto, job); return err }, 0},
		{"EstimateCost", func() error { _, err := disp.EstimateCost(backend.NameSharded, job); return err }, 0},
	} {
		before := builds.Load()
		if err := c.call(); err != nil {
			t.Fatalf("%s: %v", c.what, err)
		}
		if got := builds.Load() - before; got != c.build {
			t.Errorf("%s built %d backends, want %d", c.what, got, c.build)
		}
	}
	be, reg, c, err := disp.Pick(job)
	if err != nil {
		t.Fatal(err)
	}
	if live, err := be.EstimateCost(job); err != nil || live.Seconds != c.Seconds {
		t.Errorf("%s prices the job at %v (%v) built, %v dark", reg.Name, live.Seconds, err, c.Seconds)
	}
}

// TestDispatcherConcurrentPricing: the dark instances are shared by
// every caller, so concurrent Pick and EstimateCost on one dispatcher
// must be race-free (run under -race) and agree with a serial run.
func TestDispatcherConcurrentPricing(t *testing.T) {
	disp, env := newTestDispatcher()
	job := jobForSeed(t, 1, env)
	_, want, wantCost, err := disp.Pick(job)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 4; g++ {
		wg.Add(2)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				if _, reg, c, err := disp.Pick(job); err != nil || reg.Name != want.Name || c.Seconds != wantCost.Seconds {
					errs <- fmt.Errorf("concurrent Pick chose %s at %v (%v), serial %s at %v", reg.Name, c.Seconds, err, want.Name, wantCost.Seconds)
					return
				}
			}
		}()
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				if c, err := disp.EstimateCost(want.Name, job); err != nil || c.Seconds != wantCost.Seconds {
					errs <- fmt.Errorf("concurrent EstimateCost read %v (%v), serial %v", c.Seconds, err, wantCost.Seconds)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
