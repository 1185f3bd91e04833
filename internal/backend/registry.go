package backend

import (
	"fmt"
	"sort"

	"dana/internal/cost"
	"dana/internal/hwgen"
	"dana/internal/obs"
)

// Env is the ambient configuration a backend factory closes over — the
// observability registry, the analytic cost parameters, the modeled
// FPGA (for derived design points), and the Sharded segment count.
type Env struct {
	Obs      *obs.Registry
	Cost     cost.Params
	FPGA     hwgen.FPGA
	Segments int // Sharded fan-out (<= 0 = DefaultSegments)
}

// DefaultSegments is the Sharded backend's segment count when Env
// leaves it unset (the paper's Greenplum baseline uses 8 segments).
const DefaultSegments = 8

// registry returns obs handles that are never nil.
func (e Env) obs() *obs.Registry {
	if e.Obs == nil {
		return obs.Noop
	}
	return e.Obs
}

// Factory builds one backend instance for an environment.
type Factory func(env Env) Backend

// Registration ties a dispatch name to a backend factory and, for the
// conformance suite, to the reference semantics the backend promises to
// match. The root TestEveryBackendIsRegistered requires every Backend
// implementation to be built by such a registration.
type Registration struct {
	Name string
	New  Factory
	// Reference computes the expected model for a conformance scenario
	// under this backend's declared semantics (env carries knobs the
	// semantics depend on, e.g. the Sharded segment count); nil means the
	// golden trainer (plain/merged IGD per the scenario spec).
	Reference func(env Env, sc Scenario) ([]float64, error)
}

// Builtins returns the registrations of the backends this package
// implements: the DAnA accelerator pipeline, the TABLA-style
// single-threaded design, the golden float64 CPU trainer, and the
// any-precision weave path. The greenplum package contributes Sharded;
// the integration layer assembles the full dispatcher from both.
func Builtins() []Registration {
	return []Registration{
		{Name: NameAccelerator, New: func(env Env) Backend { return NewAccel(env) }},
		{Name: NameTabla, New: func(env Env) Backend { return NewTabla(env) }},
		{Name: NameCPU, New: func(env Env) Backend { return NewCPU(env) }},
		{Name: NameWeave, New: func(env Env) Backend { return NewWeaveAccel(env) }, Reference: WeaveReference},
	}
}

// Dispatch names. NameAuto is not a backend: it selects cost-based
// dispatch in Options/Config overrides.
const (
	NameAccelerator = "accelerator"
	NameTabla       = "tabla"
	NameCPU         = "cpu"
	NameSharded     = "sharded"
	NameWeave       = "weave"
	NameAuto        = "auto"
)

// Dispatcher holds the registered backends and implements the
// heterogeneous selection policy.
type Dispatcher struct {
	env  Env
	regs []Registration
}

// NewDispatcher snapshots the registrations (sorted by name, so every
// iteration order below is deterministic). Duplicate or anonymous
// registrations are programmer errors and panic.
func NewDispatcher(env Env, regs ...Registration) *Dispatcher {
	sorted := append([]Registration(nil), regs...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Name < sorted[j].Name })
	for i, r := range sorted {
		if r.Name == "" || r.New == nil {
			panic("backend: registration without name or factory")
		}
		if i > 0 && sorted[i-1].Name == r.Name {
			panic("backend: duplicate registration " + r.Name)
		}
	}
	return &Dispatcher{env: env, regs: sorted}
}

// Names lists the registered backend names in sorted order.
func (d *Dispatcher) Names() []string {
	out := make([]string, len(d.regs))
	for i, r := range d.regs {
		out[i] = r.Name
	}
	return out
}

// DarkEnv returns the environment the dispatcher builds backends in,
// with observation off (Obs: obs.Noop): for pricing every candidate as
// Resolve would build it, without a throw-away backend charging a
// counter.
func (d *Dispatcher) DarkEnv() Env {
	env := d.env
	env.Obs = obs.Noop
	return env
}

// Registrations returns the registration snapshot (sorted by name).
func (d *Dispatcher) Registrations() []Registration {
	return append([]Registration(nil), d.regs...)
}

func (d *Dispatcher) lookup(name string) (Registration, bool) {
	for _, r := range d.regs {
		if r.Name == name {
			return r, true
		}
	}
	return Registration{}, false
}

// admissible reports whether the backend's capabilities cover the job's
// class and requested weave-bit window. The bits check is two-sided: a
// full-width backend (MaxBits == 0) cannot honor a k-bit weave request,
// and a weave backend only serves jobs that ask for weave extraction — a
// Bits == 0 job wants the float path and must not be silently rerouted
// through quantization, however cheap the rewoven stream prices.
func admissible(caps Capabilities, job Job) bool {
	if !caps.Supports(job.Class) {
		return false
	}
	if caps.MaxBits == 0 {
		if job.Bits != 0 {
			return false
		}
	} else if job.Bits < caps.MinBits || job.Bits > caps.MaxBits {
		return false
	}
	return true
}

// New instantiates the named backend for the job (the explicit-override
// path). Unknown names fail with ErrUnknownBackend; a backend whose
// capabilities don't cover the job fails with ErrUnsupported.
func (d *Dispatcher) New(name string, job Job) (Backend, Registration, error) {
	be, reg, _, err := d.named(name, job, false)
	return be, reg, err
}

// named is New, optionally widening a job that requests no read
// precision to the named backend's whole window (a no-op for full-width
// backends, whose MaxBits is 0).
func (d *Dispatcher) named(name string, job Job, widen bool) (Backend, Registration, Job, error) {
	reg, ok := d.lookup(name)
	if !ok {
		return nil, Registration{}, job, fmt.Errorf("%w: %q (have %v)", ErrUnknownBackend, name, d.Names())
	}
	be := reg.New(d.env)
	caps := be.Capabilities()
	if widen && job.Bits == 0 {
		job.Bits = caps.MaxBits
	}
	if !admissible(caps, job) {
		return nil, Registration{}, job, fmt.Errorf("%w: backend %q cannot run class=%s bits=%d jobs",
			ErrUnsupported, name, job.Class, job.Bits)
	}
	return be, reg, job, nil
}

// Resolve maps the integration layer's backend override to the backend
// that trains the job, and the job as that backend will run it:
//
//   - "" is the paper path: the Streaming backend whose read window
//     admits the job — the full-width pipeline for Bits 0, the
//     any-precision window for a k-bit request (full-width backends
//     reject k-bit jobs, and vice versa);
//   - NameAuto is cost-based dispatch (Pick);
//   - any other name is an explicit override (New), except that naming
//     a windowed backend without a reduced precision reads its whole
//     window — full-width values through the vertical layout.
func (d *Dispatcher) Resolve(name string, job Job) (Backend, Registration, Job, error) {
	switch name {
	case "":
		for _, reg := range d.regs {
			be := reg.New(d.env)
			if caps := be.Capabilities(); caps.Streaming && admissible(caps, job) {
				return be, reg, job, nil
			}
		}
		return nil, Registration{}, job, fmt.Errorf("%w: no streaming backend for class=%s bits=%d",
			ErrUnsupported, job.Class, job.Bits)
	case NameAuto:
		be, reg, _, err := d.Pick(job)
		return be, reg, job, err
	}
	return d.named(name, job, true)
}

// Pick is the heterogeneous dispatch policy, documented and
// deterministic:
//
//  1. classify — filter to backends whose Capabilities cover the job's
//     workload class and requested weave bits;
//  2. price — ask each survivor for EstimateCost (the internal/cost
//     analytic model, so size decides: tiny jobs amortize no
//     accelerator setup and fall to the CPU, large ones win on the
//     accelerated paths);
//  3. choose — minimum modeled seconds, ties broken by name order.
//
// No admissible backend is ErrUnsupported.
func (d *Dispatcher) Pick(job Job) (Backend, Registration, Cost, error) {
	be, reg, c, ok := d.cheapest(job, nil)
	if !ok {
		return nil, Registration{}, Cost{}, fmt.Errorf("%w: no backend for class=%s", ErrUnsupported, job.Class)
	}
	return be, reg, c, nil
}

// cheapest prices the job on every admissible registration that passes
// keep (nil keeps all) and returns the minimum by modeled seconds, ties
// by name order.
func (d *Dispatcher) cheapest(job Job, keep func(Registration, Capabilities) bool) (best Backend, bestReg Registration, bestCost Cost, found bool) {
	for _, reg := range d.regs {
		be := reg.New(d.env)
		caps := be.Capabilities()
		if (keep != nil && !keep(reg, caps)) || !admissible(caps, job) {
			continue
		}
		c, err := be.EstimateCost(job)
		if err != nil {
			continue
		}
		if !found || c.Seconds < bestCost.Seconds {
			best, bestReg, bestCost, found = be, reg, c, true
		}
	}
	return best, bestReg, bestCost, found
}

// Failover selects the degradation target after backend `failed`
// faulted: among backends declaring Capabilities.Fallback (accelerator-
// independent, reference precision) and admissible for the job, the
// cheapest by modeled cost, ties by name. The failed backend is
// excluded even if it declares Fallback.
func (d *Dispatcher) Failover(job Job, failed string) (Backend, Registration, error) {
	be, reg, _, ok := d.cheapest(job, func(reg Registration, caps Capabilities) bool {
		return reg.Name != failed && caps.Fallback
	})
	if !ok {
		return nil, Registration{}, fmt.Errorf("%w: after %q faulted on class=%s", ErrNoFailover, failed, job.Class)
	}
	return be, reg, nil
}
