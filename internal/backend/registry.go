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

// Registration ties a dispatch name to a backend factory. The root
// TestEveryBackendIsRegistered requires every Backend implementation to
// be built by such a registration.
type Registration struct {
	Name string
	New  Factory
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
		{Name: NameWeave, New: func(env Env) Backend { return NewWeaveAccel(env) }},
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
// heterogeneous selection policy. It answers what a registration can
// run and what it would cost from one dark instance per registration —
// built once, with observation off, and never configured — so it builds
// only the backend it hands out.
type Dispatcher struct {
	env  Env
	regs []Registration
	dark []Backend // dark[i] is regs[i].New in env with Obs: obs.Noop
}

// NewDispatcher snapshots the registrations (sorted by name, so every
// iteration order below is deterministic) and builds their dark
// instances. Duplicate or anonymous registrations are programmer errors
// and panic.
func NewDispatcher(env Env, regs ...Registration) *Dispatcher {
	sorted := append([]Registration(nil), regs...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Name < sorted[j].Name })
	darkEnv := env
	darkEnv.Obs = obs.Noop
	dark := make([]Backend, len(sorted))
	for i, r := range sorted {
		if r.Name == "" || r.New == nil {
			panic("backend: registration without name or factory")
		}
		if i > 0 && sorted[i-1].Name == r.Name {
			panic("backend: duplicate registration " + r.Name)
		}
		dark[i] = r.New(darkEnv)
	}
	return &Dispatcher{env: env, regs: sorted, dark: dark}
}

// Names lists the registered backend names in sorted order.
func (d *Dispatcher) Names() []string {
	out := make([]string, len(d.regs))
	for i, r := range d.regs {
		out[i] = r.Name
	}
	return out
}

// Registrations returns the registration snapshot (sorted by name).
func (d *Dispatcher) Registrations() []Registration {
	return append([]Registration(nil), d.regs...)
}

// lookup returns the index of the named registration, or -1.
func (d *Dispatcher) lookup(name string) int {
	for i, r := range d.regs {
		if r.Name == name {
			return i
		}
	}
	return -1
}

// Build instantiates a registration in the dispatcher's environment: the
// one backend a Resolve that found no kept one trains on.
func (d *Dispatcher) Build(reg Registration) Backend { return reg.New(d.env) }

// EstimateCost prices the job on the named registration's dark instance.
// A backend's estimate reads only the job and its environment's cost
// parameters, so it is the price the instance Build makes would quote.
// Unknown names fail with ErrUnknownBackend.
func (d *Dispatcher) EstimateCost(name string, job Job) (Cost, error) {
	i := d.lookup(name)
	if i < 0 {
		return Cost{}, fmt.Errorf("%w: %q (have %v)", ErrUnknownBackend, name, d.Names())
	}
	return d.dark[i].EstimateCost(job)
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
	i, _, err := d.named(name, job, false)
	if err != nil {
		return nil, Registration{}, err
	}
	return d.Build(d.regs[i]), d.regs[i], nil
}

// named is New's choice, without the build, optionally widening a job
// that requests no read precision to the named backend's whole window (a
// no-op for full-width backends, whose MaxBits is 0).
func (d *Dispatcher) named(name string, job Job, widen bool) (int, Job, error) {
	i := d.lookup(name)
	if i < 0 {
		return -1, job, fmt.Errorf("%w: %q (have %v)", ErrUnknownBackend, name, d.Names())
	}
	caps := d.dark[i].Capabilities()
	if widen && job.Bits == 0 {
		job.Bits = caps.MaxBits
	}
	if !admissible(caps, job) {
		return -1, job, fmt.Errorf("%w: backend %q cannot run class=%s bits=%d jobs",
			ErrUnsupported, name, job.Class, job.Bits)
	}
	return i, job, nil
}

// Resolve maps the integration layer's backend override to the
// registration that trains the job, and the job as that backend will run
// it; it builds nothing (Build does, when the caller keeps no backend of
// the registration):
//
//   - "" is the paper path: the Streaming backend whose read window
//     admits the job — the full-width pipeline for Bits 0, the
//     any-precision window for a k-bit request (full-width backends
//     reject k-bit jobs, and vice versa);
//   - NameAuto is cost-based dispatch (Pick);
//   - any other name is an explicit override (New), except that naming
//     a windowed backend without a reduced precision reads its whole
//     window — full-width values through the vertical layout.
func (d *Dispatcher) Resolve(name string, job Job) (Registration, Job, error) {
	switch name {
	case "":
		for i, be := range d.dark {
			if caps := be.Capabilities(); caps.Streaming && admissible(caps, job) {
				return d.regs[i], job, nil
			}
		}
		return Registration{}, job, fmt.Errorf("%w: no streaming backend for class=%s bits=%d",
			ErrUnsupported, job.Class, job.Bits)
	case NameAuto:
		i, _, ok := d.cheapest(job)
		if !ok {
			return Registration{}, job, errNoBackend(job)
		}
		return d.regs[i], job, nil
	}
	i, job, err := d.named(name, job, true)
	if err != nil {
		return Registration{}, job, err
	}
	return d.regs[i], job, nil
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
// It builds the chosen backend only. No admissible backend is
// ErrUnsupported.
func (d *Dispatcher) Pick(job Job) (Backend, Registration, Cost, error) {
	i, c, ok := d.cheapest(job)
	if !ok {
		return nil, Registration{}, Cost{}, errNoBackend(job)
	}
	return d.Build(d.regs[i]), d.regs[i], c, nil
}

func errNoBackend(job Job) error {
	return fmt.Errorf("%w: no backend for class=%s", ErrUnsupported, job.Class)
}

// cheapest prices the job on the dark instance of every admissible
// registration and returns the index of the minimum by modeled seconds,
// ties by name order.
func (d *Dispatcher) cheapest(job Job) (best int, bestCost Cost, found bool) {
	for i, be := range d.dark {
		if !admissible(be.Capabilities(), job) {
			continue
		}
		c, err := be.EstimateCost(job)
		if err != nil {
			continue
		}
		if !found || c.Seconds < bestCost.Seconds {
			best, bestCost, found = i, c, true
		}
	}
	return best, bestCost, found
}
