// Package server is DAnA's multi-tenant session layer: it accepts
// concurrent train/score jobs from named tenants, queues them, admits
// them under per-tenant memory/VM quotas, and schedules a bounded pool
// of accelerator instances across tenants with fair-share,
// sequence-aware placement (ReProVide: reuse a loaded hDFG/Strider
// configuration across similar jobs instead of paying reconfiguration
// each time — see sched.go).
//
// Scheduling runs in virtual (modeled) time against the analytic cost
// model, so placement decisions are a pure function of the seed and
// arrival schedule; the instances exist only in that model. The
// functional runs then execute the plan on one goroutine per tenant,
// each replaying its tenant's jobs in virtual-start order. Isolation is
// structural: every tenant owns a private runtime.System — its own
// catalog, buffer pool frames, record cache, kept backends, obs
// registry, and (optionally) fault injector — so one tenant's trap storm
// cannot perturb another tenant's modeled cycles. Tenants share one
// thing: the server generates each (workload, scale) once, and every
// tenant attaches that one immutable heap. Nothing the server runs
// writes a heap: every tenant's frames refer to the same page images,
// which a mutation would clone rather than write, and a fault injector
// corrupts only a private copy of a page.
//
// The first admitted job of a (tenant, workload) deploys its
// table, registers its UDF on the tenant System, and is priced by the
// EstimateCost of the backend Train resolves for it; every later
// estimate is a lookup. Functional configuration reuse is the tenant
// System's too: it keeps the backend its last good Train of a UDF configured, so a
// tenant's jobs of one program share a machine and never charge another
// tenant's registry. Placement.Reused stays the planner's view of its
// modeled instances. A score job is a host job on the tenant System:
// System.Score decodes the table's heap pages through the walker of the
// UDF's accelerator, so it scores the values extraction hands Train, and
// it pins no frame and charges no modeled cycle or I/O.
package server

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"dana/internal/backend"
	"dana/internal/cost"
	"dana/internal/datagen"
	"dana/internal/fault"
	"dana/internal/obs"
	"dana/internal/runtime"
	"dana/internal/workload"
)

// TenantConfig declares one tenant.
type TenantConfig struct {
	Name  string
	Quota Quota
	// Faults attaches a seeded chaos schedule to this tenant's private
	// System (nil = healthy). Isolation means a schedule here can
	// degrade only this tenant's jobs.
	Faults *fault.Config
}

// Config parameterizes a Server. Everything else is fixed: 32 KB pages,
// a tenantPoolBytes buffer pool per tenant, the batchSlackSec fairness
// bound and equal fair shares. Host parallelism is not a setting either:
// a tenant system extracts a table its pool holds on min(GOMAXPROCS,
// Striders) walkers, which changes wall-clock time only.
type Config struct {
	Tenants []TenantConfig
	// Instances sizes the modeled accelerator pool the planner places
	// jobs on (0 = 2). On the host each tenant gets one goroutine,
	// whatever the pool size.
	Instances int
	Policy    Policy // scheduling policy (default sequence-aware)
	// Seed drives dataset generation: each (workload, scale) is generated
	// once per server, and every tenant attaches the same heap, like
	// shards of one logical catalog.
	Seed int64
}

// tenantPoolBytes is each tenant's buffer pool, and the pool its jobs
// are priced on.
const tenantPoolBytes = 64 << 20

// ErrPinConflict refuses a job whose scale or epoch budget differs from
// what earlier jobs of its workload pinned: a tenant holds one table and
// one UDF per workload.
var ErrPinConflict = errors.New("server: job conflicts with its configuration's pinned scale or epochs")

// ErrBadSpec refuses a job whose scale or arrival no plan can hold: a
// scale outside [0, 1] (0 is full scale), or a NaN or infinite scale or
// arrival.
var ErrBadSpec = errors.New("server: job spec out of range")

type dataKey struct {
	workload string
	scale    float64
}

// udfEntry is one configuration on one tenant: the program an instance
// must have loaded to run a job of its workload, at the environment's
// merge coefficient. Training and scoring the same workload share one,
// which is the affinity the sequence-aware policy exploits for mixed
// traffic. scale is the workload's pinned scale. est carries its key and
// dataset bytes and, once registered, the UDF and table execution runs;
// train and score are the service seconds of each job kind. epochs is
// the budget its UDF trains, which the first admitted train job pins;
// until then it is the budget the first score job named, or def, the
// workload's own.
type udfEntry struct {
	est          Estimate
	scale        float64
	train, score float64
	epochs, def  int
	pinned       bool
}

// pin is one change admit made to a tenant's pins, kept so that a
// refused batch can put back what it found.
type pin struct {
	t        *tenant
	workload string
	old      udfEntry
	had      bool // t.udfs held workload before, so its table is deployed
}

func (p pin) restore() {
	if p.had {
		p.t.udfs[p.workload] = p.old
	} else {
		delete(p.t.udfs, p.workload)
	}
}

// tenant is one session principal: a private System plus the cycles
// its jobs were charged. Submit pins, deploys, registers and prices on it
// under the server lock; a drain's execute goroutine for it reads only
// its placements and models.
type tenant struct {
	name string
	sys  *runtime.System
	reg  *obs.Registry

	udfs   map[string]udfEntry  // workload -> pins, registration and price
	models map[string][]float32 // config key -> last trained model (execution only)

	// engine and strider sum the job results' cycle deltas: the
	// identity's cycle pair (IdentityError).
	engine, strider atomic.Int64
}

// Server is the session layer.
type Server struct {
	cfg Config
	env workload.Env

	mu       sync.Mutex // guards pending, planner state, data, sizes and every tenant's udfs
	data     map[dataKey]*datagen.Dataset
	sizes    map[dataKey]int64 // heap bytes, a pure function of the key
	pending  []JobSpec
	keys     []string           // loaded configuration per instance
	vt       map[string]float64 // fair-share carry-over
	planCfg  PlanConfig
	arriveAt float64 // auto-assigned arrival clock for Submit

	drainMu sync.Mutex // serializes Drain batches

	tenants map[string]*tenant
	order   []string
}

// JobResult pairs a placement with its functional outcome.
type JobResult struct {
	Placement Placement
	Err       error
	Backend   string
	Degraded  bool
	Epochs    int
	Model     []float32
	// EngineCycles / StriderCycles are the job's modeled cycle deltas,
	// read from the tenant registry around the run (so they include
	// fault-path retries, and sum exactly to the tenant totals).
	EngineCycles  int64
	StriderCycles int64
	ScoredRows    int
}

// New builds the server: one private System per tenant (obs registry,
// buffer pool, optional fault injector).
func New(cfg Config) (*Server, error) {
	if len(cfg.Tenants) == 0 {
		return nil, errors.New("server: no tenants configured")
	}
	if cfg.Instances <= 0 {
		cfg.Instances = 2
	}
	env := workload.DefaultEnv()
	env.Cost.PoolBytes = tenantPoolBytes
	s := &Server{
		cfg:     cfg,
		env:     env,
		data:    map[dataKey]*datagen.Dataset{},
		sizes:   map[dataKey]int64{},
		tenants: map[string]*tenant{},
		keys:    make([]string, cfg.Instances),
		vt:      map[string]float64{},
	}
	quotas := map[string]Quota{}
	for _, tc := range cfg.Tenants {
		if tc.Name == "" {
			return nil, errors.New("server: tenant with empty name")
		}
		if _, dup := s.tenants[tc.Name]; dup {
			return nil, fmt.Errorf("server: duplicate tenant %q", tc.Name)
		}
		var inj *fault.Injector
		if tc.Faults != nil {
			fc := *tc.Faults
			inj = fault.New(fc)
		}
		treg := obs.New()
		sys := runtime.New(runtime.Options{
			PageSize: env.PageSize,
			FPGA:     env.FPGA,
			Cost:     env.Cost,
			Obs:      treg,
			Faults:   inj,
		})
		t := &tenant{
			name: tc.Name, sys: sys, reg: treg,
			udfs:   map[string]udfEntry{},
			models: map[string][]float32{},
		}
		s.tenants[tc.Name] = t
		s.order = append(s.order, tc.Name)
		quotas[tc.Name] = tc.Quota
	}
	sort.Strings(s.order)
	s.planCfg = PlanConfig{
		Instances: cfg.Instances,
		Policy:    cfg.Policy,
		Cost:      env.Cost,
		Quotas:    quotas,
	}
	return s, nil
}

// TenantNames lists tenants in name order.
func (s *Server) TenantNames() []string { return append([]string(nil), s.order...) }

// TenantObs is the named tenant's private registry (nil if unknown).
func (s *Server) TenantObs(name string) *obs.Registry {
	if t, ok := s.tenants[name]; ok {
		return t.reg
	}
	return nil
}

// Policy reports the configured scheduling policy.
func (s *Server) Policy() Policy { return s.cfg.Policy }

// Submit validates a job (tenant and workload known, pins matched, quota
// satisfiable) and queues it for the next Drain. The first job of a
// configuration deploys, registers and prices it on its tenant, while a
// drain may be executing. A zero ArriveSec gets a monotonically
// increasing virtual arrival, preserving submit order. Safe for
// concurrent use.
func (s *Server) Submit(spec JobSpec) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.submitLocked([]JobSpec{spec})
}

// submitLocked admits a batch all or nothing: every spec is checked and
// pinned before anything is generated or registered, and a refusal puts
// back the pins and queues nothing. The batch's new configurations are
// then registered and the batch queued. A failed registration is a fault,
// not a refusal: it fails the batch too, and only the configurations
// registered before it keep their pins. The caller holds s.mu.
func (s *Server) submitLocked(specs []JobSpec) error {
	var pins []pin
	var err error
	for i := 0; i < len(specs) && err == nil; i++ {
		var p pin
		if p, err = s.admit(specs[i]); p.t != nil {
			pins = append(pins, p)
		}
	}
	done := 0
	for err == nil && done < len(pins) {
		if err = s.register(pins[done]); err == nil {
			done++
		}
	}
	if err != nil {
		for i := len(pins) - 1; i >= done; i-- {
			pins[i].restore()
		}
		return err
	}
	for _, spec := range specs {
		if spec.ArriveSec <= 0 {
			s.arriveAt += 1e-3
			spec.ArriveSec = s.arriveAt
		} else if spec.ArriveSec > s.arriveAt {
			s.arriveAt = spec.ArriveSec
		}
		s.pending = append(s.pending, spec)
	}
	return nil
}

// Drain plans the pending batch (carrying loaded configurations and
// fair-share clocks over from earlier drains) and executes it, one
// goroutine per tenant with jobs in the batch. Returns nil, nil when
// nothing is pending.
func (s *Server) Drain() (*Report, error) {
	s.drainMu.Lock()
	defer s.drainMu.Unlock()

	s.mu.Lock()
	specs := s.pending
	s.pending = nil
	cfg := s.planCfg
	cfg.InitialKeys = s.keys
	cfg.InitialVT = s.vt
	plan, err := BuildPlan(specs, estimateFunc(s.estimate), cfg)
	if err == nil && plan != nil {
		s.keys = plan.FinalKeys
		s.vt = plan.FinalVT
	}
	s.mu.Unlock()
	if err != nil {
		return nil, err
	}
	if len(specs) == 0 {
		return nil, nil
	}

	results := s.execute(plan)
	return buildReport(s, plan, results), nil
}

// Replan prices an alternative: the same specs planned from a cold pool
// under another policy, without executing anything (per-tenant
// functional outcomes are placement-independent, so comparing makespans
// isolates the scheduler's contribution). It prices each spec at its
// configuration as admitted jobs registered it, and pins and registers
// nothing: a configuration no admitted job named is an error.
func (s *Server) Replan(specs []JobSpec, pol Policy) (*Plan, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	cfg := s.planCfg
	cfg.Policy = pol
	return BuildPlan(specs, estimateFunc(s.estimate), cfg)
}

// Run submits specs and drains them as one batch. It is all-or-nothing:
// the first invalid spec leaves the queue, the arrival clock and every
// tenant's pins as Run found them.
func (s *Server) Run(specs []JobSpec) (*Report, error) {
	s.mu.Lock()
	err := s.submitLocked(specs)
	s.mu.Unlock()
	if err != nil {
		return nil, err
	}
	return s.Drain()
}

// execute runs the plan functionally on one goroutine per tenant, each
// replaying its tenant's placements in placement order, which is the
// tenant's virtual-start order. Results are indexed by input spec order.
func (s *Server) execute(plan *Plan) []JobResult {
	byTenant := map[string][]*Placement{}
	for i := range plan.Placements {
		pl := &plan.Placements[i]
		byTenant[pl.Spec.Tenant] = append(byTenant[pl.Spec.Tenant], pl)
	}
	results := make([]JobResult, len(plan.BySeq))
	var wg sync.WaitGroup
	for _, pls := range byTenant {
		wg.Add(1)
		go func(pls []*Placement) {
			defer wg.Done()
			for _, pl := range pls {
				results[pl.Seq] = s.runJob(pl)
			}
		}(pls)
	}
	wg.Wait()
	return results
}

// runJob executes one placement on its tenant's System and charges the
// tenant's cycle pair from registry deltas, so the pair matches the
// tenant registry exactly (IdentityError).
func (s *Server) runJob(pl *Placement) JobResult {
	t := s.tenants[pl.Spec.Tenant]
	e0 := t.reg.Get(obs.EngineCycles)
	s0 := t.reg.Get(obs.StriderCyclesTotal)

	r := JobResult{Placement: *pl}
	switch pl.Spec.Kind {
	case KindScore:
		// A score job scores with the tenant's last trained model for its
		// configuration: zeros before any train, which is deterministic and
		// honest about a cold model.
		r.ScoredRows, r.Err = t.sys.Score(pl.udf, pl.table, t.models[pl.Key])
		r.Backend = "host"
	default:
		var res *runtime.TrainResult
		res, r.Err = t.train(pl)
		if res != nil {
			r.Backend = res.Backend
			r.Degraded = res.Degraded
			r.Epochs = res.Epochs
			r.Model = res.Model
			if res.Degraded {
				r.Backend = backend.NameCPU
			}
		}
	}

	r.EngineCycles = t.reg.Get(obs.EngineCycles) - e0
	r.StriderCycles = t.reg.Get(obs.StriderCyclesTotal) - s0

	t.engine.Add(r.EngineCycles)
	t.strider.Add(r.StriderCycles)
	return r
}

// estimateFunc adapts the server's price lookup to Estimator.
type estimateFunc func(JobSpec) (Estimate, error)

func (f estimateFunc) Estimate(spec JobSpec) (Estimate, error) { return f(spec) }

// estimate prices an admitted job: a lookup of the configuration its
// tenant registered. The caller holds s.mu.
func (s *Server) estimate(spec JobSpec) (Estimate, error) {
	t, ok := s.tenants[spec.Tenant]
	if !ok {
		return Estimate{}, fmt.Errorf("%w: %q", ErrUnknownTenant, spec.Tenant)
	}
	ue, ok := t.udfs[spec.Workload]
	if !ok {
		return Estimate{}, fmt.Errorf("server: tenant %q admitted no job of %q", t.name, spec.Workload)
	}
	e := ue.est
	e.ServiceSec = ue.train
	if spec.Kind == KindScore {
		e.ServiceSec = ue.score
	}
	return e, nil
}

// admit checks a job against its tenant's pins and memory quota and pins
// what it is first to fix: its workload's configuration and scale and,
// for a train job, the epoch budget. A new configuration's bytes follow
// datagen.Generate's page arithmetic, so a job that could never fit is
// refused before its data exists. p.t is nil when admit changed nothing.
func (s *Server) admit(spec JobSpec) (p pin, err error) {
	t, ok := s.tenants[spec.Tenant]
	if !ok {
		return p, fmt.Errorf("%w: %q", ErrUnknownTenant, spec.Tenant)
	}
	if !finite(spec.Scale) || !finite(spec.ArriveSec) || spec.Scale < 0 || spec.Scale > 1 {
		return p, fmt.Errorf("%w: scale %g, arrival %g", ErrBadSpec, spec.Scale, spec.ArriveSec)
	}
	scale := spec.Scale
	if scale == 0 {
		scale = 1
	}
	ue, had := t.udfs[spec.Workload]
	if had && ue.scale != scale {
		return p, fmt.Errorf("%w: tenant %q holds %q at scale %g; job wants %g",
			ErrPinConflict, t.name, spec.Workload, ue.scale, scale)
	}
	p = pin{t: t, workload: spec.Workload, old: ue, had: had}
	if !had {
		w, err := datagen.ByName(spec.Workload)
		if err != nil {
			return pin{}, err
		}
		ue = udfEntry{scale: scale, epochs: w.Epochs, def: w.Epochs,
			est: Estimate{Key: fmt.Sprintf("%s/m%d", spec.Workload, s.env.MergeCoef)}}
		dk := dataKey{spec.Workload, scale}
		if ue.est.Bytes = s.sizes[dk]; ue.est.Bytes == 0 {
			w.Tuples = w.ScaledTuples(scale)
			ue.est.Bytes = int64(w.PagesAt(s.env.PageSize)) * int64(s.env.PageSize)
			s.sizes[dk] = ue.est.Bytes
		}
		if spec.Epochs > 0 {
			ue.epochs = spec.Epochs // a score job's guess at the budget a train job will pin
		}
	}
	if q := s.planCfg.Quotas[t.name]; q.MemBytes > 0 && ue.est.Bytes > q.MemBytes {
		return pin{}, fmt.Errorf("%w: %s %q needs %d bytes, tenant %q allows %d",
			ErrQuotaImpossible, spec.Kind, spec.Workload, ue.est.Bytes, t.name, q.MemBytes)
	}
	if spec.Kind == KindTrain {
		b := spec.Epochs
		if b <= 0 {
			b = ue.def
		}
		if ue.pinned && b != ue.epochs {
			return pin{}, fmt.Errorf("%w: tenant %q trains %s for %d epochs; job wants %d",
				ErrPinConflict, t.name, ue.est.Key, ue.epochs, b)
		}
		if b != ue.epochs {
			ue.est.udf = "" // registered by score jobs at another budget: register again at b
		}
		ue.epochs, ue.pinned = b, true
	}
	if had && ue == p.old {
		return pin{}, nil
	}
	t.udfs[spec.Workload] = ue
	return p, nil
}

// register deploys, registers and prices a pinned configuration unless it
// is registered as pinned: the server generates each dataset once, the
// tenant attaches it and registers the UDF at its epoch budget, building
// its accelerator (the functional analogue of loading the configuration),
// and the backend Train would resolve prices it.
func (s *Server) register(p pin) error {
	t := p.t
	ue := t.udfs[p.workload]
	if ue.est.udf != "" {
		return nil
	}
	dk := dataKey{p.workload, ue.scale}
	ds, ok := s.data[dk]
	if !ok {
		w, err := datagen.ByName(p.workload)
		if err != nil {
			return err
		}
		if ds, err = datagen.Generate(w, dk.scale, s.env.PageSize, s.cfg.Seed); err != nil {
			return err
		}
		s.data[dk] = ds
	}
	a, err := ds.DSLAlgo(s.env.MergeCoef)
	if err != nil {
		return err
	}
	a.SetEpochs(ue.epochs)
	// Algo names like "logisticR" repeat across workloads, and a
	// configuration registers again when a train job pins another budget.
	a.Name = fmt.Sprintf("%s@%s/e%d", a.Name, ue.est.Key, ue.epochs)
	if _, err := t.sys.Register(a, s.env.MergeCoef, ds.Tuples); err != nil {
		return err
	}
	if !p.had {
		if err := t.sys.Deploy(ds); err != nil {
			return err
		}
	}
	job, c, err := t.sys.EstimateCost(a.Name, ds.Rel.Name)
	if err != nil {
		return err
	}
	ue.est.udf, ue.est.table = a.Name, ds.Rel.Name
	ue.train = cost.ServerServiceSec(c.Seconds, s.env.Cost)
	ue.score = cost.ScoreServiceSec(job.Workload(), s.env.Cost)
	t.udfs[p.workload] = ue
	return nil
}

// finite reports whether x is neither NaN nor infinite.
func finite(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }

func (t *tenant) train(pl *Placement) (*runtime.TrainResult, error) {
	res, err := t.sys.Train(pl.udf, pl.table)
	if err != nil {
		return res, err
	}
	t.models[pl.Key] = res.Model
	return res, nil
}

// IdentityError checks the per-tenant charging identity: for engine and
// strider cycles, the sum of a tenant's job deltas must equal the total
// in its registry, exactly. A violation means charging raced or leaked
// across tenants.
func (s *Server) IdentityError() error {
	var wrong []string
	for _, name := range s.order {
		t := s.tenants[name]
		ce, cs := t.engine.Load(), t.strider.Load()
		ge := t.reg.Get(obs.EngineCycles)
		gs := t.reg.Get(obs.StriderCyclesTotal)
		if ce != ge {
			wrong = append(wrong, fmt.Sprintf("%s: tenant engine_cycles %d != registry engine.cycles %d", name, ce, ge))
		}
		if cs != gs {
			wrong = append(wrong, fmt.Sprintf("%s: tenant strider_cycles %d != registry strider.cycles_total %d", name, cs, gs))
		}
	}
	if len(wrong) > 0 {
		return fmt.Errorf("server: per-tenant counter identity violated:\n  %s",
			strings.Join(wrong, "\n  "))
	}
	return nil
}
