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
// The first admitted job of a (tenant, workload, merge) deploys its
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
	"sort"
	"strings"
	"sync"

	"dana/internal/cost"
	"dana/internal/datagen"
	"dana/internal/fault"
	"dana/internal/obs"
	"dana/internal/runtime"
	"dana/internal/storage"
	"dana/internal/workload"
)

// TenantConfig declares one tenant.
type TenantConfig struct {
	Name   string
	Quota  Quota
	Weight float64 // fair-share weight (0 = 1)
	// Faults attaches a seeded chaos schedule to this tenant's private
	// System (nil = healthy). Isolation means a schedule here can
	// degrade only this tenant's jobs.
	Faults *fault.Config
}

// Config parameterizes a Server. Host parallelism is not a setting: a
// tenant system extracts a table its pool holds on min(GOMAXPROCS,
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
	Seed          int64
	PageSize      int   // 0 = 32 KB
	PoolBytes     int64 // each tenant's buffer pool, and the pool its jobs are priced on (0 = 64 MB)
	BatchSlackSec float64
	// Obs receives the server-level tenant.* counters (nil = a fresh
	// enabled registry). Tenant systems always get their own private
	// registries regardless.
	Obs *obs.Registry
}

// ErrPinConflict refuses a job whose scale or epoch budget differs from
// what earlier jobs of its configuration pinned: a tenant holds one table
// per workload and one UDF per configuration.
var ErrPinConflict = errors.New("server: job conflicts with its configuration's pinned scale or epochs")

type dataKey struct {
	workload string
	scale    float64
}

// udfKey is a configuration: the program an instance must have loaded to
// run a job. Training and scoring the same workload share one, which is
// the affinity the sequence-aware policy exploits for mixed traffic.
type udfKey struct {
	workload string
	merge    int
}

// udfEntry is one configuration on one tenant. est carries its key and
// dataset bytes and, once registered, the UDF and table execution runs;
// train and score are the service seconds of each job kind. epochs is
// the budget its UDF trains, which the first admitted train job pins;
// until then it is the budget the first score job named, or def, the
// workload's own.
type udfEntry struct {
	est          Estimate
	train, score float64
	epochs, def  int
	pinned       bool
}

// pin is one change admit made to a tenant's pins, kept so that a
// refused batch can put back what it found.
type pin struct {
	t        *tenant
	k        udfKey
	old      udfEntry
	had      bool // t.udfs held k before
	newScale bool // the change pinned k.workload's scale too
}

func (p pin) restore() {
	if p.had {
		p.t.udfs[p.k] = p.old
	} else {
		delete(p.t.udfs, p.k)
	}
	if p.newScale {
		delete(p.t.scales, p.k.workload)
	}
}

// tenant is one session principal: a private System plus the server's
// per-tenant instrument handles. Submit pins, deploys, registers and
// prices on it under the server lock; a drain's execute goroutine for it
// reads only its placements and models.
type tenant struct {
	name string
	sys  *runtime.System
	reg  *obs.Registry

	scales map[string]float64   // workload -> pinned scale
	udfs   map[udfKey]udfEntry  // configuration -> pins, registration and price
	models map[string][]float32 // config key -> last trained model (execution only)

	cJobs      *obs.Counter
	cTrains    *obs.Counter
	cScores    *obs.Counter
	cErrors    *obs.Counter
	cDegraded  *obs.Counter
	cReuses    *obs.Counter
	cReconfigs *obs.Counter
	cEngine    *obs.Counter
	cStrider   *obs.Counter
	cWaitUs    *obs.Counter
}

// Server is the session layer.
type Server struct {
	cfg Config
	env workload.Env
	reg *obs.Registry

	mu       sync.Mutex // guards pending, planner state, data, sizes and every tenant's scales and udfs
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
// buffer pool, optional fault injector) and the per-tenant counter
// handles in the server registry (resolved here, at setup time, per the
// obsguard rule).
func New(cfg Config) (*Server, error) {
	if len(cfg.Tenants) == 0 {
		return nil, errors.New("server: no tenants configured")
	}
	if cfg.Instances <= 0 {
		cfg.Instances = 2
	}
	if cfg.PageSize <= 0 {
		cfg.PageSize = storage.PageSize32K
	}
	if cfg.PoolBytes <= 0 {
		cfg.PoolBytes = 64 << 20
	}
	env := workload.DefaultEnv()
	env.PageSize = cfg.PageSize
	env.Cost.PoolBytes = cfg.PoolBytes
	reg := cfg.Obs
	if reg == nil {
		reg = obs.New()
	}
	s := &Server{
		cfg:     cfg,
		env:     env,
		reg:     reg,
		data:    map[dataKey]*datagen.Dataset{},
		sizes:   map[dataKey]int64{},
		tenants: map[string]*tenant{},
		keys:    make([]string, cfg.Instances),
		vt:      map[string]float64{},
	}
	quotas := map[string]Quota{}
	weights := map[string]float64{}
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
			PageSize: cfg.PageSize,
			FPGA:     env.FPGA,
			Cost:     env.Cost,
			Obs:      treg,
			Faults:   inj,
		})
		t := &tenant{
			name: tc.Name, sys: sys, reg: treg,
			scales: map[string]float64{},
			udfs:   map[udfKey]udfEntry{},
			models: map[string][]float32{},
		}
		t.cJobs = reg.Counter(obs.TenantCounter(tc.Name, obs.TenantMetricJobs))
		t.cTrains = reg.Counter(obs.TenantCounter(tc.Name, obs.TenantMetricTrains))
		t.cScores = reg.Counter(obs.TenantCounter(tc.Name, obs.TenantMetricScores))
		t.cErrors = reg.Counter(obs.TenantCounter(tc.Name, obs.TenantMetricErrors))
		t.cDegraded = reg.Counter(obs.TenantCounter(tc.Name, obs.TenantMetricDegraded))
		t.cReuses = reg.Counter(obs.TenantCounter(tc.Name, obs.TenantMetricReuses))
		t.cReconfigs = reg.Counter(obs.TenantCounter(tc.Name, obs.TenantMetricReconfigs))
		t.cEngine = reg.Counter(obs.TenantCounter(tc.Name, obs.TenantMetricEngineCycles))
		t.cStrider = reg.Counter(obs.TenantCounter(tc.Name, obs.TenantMetricStriderCycles))
		t.cWaitUs = reg.Counter(obs.TenantCounter(tc.Name, obs.TenantMetricWaitMicros))
		s.tenants[tc.Name] = t
		s.order = append(s.order, tc.Name)
		quotas[tc.Name] = tc.Quota
		weights[tc.Name] = tc.Weight
	}
	sort.Strings(s.order)
	s.planCfg = PlanConfig{
		Instances:     cfg.Instances,
		Policy:        cfg.Policy,
		Cost:          env.Cost,
		BatchSlackSec: cfg.BatchSlackSec,
		Quotas:        quotas,
		Weights:       weights,
	}
	return s, nil
}

// Obs is the server registry carrying the tenant.* counters.
func (s *Server) Obs() *obs.Registry { return s.reg }

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
// tenant counters from registry deltas, so the per-tenant cycle sums
// match the tenant registries exactly (IdentityError).
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
			if res.Degraded && res.FailoverBackend != "" {
				r.Backend = res.FailoverBackend
			}
		}
	}

	r.EngineCycles = t.reg.Get(obs.EngineCycles) - e0
	r.StriderCycles = t.reg.Get(obs.StriderCyclesTotal) - s0

	waitUs := int64(pl.WaitSec() * 1e6)
	t.cJobs.Add(1)
	t.cWaitUs.Add(waitUs)
	t.cEngine.Add(r.EngineCycles)
	t.cStrider.Add(r.StriderCycles)
	if pl.Reused {
		t.cReuses.Add(1)
	} else {
		t.cReconfigs.Add(1)
	}
	if pl.Spec.Kind == KindScore {
		t.cScores.Add(1)
	} else {
		t.cTrains.Add(1)
	}
	if r.Err != nil {
		t.cErrors.Add(1)
	}
	if r.Degraded {
		t.cDegraded.Add(1)
	}
	return r
}

// estimateFunc adapts the server's price lookup to Estimator.
type estimateFunc func(JobSpec) (Estimate, error)

func (f estimateFunc) Estimate(spec JobSpec) (Estimate, error) { return f(spec) }

// key is the configuration a job names.
func (s *Server) key(spec JobSpec) udfKey {
	if spec.Merge <= 0 {
		return udfKey{spec.Workload, s.env.MergeCoef}
	}
	return udfKey{spec.Workload, spec.Merge}
}

// estimate prices an admitted job: a lookup of the configuration its
// tenant registered. The caller holds s.mu.
func (s *Server) estimate(spec JobSpec) (Estimate, error) {
	t, ok := s.tenants[spec.Tenant]
	if !ok {
		return Estimate{}, fmt.Errorf("%w: %q", ErrUnknownTenant, spec.Tenant)
	}
	k := s.key(spec)
	ue, ok := t.udfs[k]
	if !ok {
		return Estimate{}, fmt.Errorf("server: tenant %q admitted no job of %q at merge %d", t.name, k.workload, k.merge)
	}
	e := ue.est
	e.ServiceSec = ue.train
	if spec.Kind == KindScore {
		e.ServiceSec = ue.score
	}
	return e, nil
}

// admit checks a job against its tenant's pins and memory quota and pins
// what it is first to fix: its workload's scale, its configuration and,
// for a train job, the epoch budget. A new configuration's bytes follow
// datagen.Generate's page arithmetic, so a job that could never fit is
// refused before its data exists. p.t is nil when admit changed nothing.
func (s *Server) admit(spec JobSpec) (p pin, err error) {
	t, ok := s.tenants[spec.Tenant]
	if !ok {
		return p, fmt.Errorf("%w: %q", ErrUnknownTenant, spec.Tenant)
	}
	k, scale := s.key(spec), spec.Scale
	if scale <= 0 {
		scale = 1
	}
	have, deployed := t.scales[k.workload]
	if deployed && have != scale {
		return p, fmt.Errorf("%w: tenant %q holds %q at scale %g; job wants %g",
			ErrPinConflict, t.name, k.workload, have, scale)
	}
	ue, had := t.udfs[k]
	p = pin{t: t, k: k, old: ue, had: had, newScale: !deployed}
	if !had {
		w, err := datagen.ByName(k.workload)
		if err != nil {
			return pin{}, err
		}
		if scale > 1 {
			return pin{}, fmt.Errorf("server: scale %g out of (0, 1]", scale)
		}
		ue = udfEntry{epochs: w.Epochs, def: w.Epochs, est: Estimate{Key: fmt.Sprintf("%s/m%d", k.workload, k.merge)}}
		dk := dataKey{k.workload, scale}
		if ue.est.Bytes = s.sizes[dk]; ue.est.Bytes == 0 {
			w.Tuples = w.ScaledTuples(scale)
			ue.est.Bytes = int64(w.PagesAt(s.cfg.PageSize)) * int64(s.cfg.PageSize)
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
	t.udfs[k] = ue
	if !deployed {
		t.scales[k.workload] = scale
	}
	return p, nil
}

// register deploys, registers and prices a pinned configuration unless it
// is registered as pinned: the server generates each dataset once, the
// tenant attaches it and registers the UDF at its epoch budget, building
// its accelerator (the functional analogue of loading the configuration),
// and the backend Train would resolve prices it.
func (s *Server) register(p pin) error {
	t, k := p.t, p.k
	ue := t.udfs[k]
	if ue.est.udf != "" {
		return nil
	}
	dk := dataKey{k.workload, t.scales[k.workload]}
	ds, ok := s.data[dk]
	if !ok {
		w, err := datagen.ByName(k.workload)
		if err != nil {
			return err
		}
		if ds, err = datagen.Generate(w, dk.scale, s.cfg.PageSize, s.cfg.Seed); err != nil {
			return err
		}
		s.data[dk] = ds
	}
	a, err := ds.DSLAlgo(k.merge)
	if err != nil {
		return err
	}
	a.SetEpochs(ue.epochs)
	// Algo names like "logisticR" repeat across workloads, and a
	// configuration registers again when a train job pins another budget.
	a.Name = fmt.Sprintf("%s@%s/e%d", a.Name, ue.est.Key, ue.epochs)
	if _, err := t.sys.Register(a, k.merge, ds.Tuples); err != nil {
		return err
	}
	if p.newScale {
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
	t.udfs[k] = ue
	return nil
}

func (t *tenant) train(pl *Placement) (*runtime.TrainResult, error) {
	res, err := t.sys.Train(pl.udf, pl.table)
	if err != nil {
		return res, err
	}
	t.models[pl.Key] = res.Model
	return res, nil
}

// IdentityError checks the cross-registry sum identity: for engine and
// strider cycles, the server's per-tenant counters must equal the sum
// of the corresponding totals in the per-tenant registries, exactly.
// A violation means charging raced or leaked across tenants.
func (s *Server) IdentityError() error {
	var wrong []string
	var chargedE, chargedS, globalE, globalS int64
	for _, name := range s.order {
		t := s.tenants[name]
		ce := s.reg.Get(obs.TenantCounter(name, obs.TenantMetricEngineCycles))
		cs := s.reg.Get(obs.TenantCounter(name, obs.TenantMetricStriderCycles))
		ge := t.reg.Get(obs.EngineCycles)
		gs := t.reg.Get(obs.StriderCyclesTotal)
		if ce != ge {
			wrong = append(wrong, fmt.Sprintf("%s: tenant engine_cycles %d != registry engine.cycles %d", name, ce, ge))
		}
		if cs != gs {
			wrong = append(wrong, fmt.Sprintf("%s: tenant strider_cycles %d != registry strider.cycles_total %d", name, cs, gs))
		}
		chargedE += ce
		chargedS += cs
		globalE += ge
		globalS += gs
	}
	if chargedE != globalE {
		wrong = append(wrong, fmt.Sprintf("sum engine_cycles %d != global %d", chargedE, globalE))
	}
	if chargedS != globalS {
		wrong = append(wrong, fmt.Sprintf("sum strider_cycles %d != global %d", chargedS, globalS))
	}
	if len(wrong) > 0 {
		return fmt.Errorf("server: per-tenant counter identity violated:\n  %s",
			strings.Join(wrong, "\n  "))
	}
	return nil
}
