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
// catalog, buffer pool, record cache, obs registry, and (optionally)
// fault injector — so tenants share nothing a concurrent run could
// race on, and one tenant's trap storm cannot perturb another tenant's
// modeled cycles. Functional configuration reuse is the tenant System's
// too: it keeps the backend its last good Train of a UDF configured, so a
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

	"dana/internal/bufpool"
	"dana/internal/datagen"
	"dana/internal/dsl"
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
	// Seed drives per-tenant dataset generation (every tenant sees the
	// same bytes for the same workload, like shards of one logical
	// catalog).
	Seed          int64
	PageSize      int   // 0 = 32 KB
	PoolBytes     int64 // per-tenant buffer pool frames (0 = 64 MB)
	BatchSlackSec float64
	// Obs receives the server-level tenant.* counters (nil = a fresh
	// enabled registry). Tenant systems always get their own private
	// registries regardless.
	Obs *obs.Registry
}

// udfEntry pins the artifacts of one configuration key on one tenant:
// the registered UDF (renamed to be unique per key) and its table.
type udfEntry struct {
	udfName string
	table   string
}

// tenant is one session principal: a private System plus the server's
// per-tenant instrument handles. Only its execute goroutine touches it
// during a drain.
type tenant struct {
	name string
	sys  *runtime.System
	reg  *obs.Registry

	deployed map[string]*datagen.Dataset // workload -> dataset (scale pinned)
	scales   map[string]float64          // workload -> deployed scale
	udfs     map[string]udfEntry         // config key -> artifacts
	models   map[string][]float32        // config key -> last trained model

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

	mu       sync.Mutex // guards pending, planner state, estimator
	est      *costEstimator
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
// buffer pool, optional fault injector), the shared cost estimator,
// and the per-tenant counter handles in the server registry (resolved
// here, at setup time, per the obsguard rule).
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
	reg := cfg.Obs
	if reg == nil {
		reg = obs.New()
	}
	s := &Server{
		cfg:     cfg,
		env:     env,
		reg:     reg,
		est:     newCostEstimator(env),
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
			PageSize:  cfg.PageSize,
			PoolBytes: cfg.PoolBytes,
			Disk:      bufpool.DefaultDisk(),
			FPGA:      env.FPGA,
			Cost:      env.Cost,
			Obs:       treg,
			Faults:    inj,
		})
		t := &tenant{
			name: tc.Name, sys: sys, reg: treg,
			deployed: map[string]*datagen.Dataset{},
			scales:   map[string]float64{},
			udfs:     map[string]udfEntry{},
			models:   map[string][]float32{},
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

// Submit validates a job (tenant known, workload priceable, quota
// satisfiable) and queues it for the next Drain. A zero ArriveSec gets
// a monotonically increasing virtual arrival, preserving submit order.
// Safe for concurrent use.
func (s *Server) Submit(spec JobSpec) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.submitLocked(spec)
}

func (s *Server) submitLocked(spec JobSpec) error {
	t, ok := s.tenants[spec.Tenant]
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownTenant, spec.Tenant)
	}
	e, err := s.est.Estimate(spec)
	if err != nil {
		return err
	}
	q := s.planCfg.Quotas[spec.Tenant]
	if q.MemBytes > 0 && e.Bytes > q.MemBytes {
		return fmt.Errorf("%w: %s %q needs %d bytes, tenant %q allows %d",
			ErrQuotaImpossible, spec.Kind, spec.Workload, e.Bytes, t.name, q.MemBytes)
	}
	if spec.ArriveSec <= 0 {
		s.arriveAt += 1e-3
		spec.ArriveSec = s.arriveAt
	} else if spec.ArriveSec > s.arriveAt {
		s.arriveAt = spec.ArriveSec
	}
	s.pending = append(s.pending, spec)
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
	plan, err := BuildPlan(specs, s.est, cfg)
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
// isolates the scheduler's contribution).
func (s *Server) Replan(specs []JobSpec, pol Policy) (*Plan, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	cfg := s.planCfg
	cfg.Policy = pol
	return BuildPlan(specs, s.est, cfg)
}

// Run submits specs and drains them as one batch. It is all-or-nothing:
// every spec is validated and queued under one hold of the lock, and
// the first invalid one leaves the queue as Run found it.
func (s *Server) Run(specs []JobSpec) (*Report, error) {
	s.mu.Lock()
	pending, arriveAt := s.pending, s.arriveAt
	for _, sp := range specs {
		if err := s.submitLocked(sp); err != nil {
			s.pending, s.arriveAt = pending, arriveAt
			s.mu.Unlock()
			return nil, err
		}
	}
	s.mu.Unlock()
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
		r.ScoredRows, r.Err = t.score(s, pl)
		r.Backend = "host"
	default:
		var res *runtime.TrainResult
		res, r.Err = t.train(s, pl)
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

// ensureDeployed generates and attaches the workload's dataset on
// first use. The scale is pinned by the first job: the relation name is
// the workload's table name, so one tenant cannot hold the same
// workload at two scales.
func (t *tenant) ensureDeployed(s *Server, spec JobSpec) (*datagen.Dataset, error) {
	scale := spec.Scale
	if scale <= 0 {
		scale = 1
	}
	if ds, ok := t.deployed[spec.Workload]; ok {
		if t.scales[spec.Workload] != scale {
			return nil, fmt.Errorf("server: tenant %q already deployed %q at scale %g (job wants %g)",
				t.name, spec.Workload, t.scales[spec.Workload], scale)
		}
		return ds, nil
	}
	w, err := datagen.ByName(spec.Workload)
	if err != nil {
		return nil, err
	}
	ds, err := datagen.Generate(w, scale, s.cfg.PageSize, s.cfg.Seed)
	if err != nil {
		return nil, err
	}
	if err := t.sys.Deploy(ds); err != nil {
		return nil, err
	}
	t.deployed[spec.Workload] = ds
	t.scales[spec.Workload] = scale
	return ds, nil
}

// udfNameFor makes the registered UDF name unique per configuration
// key (algo names like "logisticR" repeat across workloads).
func udfNameFor(a *dsl.Algo, key string) string {
	return a.Name + "@" + key
}

// ensureUDF registers the configuration's UDF and builds its
// accelerator on first use (the functional analogue of loading the
// configuration). The epoch budget is pinned at first use per key.
func (t *tenant) ensureUDF(s *Server, spec JobSpec, key string) (udfEntry, error) {
	if ue, ok := t.udfs[key]; ok {
		return ue, nil
	}
	ds, err := t.ensureDeployed(s, spec)
	if err != nil {
		return udfEntry{}, err
	}
	merge := s.est.effectiveMerge(spec.Merge)
	a, err := ds.DSLAlgo(merge)
	if err != nil {
		return udfEntry{}, err
	}
	if spec.Epochs > 0 {
		a.SetEpochs(spec.Epochs)
	}
	a.Name = udfNameFor(a, key)
	if _, err := t.sys.Register(a, merge, ds.Tuples); err != nil {
		return udfEntry{}, err
	}
	ue := udfEntry{udfName: a.Name, table: ds.Rel.Name}
	t.udfs[key] = ue
	return ue, nil
}

func (t *tenant) train(s *Server, pl *Placement) (*runtime.TrainResult, error) {
	ue, err := t.ensureUDF(s, pl.Spec, pl.Key)
	if err != nil {
		return nil, err
	}
	res, err := t.sys.Train(ue.udfName, ue.table)
	if err != nil {
		return res, err
	}
	t.models[pl.Key] = res.Model
	return res, nil
}

// score runs a batch-scoring pass over the workload's table with the
// tenant's last trained model for this configuration (zeros before any
// train — deterministic, and honest about a cold model).
func (t *tenant) score(s *Server, pl *Placement) (int, error) {
	ue, err := t.ensureUDF(s, pl.Spec, pl.Key)
	if err != nil {
		return 0, err
	}
	return t.sys.Score(ue.udfName, ue.table, t.models[pl.Key])
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
