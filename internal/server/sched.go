package server

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"dana/internal/cost"
)

// Policy selects how the planner treats an instance's loaded
// configuration.
type Policy int

const (
	// PolicySequenceAware is the ReProVide-style scheduler: it reuses a
	// loaded configuration whenever the fair-share head matches one,
	// batches near-fair jobs onto already-configured instances when the
	// amortized reconfiguration they defer outweighs the reuse
	// handshake, and picks reconfiguration victims whose loaded
	// configuration has no queued demand.
	PolicySequenceAware Policy = iota
	// PolicyAlwaysReconfigure is the baseline: every placement pays the
	// full reconfiguration charge and placement ignores loaded state.
	PolicyAlwaysReconfigure
)

func (p Policy) String() string {
	if p == PolicyAlwaysReconfigure {
		return "always-reconfigure"
	}
	return "sequence-aware"
}

// ParsePolicy maps CLI spellings onto a Policy.
func ParsePolicy(s string) (Policy, error) {
	switch s {
	case "", "sequence", "sequence-aware", "reuse":
		return PolicySequenceAware, nil
	case "reconfigure", "always-reconfigure", "baseline":
		return PolicyAlwaysReconfigure, nil
	}
	return 0, fmt.Errorf("server: unknown policy %q (want sequence-aware or always-reconfigure)", s)
}

// Quota bounds one tenant's concurrent resource use. Admission holds a
// job in the tenant's queue until the tenant's running set fits.
type Quota struct {
	// MemBytes caps the modeled dataset bytes of the tenant's
	// concurrently running jobs (0 = unlimited). A job whose dataset
	// alone exceeds the cap is rejected outright (typed
	// ErrQuotaImpossible) instead of starving in the queue.
	MemBytes int64
	// MaxInFlight caps the tenant's concurrently running jobs — its
	// accelerator VM slots (0 = unlimited).
	MaxInFlight int
}

// Kind is the job type.
type Kind uint8

const (
	KindTrain Kind = iota
	KindScore
)

func (k Kind) String() string {
	if k == KindScore {
		return "score"
	}
	return "train"
}

// JobSpec is one tenant request: train or score a Table 3 workload at a
// dataset scale, arriving at a virtual (modeled) time. Scheduling runs
// entirely in virtual time against the analytic cost model, so the same
// seed and arrival schedule always produce the same placements no
// matter how the host interleaves the functional runs.
type JobSpec struct {
	Tenant   string
	Kind     Kind
	Workload string  // Table 3 workload name (datagen.ByName)
	Scale    float64 // dataset scale in (0, 1]; 0 = 1
	Epochs   int     // training epoch budget (0 = workload default); score jobs are not held to it
	Merge    int     // merge coefficient (0 = environment default)
	// ArriveSec is the job's virtual arrival time within its batch.
	ArriveSec float64
}

// Estimate prices one job for admission and placement: its
// configuration identity, modeled service seconds on an
// already-configured instance, and modeled dataset bytes. The server's
// estimates also carry the registered UDF and table the job runs, which
// the planner hands to its Placement.
type Estimate struct {
	Key        string
	ServiceSec float64
	Bytes      int64

	udf, table string
}

// Estimator prices jobs for the planner. Implementations need not be
// safe for concurrent use; the planner is single-threaded.
type Estimator interface {
	Estimate(spec JobSpec) (Estimate, error)
}

// Placement is one scheduling decision, all times virtual.
type Placement struct {
	Seq        int // index into the planned spec slice
	Spec       JobSpec
	Key        string // configuration identity placed
	Instance   int
	Reused     bool
	StartSec   float64 // virtual start (configuration load begins)
	ConfigSec  float64 // reconfiguration or reuse-handshake charge
	ServiceSec float64
	FinishSec  float64
	EstBytes   int64

	udf, table string // what execution runs, from the job's Estimate
}

// WaitSec is the virtual queueing delay before the instance was won.
func (pl Placement) WaitSec() float64 { return pl.StartSec - pl.Spec.ArriveSec }

// SojournSec is the virtual end-to-end latency: arrival to finish.
func (pl Placement) SojournSec() float64 { return pl.FinishSec - pl.Spec.ArriveSec }

// PlanConfig parameterizes the planner.
type PlanConfig struct {
	Instances int
	Policy    Policy
	Cost      cost.Params
	// BatchSlackSec bounds affinity batching's fairness debt: a tenant
	// may be served ahead of the fair-share head only while its virtual
	// time exceeds the head's by at most this many modeled seconds, so
	// batching can never starve the head (0 = DefaultBatchSlackSec,
	// negative = batching off).
	BatchSlackSec float64
	Quotas        map[string]Quota   // tenant name -> quota (defines the tenant set)
	Weights       map[string]float64 // fair-share weights (absent/0 = 1)
	// InitialKeys carries loaded configurations across batches: entry i
	// is instance i's resident configuration ("" = blank fabric).
	InitialKeys []string
	// InitialVT carries fair-share virtual time across batches.
	InitialVT map[string]float64
}

// DefaultBatchSlackSec is the affinity-batching fairness bound.
const DefaultBatchSlackSec = 0.25

// Typed scheduler errors.
var (
	ErrUnknownTenant   = errors.New("server: unknown tenant")
	ErrQuotaImpossible = errors.New("server: job exceeds its tenant's memory quota outright")
	ErrNoInstances     = errors.New("server: no accelerator instances configured")
)

// Plan is the full virtual-time schedule of one batch.
type Plan struct {
	// Placements are in virtual placement order, so each tenant's appear
	// in its virtual-start order: the order execution replays them in,
	// which keeps per-job modeled cycles bit-identical to a single-tenant
	// run.
	Placements []Placement
	BySeq      []*Placement // indexed by input spec order
	Makespan   float64      // virtual seconds, 0 for an empty batch
	Reuses     int
	Reconfigs  int
	// FinalKeys / FinalVT are the carry-over state for the next batch.
	FinalKeys []string
	FinalVT   map[string]float64
}

// ReuseRate is the fraction of placements that reused a loaded
// configuration.
func (p *Plan) ReuseRate() float64 {
	if len(p.Placements) == 0 {
		return 0
	}
	return float64(p.Reuses) / float64(len(p.Placements))
}

type planJob struct {
	seq  int
	spec JobSpec
	est  Estimate
}

type planTenant struct {
	name    string
	quota   Quota
	weight  float64
	queue   []*planJob // FIFO
	vt      float64    // accumulated weighted service (fair-share clock)
	inBytes int64      // modeled bytes of running jobs
	inJobs  int
}

type planInstance struct {
	busy      bool
	freeAt    float64
	loadedKey string
	owner     *planTenant // tenant of the running job, for quota release
	bytes     int64
}

// BuildPlan schedules specs over the instance pool in virtual time and
// returns every placement decision. It is a pure function of its
// inputs: no wall clock, no map-order dependence, no randomness — the
// determinism property tests assert replays are identical.
func BuildPlan(specs []JobSpec, est Estimator, cfg PlanConfig) (*Plan, error) {
	if cfg.Instances < 1 {
		return nil, ErrNoInstances
	}
	slack := cfg.BatchSlackSec
	if slack == 0 {
		slack = DefaultBatchSlackSec
	}
	if slack < 0 {
		slack = 0
	}

	order := make([]string, 0, len(cfg.Quotas))
	for name := range cfg.Quotas {
		order = append(order, name)
	}
	sort.Strings(order)
	tenants := make(map[string]*planTenant, len(order))
	for _, name := range order {
		w := cfg.Weights[name]
		if w <= 0 {
			w = 1
		}
		tenants[name] = &planTenant{
			name: name, quota: cfg.Quotas[name], weight: w, vt: cfg.InitialVT[name],
		}
	}

	jobs := make([]*planJob, len(specs))
	for i, sp := range specs {
		t, ok := tenants[sp.Tenant]
		if !ok {
			return nil, fmt.Errorf("%w: %q (job %d)", ErrUnknownTenant, sp.Tenant, i)
		}
		e, err := est.Estimate(sp)
		if err != nil {
			return nil, fmt.Errorf("server: job %d (%s %q for %s): %w", i, sp.Kind, sp.Workload, sp.Tenant, err)
		}
		if t.quota.MemBytes > 0 && e.Bytes > t.quota.MemBytes {
			return nil, fmt.Errorf("%w: job %d needs %d bytes, tenant %q allows %d",
				ErrQuotaImpossible, i, e.Bytes, sp.Tenant, t.quota.MemBytes)
		}
		jobs[i] = &planJob{seq: i, spec: sp, est: e}
	}

	arr := append([]*planJob(nil), jobs...)
	sort.SliceStable(arr, func(i, j int) bool { return arr[i].spec.ArriveSec < arr[j].spec.ArriveSec })

	inst := make([]planInstance, cfg.Instances)
	for i := range inst {
		if i < len(cfg.InitialKeys) {
			inst[i].loadedKey = cfg.InitialKeys[i]
		}
	}
	// pendingByKey counts arrived-but-unplaced jobs per configuration,
	// the demand signal for amortized pricing and victim choice.
	pendingByKey := map[string]int{}

	plan := &Plan{BySeq: make([]*Placement, len(jobs))}
	now, ai, placed := 0.0, 0, 0

	admit := func() {
		for ai < len(arr) && arr[ai].spec.ArriveSec <= now {
			j := arr[ai]
			tenants[j.spec.Tenant].queue = append(tenants[j.spec.Tenant].queue, j)
			pendingByKey[j.est.Key]++
			ai++
		}
	}
	release := func() {
		for i := range inst {
			if inst[i].busy && inst[i].freeAt <= now {
				inst[i].busy = false
				inst[i].owner.inJobs--
				inst[i].owner.inBytes -= inst[i].bytes
				inst[i].owner = nil
				inst[i].bytes = 0
			}
		}
	}
	matchFree := func(key string) int {
		for i := range inst {
			if !inst[i].busy && inst[i].loadedKey == key {
				return i
			}
		}
		return -1
	}
	place := func(t *planTenant, j *planJob, instance int, reuse bool) {
		configSec := cost.ReconfigSec(cfg.Cost, reuse)
		fin := now + configSec + j.est.ServiceSec
		t.queue = t.queue[1:]
		pendingByKey[j.est.Key]--
		t.vt += (configSec + j.est.ServiceSec) / t.weight
		t.inJobs++
		t.inBytes += j.est.Bytes
		inst[instance] = planInstance{
			busy: true, freeAt: fin, loadedKey: j.est.Key, owner: t, bytes: j.est.Bytes,
		}
		plan.Placements = append(plan.Placements, Placement{
			Seq: j.seq, Spec: j.spec, Key: j.est.Key, Instance: instance, Reused: reuse,
			StartSec: now, ConfigSec: configSec, ServiceSec: j.est.ServiceSec,
			FinishSec: fin, EstBytes: j.est.Bytes, udf: j.est.udf, table: j.est.table,
		})
		if reuse {
			plan.Reuses++
		} else {
			plan.Reconfigs++
		}
		if fin > plan.Makespan {
			plan.Makespan = fin
		}
	}

	tryPlace := func() bool {
		anyFree := false
		for i := range inst {
			if !inst[i].busy {
				anyFree = true
				break
			}
		}
		if !anyFree {
			return false
		}
		// Eligible queue heads under quota, in fair-share order (virtual
		// time, ties by tenant name via the sorted walk + stable sort).
		type cand struct {
			t *planTenant
			j *planJob
		}
		var elig []cand
		for _, name := range order {
			t := tenants[name]
			if len(t.queue) == 0 {
				continue
			}
			j := t.queue[0]
			if t.quota.MaxInFlight > 0 && t.inJobs >= t.quota.MaxInFlight {
				continue
			}
			if t.quota.MemBytes > 0 && t.inBytes+j.est.Bytes > t.quota.MemBytes {
				continue
			}
			elig = append(elig, cand{t, j})
		}
		if len(elig) == 0 {
			return false
		}
		sort.SliceStable(elig, func(a, b int) bool { return elig[a].t.vt < elig[b].t.vt })
		head := elig[0]

		if cfg.Policy == PolicySequenceAware {
			// (1) The fair-share head reuses a loaded configuration.
			if i := matchFree(head.j.est.Key); i >= 0 {
				place(head.t, head.j, i, true)
				return true
			}
			// (2) Affinity batching: serve a near-fair tenant whose
			// configuration is already loaded, but only when the
			// amortized reconfiguration this defers for the head's
			// configuration exceeds the reuse handshake it pays.
			upcoming := pendingByKey[head.j.est.Key] - 1
			gain := cost.AmortizedReconfigSec(cfg.Cost, upcoming) - cost.ReconfigSec(cfg.Cost, true)
			if gain > 0 {
				for _, c := range elig[1:] {
					if c.t.vt-head.t.vt > slack {
						break
					}
					if i := matchFree(c.j.est.Key); i >= 0 {
						place(c.t, c.j, i, true)
						return true
					}
				}
			}
		}
		// (3) Reconfigure for the head. Cost-aware victim choice: prefer
		// a free instance whose loaded configuration has no queued
		// demand, so hot configurations stay resident.
		victim := -1
		for i := range inst {
			if inst[i].busy {
				continue
			}
			if victim < 0 {
				victim = i
			}
			if pendingByKey[inst[i].loadedKey] == 0 {
				victim = i
				break
			}
		}
		place(head.t, head.j, victim, false)
		return true
	}

	for placed < len(jobs) {
		admit()
		release()
		if tryPlace() {
			placed++
			continue
		}
		next := math.Inf(1)
		if ai < len(arr) {
			next = arr[ai].spec.ArriveSec
		}
		for i := range inst {
			if inst[i].busy && inst[i].freeAt > now && inst[i].freeAt < next {
				next = inst[i].freeAt
			}
		}
		if math.IsInf(next, 1) || next <= now {
			// Cannot happen for feasible inputs (per-job quota checked at
			// admission); guard so a planner bug fails loudly instead of
			// spinning.
			return nil, fmt.Errorf("server: scheduler stuck at t=%.6f with %d/%d jobs placed",
				now, placed, len(jobs))
		}
		now = next
	}

	for i := range plan.Placements {
		plan.BySeq[plan.Placements[i].Seq] = &plan.Placements[i]
	}
	plan.FinalKeys = make([]string, len(inst))
	for i := range inst {
		plan.FinalKeys[i] = inst[i].loadedKey
	}
	plan.FinalVT = make(map[string]float64, len(order))
	for _, name := range order {
		plan.FinalVT[name] = tenants[name].vt
	}
	return plan, nil
}
