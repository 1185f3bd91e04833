package server

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"dana/internal/cost"
)

// fakeEstimator prices synthetic jobs without compiling anything: the
// workload name is the configuration key, service and bytes come from
// fixed tables (defaults applied for unlisted names).
type fakeEstimator struct {
	svc   map[string]float64
	bytes map[string]int64
}

func (f *fakeEstimator) Estimate(spec JobSpec) (Estimate, error) {
	svc, ok := f.svc[spec.Workload]
	if !ok {
		svc = 1.0
	}
	b, ok := f.bytes[spec.Workload]
	if !ok {
		b = 1 << 20
	}
	return Estimate{Key: spec.Workload, ServiceSec: svc, Bytes: b}, nil
}

func testPlanConfig(tenants []string, instances int) PlanConfig {
	q := map[string]Quota{}
	for _, t := range tenants {
		q[t] = Quota{}
	}
	return PlanConfig{
		Instances: instances,
		Policy:    PolicySequenceAware,
		Cost:      cost.Default(),
		Quotas:    q,
	}
}

// synthLoad builds a seeded adversarial schedule over synthetic keys:
// Poisson arrivals, skewed keys, skewed tenants (tenant 0 floods).
func synthLoad(seed int64, tenants, jobs int, rate float64) ([]JobSpec, []string) {
	rng := rand.New(rand.NewSource(seed))
	names := make([]string, tenants)
	for i := range names {
		names[i] = fmt.Sprintf("t%02d", i)
	}
	specs := make([]JobSpec, jobs)
	now := 0.0
	for j := range specs {
		now += rng.ExpFloat64() / rate
		ti := 0
		if rng.Float64() > 0.5 { // tenant 0 gets half the traffic
			ti = rng.Intn(tenants)
		}
		specs[j] = JobSpec{
			Tenant:    names[ti],
			Workload:  fmt.Sprintf("key%d", rng.Intn(3)),
			ArriveSec: now,
		}
	}
	return specs, names
}

func TestPlanDeterminism(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		specs, names := synthLoad(seed, 4, 60, 8)
		cfg := testPlanConfig(names, 3)
		cfg.Quotas[names[0]] = Quota{MemBytes: 4 << 20, MaxInFlight: 2}
		a, err := BuildPlan(specs, &fakeEstimator{}, cfg)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		b, err := BuildPlan(specs, &fakeEstimator{}, cfg)
		if err != nil {
			t.Fatalf("seed %d replay: %v", seed, err)
		}
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("seed %d: plans differ between identical replays", seed)
		}
	}
}

// TestAdmissionQuotaProperty sweeps seeded adversarial arrival orders
// and asserts, at every placement instant, that no tenant's running
// set ever exceeds its memory or VM quota.
func TestAdmissionQuotaProperty(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		specs, names := synthLoad(seed, 3, 80, 16)
		cfg := testPlanConfig(names, 4)
		est := &fakeEstimator{
			svc:   map[string]float64{"key0": 0.5, "key1": 1.5, "key2": 0.2},
			bytes: map[string]int64{"key0": 3 << 20, "key1": 1 << 20, "key2": 2 << 20},
		}
		for _, n := range names {
			cfg.Quotas[n] = Quota{MemBytes: 4 << 20, MaxInFlight: 2}
		}
		plan, err := BuildPlan(specs, est, cfg)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if len(plan.Placements) != len(specs) {
			t.Fatalf("seed %d: %d placed of %d", seed, len(plan.Placements), len(specs))
		}
		for _, pl := range plan.Placements {
			var bytes int64
			jobs := 0
			for _, other := range plan.Placements {
				if other.Spec.Tenant != pl.Spec.Tenant {
					continue
				}
				if other.StartSec <= pl.StartSec && pl.StartSec < other.FinishSec {
					bytes += other.EstBytes
					jobs++
				}
			}
			q := cfg.Quotas[pl.Spec.Tenant]
			if bytes > q.MemBytes {
				t.Fatalf("seed %d: tenant %s holds %d bytes at t=%.3f (quota %d)",
					seed, pl.Spec.Tenant, bytes, pl.StartSec, q.MemBytes)
			}
			if jobs > q.MaxInFlight {
				t.Fatalf("seed %d: tenant %s runs %d jobs at t=%.3f (quota %d)",
					seed, pl.Spec.Tenant, jobs, pl.StartSec, q.MaxInFlight)
			}
			if pl.StartSec < pl.Spec.ArriveSec {
				t.Fatalf("seed %d: job %d starts before it arrives", seed, pl.Seq)
			}
		}
	}
}

// TestNoStarvation floods tenant a with same-key jobs while tenant b
// submits one job of a different configuration: fair-share plus the
// bounded affinity slack must serve b within a couple of service times,
// not after the flood.
func TestNoStarvation(t *testing.T) {
	var specs []JobSpec
	for i := 0; i < 50; i++ {
		specs = append(specs, JobSpec{Tenant: "a", Workload: "hot"})
	}
	specs = append(specs, JobSpec{Tenant: "b", Workload: "rare"})
	cfg := testPlanConfig([]string{"a", "b"}, 1)
	est := &fakeEstimator{svc: map[string]float64{"hot": 1, "rare": 1}}
	plan, err := BuildPlan(specs, est, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b := plan.BySeq[len(specs)-1]
	bound := 2 * (1 + cfg.Cost.ReconfigureSec)
	if b.StartSec > bound {
		t.Fatalf("tenant b's only job starts at t=%.3f, starvation bound %.3f", b.StartSec, bound)
	}
	// And the flood still benefits from batching: tenant a's jobs after
	// the first mostly reuse the hot configuration.
	if plan.Reuses < 40 {
		t.Fatalf("expected heavy reuse on the flooded key, got %d/%d", plan.Reuses, len(specs))
	}
}

// TestSequenceAwareBeatsReconfigure: across seeds, the sequence-aware
// plan's makespan never exceeds the always-reconfigure plan's, and
// strictly beats it in aggregate.
func TestSequenceAwareBeatsReconfigure(t *testing.T) {
	wins, total := 0, 0
	for seed := int64(1); seed <= 10; seed++ {
		specs, names := synthLoad(seed, 4, 60, 8)
		est := &fakeEstimator{svc: map[string]float64{"key0": 0.3, "key1": 0.4, "key2": 0.5}}
		sa := testPlanConfig(names, 3)
		ar := sa
		ar.Policy = PolicyAlwaysReconfigure
		planSA, err := BuildPlan(specs, est, sa)
		if err != nil {
			t.Fatal(err)
		}
		planAR, err := BuildPlan(specs, est, ar)
		if err != nil {
			t.Fatal(err)
		}
		if planSA.Makespan > planAR.Makespan {
			t.Fatalf("seed %d: sequence-aware makespan %.3f > always-reconfigure %.3f",
				seed, planSA.Makespan, planAR.Makespan)
		}
		if planSA.Makespan < planAR.Makespan {
			wins++
		}
		if planAR.Reuses != 0 {
			t.Fatalf("seed %d: baseline must never reuse, got %d", seed, planAR.Reuses)
		}
		if planSA.Reuses == 0 {
			t.Fatalf("seed %d: sequence-aware found no reuse on a skewed load", seed)
		}
		total++
	}
	if wins < total/2 {
		t.Fatalf("sequence-aware strictly beat the baseline on only %d/%d seeds", wins, total)
	}
}

func TestPlanCarryOver(t *testing.T) {
	est := &fakeEstimator{}
	cfg := testPlanConfig([]string{"a"}, 1)
	p1, err := BuildPlan([]JobSpec{{Tenant: "a", Workload: "k"}}, est, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if p1.FinalKeys[0] != "k" {
		t.Fatalf("final key = %q, want k", p1.FinalKeys[0])
	}
	// A second batch starting with the carried key reuses immediately.
	cfg.InitialKeys = p1.FinalKeys
	cfg.InitialVT = p1.FinalVT
	p2, err := BuildPlan([]JobSpec{{Tenant: "a", Workload: "k"}}, est, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if p2.Reuses != 1 {
		t.Fatalf("carried configuration not reused: %+v", p2.Placements[0])
	}
}

// TestPlanAdmitsAJobAtItsQuota: Quota.MemBytes is a bound a job may
// meet. A job whose estimate is exactly the quota is planned and placed;
// one byte more is ErrQuotaImpossible.
func TestPlanAdmitsAJobAtItsQuota(t *testing.T) {
	const quota = 4 << 20
	est := &fakeEstimator{bytes: map[string]int64{"exact": quota, "over": quota + 1}}
	cfg := testPlanConfig([]string{"a"}, 1)
	cfg.Quotas["a"] = Quota{MemBytes: quota}
	p, err := BuildPlan([]JobSpec{{Tenant: "a", Workload: "exact"}, {Tenant: "a", Workload: "exact"}}, est, cfg)
	if err != nil {
		t.Fatalf("a job at its tenant's quota: %v", err)
	}
	if len(p.Placements) != 2 {
		t.Fatalf("%d of 2 jobs at the quota placed", len(p.Placements))
	}
	if _, err := BuildPlan([]JobSpec{{Tenant: "a", Workload: "over"}}, est, cfg); !errors.Is(err, ErrQuotaImpossible) {
		t.Fatalf("a job one byte over its tenant's quota: got %v", err)
	}
}

func TestPlanTypedErrors(t *testing.T) {
	est := &fakeEstimator{bytes: map[string]int64{"big": 8 << 30}}
	cfg := testPlanConfig([]string{"a"}, 1)
	if _, err := BuildPlan([]JobSpec{{Tenant: "ghost", Workload: "k"}}, est, cfg); !errors.Is(err, ErrUnknownTenant) {
		t.Fatalf("unknown tenant: got %v", err)
	}
	cfg.Quotas["a"] = Quota{MemBytes: 1 << 20}
	if _, err := BuildPlan([]JobSpec{{Tenant: "a", Workload: "big"}}, est, cfg); !errors.Is(err, ErrQuotaImpossible) {
		t.Fatalf("oversized job: got %v", err)
	}
	if _, err := BuildPlan(nil, est, PlanConfig{}); !errors.Is(err, ErrNoInstances) {
		t.Fatalf("zero instances: got %v", err)
	}
}

// TestPercentileNearestRank: the q-quantile of n values is the
// ⌈q·n⌉-th smallest. The sample holds 1..n in descending order, so the
// expected value is the rank itself.
func TestPercentileNearestRank(t *testing.T) {
	for _, c := range []struct {
		n        int
		p50, p99 float64
	}{
		{1, 1, 1},
		{48, 24, 48},
		{50, 25, 50},
		{70, 35, 70},
		{100, 50, 99},
	} {
		xs := make([]float64, c.n)
		for i := range xs {
			xs[i] = float64(c.n - i)
		}
		if got := percentile(xs, 0.50); got != c.p50 {
			t.Errorf("n=%d: p50 = %v, want %v", c.n, got, c.p50)
		}
		if got := percentile(xs, 0.99); got != c.p99 {
			t.Errorf("n=%d: p99 = %v, want %v", c.n, got, c.p99)
		}
		if got := percentile(xs, 1); got != float64(c.n) {
			t.Errorf("n=%d: p100 = %v, want %d", c.n, got, c.n)
		}
	}
	if got := percentile(nil, 0.99); got != 0 {
		t.Errorf("empty sample: p99 = %v, want 0", got)
	}
}

// planDigest hashes what a plan decides: each placement's Seq,
// Instance, Reused and the bits of its start and finish, then the final
// fair-share clock of every tenant, in name order.
func planDigest(p *Plan, names []string) string {
	h := sha256.New()
	var b [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	for _, pl := range p.Placements {
		put(uint64(pl.Seq))
		put(uint64(pl.Instance))
		if pl.Reused {
			put(1)
		} else {
			put(0)
		}
		put(math.Float64bits(pl.StartSec))
		put(math.Float64bits(pl.FinishSec))
	}
	for _, n := range names {
		put(math.Float64bits(p.FinalVT[n]))
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// TestPlanBitsPinned pins the planner's decisions to the bit: three
// seeded loads with one quota'd tenant and mixed service times, and one
// load drained in two batches through InitialKeys / InitialVT. A change
// to BuildPlan that moves any placement, time or virtual clock fails it.
func TestPlanBitsPinned(t *testing.T) {
	est := &fakeEstimator{
		svc:   map[string]float64{"key0": 0.3, "key1": 1.1, "key2": 0.07},
		bytes: map[string]int64{"key0": 3 << 20, "key1": 1 << 20, "key2": 2 << 20},
	}
	build := func(specs []JobSpec, names []string, carry *Plan) *Plan {
		t.Helper()
		cfg := testPlanConfig(names, 3)
		cfg.Quotas[names[0]] = Quota{MemBytes: 4 << 20, MaxInFlight: 2}
		if carry != nil {
			cfg.InitialKeys, cfg.InitialVT = carry.FinalKeys, carry.FinalVT
		}
		p, err := BuildPlan(specs, est, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	for _, c := range []struct {
		seed int64
		want string
	}{{1, "b69d9d68827461ce"}, {7, "87cbd82a7a502c5e"}, {42, "2d4afacf225f348e"}} {
		specs, names := synthLoad(c.seed, 4, 60, 8)
		if got := planDigest(build(specs, names, nil), names); got != c.want {
			t.Errorf("seed %d: plan digest %s, want %s", c.seed, got, c.want)
		}
	}
	specs, names := synthLoad(3, 4, 80, 8)
	first := build(specs[:40], names, nil)
	second := build(specs[40:], names, first)
	if got, want := planDigest(first, names)+planDigest(second, names), "0b5897062ce2860c1540ae88fc1fbd7c"; got != want {
		t.Errorf("two-drain carry-over: plan digests %s, want %s", got, want)
	}
}
