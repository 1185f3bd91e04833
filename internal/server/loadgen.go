package server

import (
	"fmt"
	"math/rand"
)

// LoadConfig parameterizes the seeded synthetic many-tenant open-loop
// load: Poisson arrivals in virtual time, a skewed workload mix (so
// configuration affinity exists to exploit), and a train/score blend.
type LoadConfig struct {
	Seed    int64
	Tenants int // named tenant0..tenantN-1
	Jobs    int
	// RateJobsPerSec is the open-loop virtual arrival rate across all
	// tenants (0 = 4 jobs per virtual second).
	RateJobsPerSec float64
	// Workloads are the candidate Table 3 workloads (nil =
	// DefaultLoadWorkloads). Index 0 is the hottest: workload i is
	// drawn with weight 1/(i+1), giving the skew sequence-aware
	// scheduling feeds on.
	Workloads []string
	Scale     float64 // dataset scale per job (0 = 0.002)
	Epochs    int     // training epoch budget (0 = 2)
	// ScoreFraction of jobs are batch-scoring requests against the
	// tenant's last trained model for that workload (0 = 0.25,
	// negative = none).
	ScoreFraction float64
}

// DefaultLoadWorkloads are small real GLM workloads that stay cheap at
// load-generator scales.
func DefaultLoadWorkloads() []string {
	return []string{"Remote Sensing LR", "Remote Sensing SVM", "WLAN", "Patient"}
}

func (c LoadConfig) withDefaults() LoadConfig {
	if c.Tenants <= 0 {
		c.Tenants = 4
	}
	if c.Jobs <= 0 {
		c.Jobs = 32
	}
	if c.RateJobsPerSec <= 0 {
		c.RateJobsPerSec = 4
	}
	if len(c.Workloads) == 0 {
		c.Workloads = DefaultLoadWorkloads()
	}
	if c.Scale <= 0 {
		c.Scale = 0.002
	}
	if c.Epochs <= 0 {
		c.Epochs = 2
	}
	if c.ScoreFraction == 0 {
		c.ScoreFraction = 0.25
	}
	if c.ScoreFraction < 0 {
		c.ScoreFraction = 0
	}
	return c
}

// TenantName is the generated name of tenant i.
func TenantName(i int) string { return fmt.Sprintf("tenant%d", i) }

// GenLoad produces the seeded open-loop job schedule: deterministic in
// the config, with exponential inter-arrival times and a Zipf-ish
// workload draw.
func GenLoad(c LoadConfig) []JobSpec {
	c = c.withDefaults()
	rng := rand.New(rand.NewSource(c.Seed))
	// Cumulative workload weights 1/(i+1).
	cum := make([]float64, len(c.Workloads))
	total := 0.0
	for i := range c.Workloads {
		total += 1 / float64(i+1)
		cum[i] = total
	}
	specs := make([]JobSpec, 0, c.Jobs)
	now := 0.0
	for j := 0; j < c.Jobs; j++ {
		now += rng.ExpFloat64() / c.RateJobsPerSec
		draw := rng.Float64() * total
		wi := 0
		for wi < len(cum)-1 && draw > cum[wi] {
			wi++
		}
		kind := KindTrain
		if rng.Float64() < c.ScoreFraction {
			kind = KindScore
		}
		specs = append(specs, JobSpec{
			Tenant:    TenantName(rng.Intn(c.Tenants)),
			Kind:      kind,
			Workload:  c.Workloads[wi],
			Scale:     c.Scale,
			Epochs:    c.Epochs,
			ArriveSec: now,
		})
	}
	return specs
}

// DefaultTenants builds the tenant set matching a generated load:
// equal weights and a roomy-but-finite quota (two VM slots, 1 GB of
// modeled running bytes).
func DefaultTenants(n int) []TenantConfig {
	if n <= 0 {
		n = 4
	}
	out := make([]TenantConfig, n)
	for i := range out {
		out[i] = TenantConfig{
			Name:  TenantName(i),
			Quota: Quota{MemBytes: 1 << 30, MaxInFlight: 2},
		}
	}
	return out
}
