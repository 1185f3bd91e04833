package server

import (
	"fmt"
	"io"
	"math"
	"sort"
)

// TenantReport aggregates one tenant's slice of a batch.
type TenantReport struct {
	Name          string
	Jobs          int
	Trains        int
	Scores        int
	Errors        int
	Degraded      int
	Reuses        int
	MeanSojourn   float64 // virtual seconds, arrival -> finish
	P99Sojourn    float64
	EngineCycles  int64
	StriderCycles int64
}

// Report is one drained batch: the virtual-time plan plus the
// functional outcomes.
type Report struct {
	Policy      Policy
	Plan        *Plan
	Results     []JobResult // by input spec order
	Jobs        int
	Errors      int
	Degraded    int
	MakespanSec float64
	JobsPerSec  float64 // virtual throughput: jobs / makespan
	MeanSojourn float64
	P50Sojourn  float64
	P99Sojourn  float64
	ReuseRate   float64
	Tenants     []TenantReport // in tenant-name order
}

// percentile reads the q-quantile (0..1) from an unsorted sample by
// nearest-rank; 0 for empty.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[min(max(i, 0), len(s)-1)]
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}

func buildReport(s *Server, plan *Plan, results []JobResult) *Report {
	rep := &Report{
		Policy:      s.cfg.Policy,
		Plan:        plan,
		Results:     results,
		Jobs:        len(results),
		MakespanSec: plan.Makespan,
		ReuseRate:   plan.ReuseRate(),
	}
	if plan.Makespan > 0 {
		rep.JobsPerSec = float64(len(results)) / plan.Makespan
	}
	var all []float64
	byTenant := map[string]*TenantReport{}
	sojournByTenant := map[string][]float64{}
	for i := range results {
		r := &results[i]
		pl := r.Placement
		tr := byTenant[pl.Spec.Tenant]
		if tr == nil {
			tr = &TenantReport{Name: pl.Spec.Tenant}
			byTenant[pl.Spec.Tenant] = tr
		}
		tr.Jobs++
		if pl.Spec.Kind == KindScore {
			tr.Scores++
		} else {
			tr.Trains++
		}
		if r.Err != nil {
			tr.Errors++
			rep.Errors++
		}
		if r.Degraded {
			tr.Degraded++
			rep.Degraded++
		}
		if pl.Reused {
			tr.Reuses++
		}
		tr.EngineCycles += r.EngineCycles
		tr.StriderCycles += r.StriderCycles
		sj := pl.SojournSec()
		all = append(all, sj)
		sojournByTenant[pl.Spec.Tenant] = append(sojournByTenant[pl.Spec.Tenant], sj)
	}
	rep.MeanSojourn = mean(all)
	rep.P50Sojourn = percentile(all, 0.50)
	rep.P99Sojourn = percentile(all, 0.99)
	for _, name := range s.order {
		tr := byTenant[name]
		if tr == nil {
			continue
		}
		tr.MeanSojourn = mean(sojournByTenant[name])
		tr.P99Sojourn = percentile(sojournByTenant[name], 0.99)
		rep.Tenants = append(rep.Tenants, *tr)
	}
	return rep
}

// WriteReport prints the batch summary plus the per-tenant table
// (shared by danasrv, danactl sessions, and danabench -exp tenants).
func WriteReport(w io.Writer, rep *Report) {
	fmt.Fprintf(w, "policy %s: %d jobs, makespan %.3fs (virtual), %.2f jobs/s, reuse rate %.0f%% (%d reuse / %d reconfig)\n",
		rep.Policy, rep.Jobs, rep.MakespanSec, rep.JobsPerSec,
		100*rep.ReuseRate, rep.Plan.Reuses, rep.Plan.Reconfigs)
	fmt.Fprintf(w, "sojourn (virtual): mean %.3fs  p50 %.3fs  p99 %.3fs;  errors %d, degraded %d\n",
		rep.MeanSojourn, rep.P50Sojourn, rep.P99Sojourn, rep.Errors, rep.Degraded)
	fmt.Fprintf(w, "%-10s %5s %6s %6s %5s %5s %6s %10s %10s %14s %14s\n",
		"tenant", "jobs", "trains", "scores", "errs", "degr", "reuse", "mean_s", "p99_s", "engine_cyc", "strider_cyc")
	for _, tr := range rep.Tenants {
		fmt.Fprintf(w, "%-10s %5d %6d %6d %5d %5d %5.0f%% %10.3f %10.3f %14d %14d\n",
			tr.Name, tr.Jobs, tr.Trains, tr.Scores, tr.Errors, tr.Degraded,
			100*float64(tr.Reuses)/float64(max1(tr.Jobs)), tr.MeanSojourn, tr.P99Sojourn,
			tr.EngineCycles, tr.StriderCycles)
	}
}

func max1(n int) int {
	if n < 1 {
		return 1
	}
	return n
}
