package server

import (
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	hostrt "runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dana/internal/cost"
	"dana/internal/fault"
	"dana/internal/obs"
)

var update = flag.Bool("update", false, "rewrite the golden files under testdata/")

// checkGolden diffs got against testdata/file, which -update rewrites.
// The committed outputs pin placement and every modeled number: they
// must not move unless the model does.
func checkGolden(t *testing.T, file, got string) {
	t.Helper()
	path := filepath.Join("testdata", file)
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("output differs from %s (-update rewrites it):\ngot:\n%s\nwant:\n%s", path, got, want)
	}
}

func smallLoad(seed int64) LoadConfig {
	return LoadConfig{
		Seed: seed, Tenants: 3, Jobs: 12, RateJobsPerSec: 8,
		Workloads: []string{"WLAN", "Patient"},
		Scale:     0.002, Epochs: 1,
	}
}

func newTestServer(t *testing.T, load LoadConfig, instances int) *Server {
	t.Helper()
	srv, err := New(Config{
		Tenants:   DefaultTenants(load.withDefaults().Tenants),
		Instances: instances,
		Seed:      load.Seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	return srv
}

// TestServerRunIdentity drives a seeded mixed train/score load through
// the full stack and checks the batch is clean and the per-tenant
// counter identity holds exactly.
func TestServerRunIdentity(t *testing.T) {
	load := smallLoad(7)
	srv := newTestServer(t, load, 2)
	rep, err := srv.Run(GenLoad(load))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Jobs != load.withDefaults().Jobs {
		t.Fatalf("ran %d jobs, want %d", rep.Jobs, load.withDefaults().Jobs)
	}
	if rep.Errors != 0 {
		for _, r := range rep.Results {
			if r.Err != nil {
				t.Errorf("job %d (%s %s): %v", r.Placement.Seq, r.Placement.Spec.Kind, r.Placement.Spec.Workload, r.Err)
			}
		}
		t.Fatalf("%d job errors on a fault-free load", rep.Errors)
	}
	if err := srv.IdentityError(); err != nil {
		t.Fatal(err)
	}
	if rep.Plan.Reuses == 0 {
		t.Fatal("sequence-aware run found no configuration reuse on a 2-workload load")
	}
	var cyc int64
	for _, r := range rep.Results {
		if r.Placement.Spec.Kind == KindTrain {
			cyc += r.EngineCycles
		}
	}
	if cyc == 0 {
		t.Fatal("train jobs charged zero engine cycles")
	}
}

// TestIdentityErrorCatchesPlantedCharge shows IdentityError can fail:
// after a clean drain, one cycle charged to tenant1's engine (then
// strider) counter alone must be reported with the tenant and the
// counter, and taking it back must clear the report.
func TestIdentityErrorCatchesPlantedCharge(t *testing.T) {
	load := smallLoad(7)
	srv := newTestServer(t, load, 2)
	if _, err := srv.Run(GenLoad(load)); err != nil {
		t.Fatal(err)
	}
	if err := srv.IdentityError(); err != nil {
		t.Fatal(err)
	}
	tn := srv.tenants["tenant1"]
	for _, c := range []struct {
		metric  string
		counter *atomic.Int64
	}{{"engine_cycles", &tn.engine}, {"strider_cycles", &tn.strider}} {
		c.counter.Add(1)
		err := srv.IdentityError()
		c.counter.Add(-1)
		if err == nil {
			t.Fatalf("one planted %s cycle on tenant1 passes IdentityError", c.metric)
		}
		if want := "tenant1: tenant " + c.metric + " "; !strings.Contains(err.Error(), want) {
			t.Errorf("planted %s cycle: %q does not name %q", c.metric, err, want)
		}
		if err := srv.IdentityError(); err != nil {
			t.Fatalf("after the planted %s cycle is taken back: %v", c.metric, err)
		}
	}
}

// TestServerDeterminism replays the same load on a fresh server and
// requires bit-identical outcomes: placements, per-job cycle deltas,
// and model bits.
func TestServerDeterminism(t *testing.T) {
	load := smallLoad(11)
	run := func() *Report {
		srv := newTestServer(t, load, 2)
		rep, err := srv.Run(GenLoad(load))
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	a, b := run(), run()
	for i := range a.Results {
		ra, rb := a.Results[i], b.Results[i]
		if ra.Placement != rb.Placement {
			t.Fatalf("job %d placement differs:\n%+v\n%+v", i, ra.Placement, rb.Placement)
		}
		if ra.EngineCycles != rb.EngineCycles || ra.StriderCycles != rb.StriderCycles {
			t.Fatalf("job %d cycles differ: (%d,%d) vs (%d,%d)",
				i, ra.EngineCycles, ra.StriderCycles, rb.EngineCycles, rb.StriderCycles)
		}
		if len(ra.Model) != len(rb.Model) {
			t.Fatalf("job %d model sizes differ", i)
		}
		for k := range ra.Model {
			if ra.Model[k] != rb.Model[k] {
				t.Fatalf("job %d model bit-differs at %d", i, k)
			}
		}
	}
}

// TestMultiTenantMatchesSingleTenantPath: a tenant's jobs run through
// the shared pool must be bit-identical to the same subsequence run on
// a dedicated single-tenant server — scheduling may reorder across
// tenants but must never perturb anyone's modeled cycles or models.
func TestMultiTenantMatchesSingleTenantPath(t *testing.T) {
	load := smallLoad(13)
	specs := GenLoad(load)
	srv := newTestServer(t, load, 3)
	rep, err := srv.Run(specs)
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.IdentityError(); err != nil {
		t.Fatal(err)
	}

	for _, name := range srv.TenantNames() {
		var sub []JobSpec
		var multi []JobResult
		for i, sp := range specs {
			if sp.Tenant != name {
				continue
			}
			sub = append(sub, sp)
			multi = append(multi, rep.Results[i])
		}
		if len(sub) == 0 {
			continue
		}
		solo, err := New(Config{
			Tenants:   []TenantConfig{{Name: name, Quota: Quota{MemBytes: 1 << 30, MaxInFlight: 2}}},
			Instances: 1,
			Seed:      load.Seed,
		})
		if err != nil {
			t.Fatal(err)
		}
		soloRep, err := solo.Run(sub)
		if err != nil {
			t.Fatal(err)
		}
		for j := range sub {
			mr, sr := multi[j], soloRep.Results[j]
			if mr.EngineCycles != sr.EngineCycles || mr.StriderCycles != sr.StriderCycles {
				t.Fatalf("tenant %s job %d: multi (%d,%d) cycles vs solo (%d,%d)",
					name, j, mr.EngineCycles, mr.StriderCycles, sr.EngineCycles, sr.StriderCycles)
			}
			if mr.Epochs != sr.Epochs || mr.ScoredRows != sr.ScoredRows {
				t.Fatalf("tenant %s job %d: epochs/rows differ", name, j)
			}
			if len(mr.Model) != len(sr.Model) {
				t.Fatalf("tenant %s job %d: model sizes differ", name, j)
			}
			for k := range mr.Model {
				if mr.Model[k] != sr.Model[k] {
					t.Fatalf("tenant %s job %d: model bit-differs at %d", name, j, k)
				}
			}
		}
	}
}

// TestConcurrentSubmit hammers Submit from many goroutines, then drains
// once; every accepted job must be planned and executed.
func TestConcurrentSubmit(t *testing.T) {
	srv := newTestServer(t, LoadConfig{Tenants: 4}, 2)
	var wg sync.WaitGroup
	const per = 4
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for j := 0; j < per; j++ {
				err := srv.Submit(JobSpec{
					Tenant: TenantName(g), Workload: "WLAN", Scale: 0.002, Epochs: 1,
				})
				if err != nil {
					t.Error(err)
				}
			}
		}(g)
	}
	wg.Wait()
	rep, err := srv.Drain()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Jobs != 4*per {
		t.Fatalf("drained %d jobs, want %d", rep.Jobs, 4*per)
	}
	if rep.Errors != 0 {
		t.Fatalf("%d errors", rep.Errors)
	}
	if err := srv.IdentityError(); err != nil {
		t.Fatal(err)
	}
}

// TestRunIsAllOrNothing: a Run whose batch holds an invalid spec queues
// none of it, and leaves what was queued before it, and the arrival
// clock, as it found them.
func TestRunIsAllOrNothing(t *testing.T) {
	srv := newTestServer(t, LoadConfig{Tenants: 1}, 1)
	job := JobSpec{Tenant: TenantName(0), Workload: "WLAN", Scale: 0.002, Epochs: 1}
	if err := srv.Submit(job); err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Run([]JobSpec{job, {Tenant: "ghost", Workload: "WLAN"}}); !errors.Is(err, ErrUnknownTenant) {
		t.Fatalf("Run with an unknown tenant: got %v", err)
	}
	rep, err := srv.Drain()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Jobs != 1 || rep.Results[0].Placement.Spec.ArriveSec != 1e-3 {
		t.Fatalf("drain after a failed Run ran %d jobs (first arriving at %v), want the 1 submitted before it at 0.001",
			rep.Jobs, rep.Results[0].Placement.Spec.ArriveSec)
	}
	if rep, err = srv.Run([]JobSpec{job}); err != nil {
		t.Fatal(err)
	}
	if at := rep.Results[0].Placement.Spec.ArriveSec; at != 2e-3 {
		t.Fatalf("next auto-assigned arrival %v, want 0.002", at)
	}
}

// modeledSnapshot is r's snapshot without what the host clock writes:
// the wall-time counters, the epoch wall histogram, event timestamps and
// the epoch events' wall nanoseconds.
func modeledSnapshot(r *obs.Registry) *obs.Snapshot {
	s := r.Snapshot()
	for _, name := range []string{obs.RuntimeWorkerBusyNs, obs.RuntimeEpochWallNs, obs.RuntimeTrainWallNs} {
		delete(s.Counters, name)
	}
	delete(s.Histograms, obs.HistEpochWallNs)
	for i := range s.Events {
		s.Events[i].AtNs = 0
		if ev := s.Events[i].Name; ev == obs.EvEpoch || ev == obs.EvEpochCached {
			s.Events[i].B = 0
		}
	}
	return s
}

// TestHostInterleavingInvisible: a drain runs up to one job per tenant
// at once, so nothing it reports may depend on how the host interleaves
// them. One seeded load, with tenant0 under danasrv -faulty's persistent
// Strider trap storm, is drained at GOMAXPROCS 1, 2 and 8; every job
// result, the report and every tenant registry must come out equal, and the
// written report equal to testdata/trap_storm.txt.
func TestHostInterleavingInvisible(t *testing.T) {
	load := LoadConfig{
		Seed: 5, Tenants: 4, Jobs: 16, RateJobsPerSec: 16,
		Workloads: []string{"WLAN", "Patient"}, Scale: 0.002, Epochs: 1,
	}
	specs := GenLoad(load)
	type outcome struct {
		Results, Text string
		Report        Report
		Snaps         []*obs.Snapshot
	}
	run := func(procs int) outcome {
		defer hostrt.GOMAXPROCS(hostrt.GOMAXPROCS(procs))
		tcs := DefaultTenants(load.Tenants)
		var rates [fault.NumPoints]float64
		rates[fault.StriderTrap] = 1
		tcs[0].Faults = &fault.Config{Seed: uint64(load.Seed), Rates: rates, TransientAttempts: -1}
		srv, err := New(Config{Tenants: tcs, Instances: 2, Seed: load.Seed})
		if err != nil {
			t.Fatal(err)
		}
		rep, err := srv.Run(specs)
		if err != nil {
			t.Fatal(err)
		}
		if err := srv.IdentityError(); err != nil {
			t.Fatal(err)
		}
		var b strings.Builder
		for _, r := range rep.Results {
			fmt.Fprintf(&b, "%+v err=%v backend=%s degraded=%v epochs=%d engine=%d strider=%d rows=%d model=",
				r.Placement, r.Err, r.Backend, r.Degraded, r.Epochs, r.EngineCycles, r.StriderCycles, r.ScoredRows)
			for _, v := range r.Model {
				fmt.Fprintf(&b, "%08x", math.Float32bits(v))
			}
			b.WriteByte('\n')
		}
		var text strings.Builder
		WriteReport(&text, rep)
		out := outcome{Results: b.String(), Text: text.String(), Report: *rep}
		out.Report.Results = nil
		for _, name := range srv.TenantNames() {
			out.Snaps = append(out.Snaps, modeledSnapshot(srv.TenantObs(name)))
		}
		return out
	}
	want := run(1)
	if !strings.Contains(want.Results, "degraded=true") {
		t.Fatal("the trap storm degraded no job")
	}
	checkGolden(t, "trap_storm.txt", want.Text)
	for _, procs := range []int{2, 8} {
		got := run(procs)
		if got.Results != want.Results {
			t.Fatalf("GOMAXPROCS %d: job results differ from GOMAXPROCS 1:\n%s\nvs\n%s", procs, got.Results, want.Results)
		}
		if !reflect.DeepEqual(got.Report, want.Report) {
			t.Fatalf("GOMAXPROCS %d: report differs from GOMAXPROCS 1", procs)
		}
		for i := range want.Snaps {
			if !reflect.DeepEqual(got.Snaps[i], want.Snaps[i]) {
				t.Fatalf("GOMAXPROCS %d: tenant %d's registry differs from GOMAXPROCS 1:\n%+v\nvs\n%+v", procs, i, got.Snaps[i], want.Snaps[i])
			}
		}
	}
}

// TestDrainCarryOver: a second drain of the same workload must reuse
// the configuration loaded by the first.
func TestDrainCarryOver(t *testing.T) {
	srv := newTestServer(t, LoadConfig{Tenants: 1}, 1)
	job := JobSpec{Tenant: TenantName(0), Workload: "Patient", Scale: 0.002, Epochs: 1}
	r1, err := srv.Run([]JobSpec{job})
	if err != nil {
		t.Fatal(err)
	}
	if r1.Plan.Reuses != 0 {
		t.Fatalf("first drain reused a configuration that was never loaded")
	}
	r2, err := srv.Run([]JobSpec{job})
	if err != nil {
		t.Fatal(err)
	}
	if r2.Plan.Reuses != 1 {
		t.Fatalf("second drain did not reuse the carried configuration: %+v", r2.Plan.Placements[0])
	}
	if err := srv.IdentityError(); err != nil {
		t.Fatal(err)
	}
}

// TestScoreAfterTrainUsesModel: scoring is accepted cold (zero model)
// and after a train; both run to completion over the real table.
func TestScoreAfterTrainUsesModel(t *testing.T) {
	srv := newTestServer(t, LoadConfig{Tenants: 1}, 1)
	tn := TenantName(0)
	rep, err := srv.Run([]JobSpec{
		{Tenant: tn, Kind: KindScore, Workload: "WLAN", Scale: 0.002},
		{Tenant: tn, Kind: KindTrain, Workload: "WLAN", Scale: 0.002, Epochs: 1},
		{Tenant: tn, Kind: KindScore, Workload: "WLAN", Scale: 0.002},
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Errors != 0 {
		for _, r := range rep.Results {
			if r.Err != nil {
				t.Errorf("%v", r.Err)
			}
		}
		t.FailNow()
	}
	if rep.Results[0].ScoredRows == 0 || rep.Results[2].ScoredRows == 0 {
		t.Fatalf("score jobs covered no rows: %d, %d", rep.Results[0].ScoredRows, rep.Results[2].ScoredRows)
	}
	if rep.Results[1].EngineCycles == 0 {
		t.Fatal("train charged no engine cycles")
	}
}

func TestSubmitTypedErrors(t *testing.T) {
	srv, err := New(Config{Tenants: []TenantConfig{{
		Name: "a", Quota: Quota{MemBytes: 1 << 10},
	}}})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Submit(JobSpec{Tenant: "ghost", Workload: "WLAN"}); !errors.Is(err, ErrUnknownTenant) {
		t.Fatalf("unknown tenant: got %v", err)
	}
	if err := srv.Submit(JobSpec{Tenant: "a", Workload: "WLAN", Scale: 0.002}); !errors.Is(err, ErrQuotaImpossible) {
		t.Fatalf("oversized job vs 1 KB quota: got %v", err)
	}
	if err := srv.Submit(JobSpec{Tenant: "a", Workload: "no such workload"}); err == nil {
		t.Fatal("unknown workload accepted")
	}
}

// TestLRMFTrainsThroughServer: a Netflix job is admitted, trains, and is
// planned at exactly what its tenant System's accelerator backend
// charges for it, less the per-query setup the planner prices apart. The
// job was priced before its tenant's pool had read the table, so the
// backend is asked again on a cold pool.
func TestLRMFTrainsThroughServer(t *testing.T) {
	srv := newTestServer(t, LoadConfig{Tenants: 1}, 1)
	rep, err := srv.Run([]JobSpec{{Tenant: TenantName(0), Workload: "Netflix", Scale: 0.002, Epochs: 2}})
	if err != nil {
		t.Fatal(err)
	}
	r := rep.Results[0]
	if r.Err != nil || r.Epochs == 0 || r.EngineCycles == 0 {
		t.Fatalf("Netflix job: err %v, %d epochs, %d engine cycles", r.Err, r.Epochs, r.EngineCycles)
	}
	sys := srv.tenants[TenantName(0)].sys
	if err := sys.DropCaches(); err != nil {
		t.Fatal(err)
	}
	costs, err := sys.EstimateBackends(r.Placement.udf, r.Placement.table)
	if err != nil {
		t.Fatal(err)
	}
	var want float64
	for _, c := range costs {
		if c.Name == r.Backend {
			want = cost.ServerServiceSec(c.Seconds, srv.env.Cost)
		}
	}
	if math.Float64bits(r.Placement.ServiceSec) != math.Float64bits(want) || want == 0 {
		t.Fatalf("planned ServiceSec %v, want %v from backend %q's EstimateCost", r.Placement.ServiceSec, want, r.Backend)
	}
	if err := srv.IdentityError(); err != nil {
		t.Fatal(err)
	}
}

// TestSubmitRefusesPinConflicts: a tenant holds one table and one UDF per
// workload, so a job at another scale or epoch budget than its
// workload's first is refused at Submit, and a Run holding one queues
// nothing.
func TestSubmitRefusesPinConflicts(t *testing.T) {
	srv := newTestServer(t, LoadConfig{Tenants: 1}, 1)
	job := JobSpec{Tenant: TenantName(0), Workload: "WLAN", Scale: 0.002, Epochs: 2}
	if err := srv.Submit(job); err != nil {
		t.Fatal(err)
	}
	more := job
	more.Epochs = 6
	bigger := job
	bigger.Scale = 0.01
	for _, sp := range []JobSpec{more, bigger} {
		if err := srv.Submit(sp); !errors.Is(err, ErrPinConflict) {
			t.Errorf("%s at scale %g, %d epochs after %g and %d: got %v",
				sp.Workload, sp.Scale, sp.Epochs, job.Scale, job.Epochs, err)
		}
		if _, err := srv.Run([]JobSpec{job, sp}); !errors.Is(err, ErrPinConflict) {
			t.Errorf("Run with a pin conflict: got %v", err)
		}
	}
	rep, err := srv.Drain()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Jobs != 1 || rep.Errors != 0 || rep.Results[0].Epochs != 2 {
		t.Fatalf("drained %d jobs (%d errors), first ran %d epochs; want the one submitted job at 2",
			rep.Jobs, rep.Errors, rep.Results[0].Epochs)
	}
}

// TestEpochPinIsTheTrainBudget: only train jobs are held to the epoch
// pin, and they are held to the budget, with 0 read as the workload's
// own. A configuration that score jobs registered trains for the budget
// of its first train job.
func TestEpochPinIsTheTrainBudget(t *testing.T) {
	srv := newTestServer(t, LoadConfig{Tenants: 1}, 1)
	tn := TenantName(0)
	wlan := func(k Kind, epochs int) JobSpec {
		return JobSpec{Tenant: tn, Kind: k, Workload: "WLAN", Scale: 0.002, Epochs: epochs}
	}
	patient := func(epochs int) JobSpec {
		return JobSpec{Tenant: tn, Workload: "Patient", Scale: 0.002, Epochs: epochs}
	}
	if _, err := srv.Run([]JobSpec{wlan(KindScore, 0)}); err != nil {
		t.Fatal(err)
	}
	// WLAN trains 50 epochs by default and Patient 5.
	rep, err := srv.Run([]JobSpec{wlan(KindTrain, 2), wlan(KindScore, 7), wlan(KindTrain, 2), patient(0), patient(5)})
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range []int{2, 0, 2, 5, 5} {
		if r := rep.Results[i]; r.Err != nil || r.Epochs != want {
			t.Errorf("job %d (%s %s, %d epochs asked): ran %d epochs, err %v, want %d",
				i, r.Placement.Spec.Kind, r.Placement.Spec.Workload, r.Placement.Spec.Epochs, r.Epochs, r.Err, want)
		}
	}
	for _, sp := range []JobSpec{wlan(KindTrain, 0), patient(2)} {
		if err := srv.Submit(sp); !errors.Is(err, ErrPinConflict) {
			t.Errorf("%s train at %d epochs after its configuration pinned another budget: got %v", sp.Workload, sp.Epochs, err)
		}
	}
}

// TestRefusalsLeaveNoPins: a job refused for its quota, a Run refused
// for a later spec, and a Replan pin, generate and register nothing, so
// jobs at other scales are admitted after them. A job that could never
// fit its quota is refused from page arithmetic, before its data exists,
// and that arithmetic gives the generated heap's size.
func TestRefusalsLeaveNoPins(t *testing.T) {
	srv, err := New(Config{Tenants: []TenantConfig{{Name: "a", Quota: Quota{MemBytes: 4 << 20}}}})
	if err != nil {
		t.Fatal(err)
	}
	job := func(workload string, scale float64) JobSpec {
		return JobSpec{Tenant: "a", Workload: workload, Scale: scale, Epochs: 1}
	}
	// S/E Logistic at full scale is tens of GB.
	for _, sp := range []JobSpec{job("S/E Logistic", 0), job("WLAN", 1)} {
		if err := srv.Submit(sp); !errors.Is(err, ErrQuotaImpossible) {
			t.Fatalf("%s at scale %g vs a 4 MB quota: got %v", sp.Workload, sp.Scale, err)
		}
	}
	if _, err := srv.Run([]JobSpec{job("Patient", 0.01), {Tenant: "ghost", Workload: "WLAN"}}); !errors.Is(err, ErrUnknownTenant) {
		t.Fatalf("Run with an unknown tenant: got %v", err)
	}
	if _, err := srv.Replan([]JobSpec{job("Blog Feedback", 0.01)}, PolicyAlwaysReconfigure); err == nil {
		t.Fatal("Replan priced a configuration no admitted job named")
	}
	if ta := srv.tenants["a"]; len(srv.data) != 0 || len(ta.udfs) != 0 {
		t.Fatalf("refusals left %d datasets, %d configurations", len(srv.data), len(ta.udfs))
	}
	rep, err := srv.Run([]JobSpec{job("WLAN", 0.002), job("Patient", 0.002), job("Blog Feedback", 0.002)})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Errors != 0 || len(srv.data) != 3 {
		t.Fatalf("%d errors, %d datasets after three admitted workloads", rep.Errors, len(srv.data))
	}
	for k, ds := range srv.data {
		if got, want := srv.sizes[k], ds.Rel.SizeBytes(); got != want {
			t.Errorf("%s at scale %g: admitted at %d bytes, generated %d", k.workload, k.scale, got, want)
		}
	}
}

// TestOutOfRangeScaleRefusedFirst: a scale below 0 or above 1 is
// ErrBadSpec before any pin is read. A negative scale is not full scale
// (0 is), and a scale above 1 on a workload the tenant already holds is
// out of range, not a pin conflict. Neither refusal pins, generates or
// queues anything.
func TestOutOfRangeScaleRefusedFirst(t *testing.T) {
	srv, err := New(Config{Tenants: []TenantConfig{{Name: "a"}}})
	if err != nil {
		t.Fatal(err)
	}
	ta := srv.tenants["a"]
	job := func(scale float64) JobSpec {
		return JobSpec{Tenant: "a", Workload: "Remote Sensing LR", Scale: scale, Epochs: 1}
	}
	state := func() string {
		return fmt.Sprintf("%d datasets, configurations %v, %d queued", len(srv.data), ta.udfs, len(srv.pending))
	}
	if err := srv.Submit(job(-0.5)); !errors.Is(err, ErrBadSpec) {
		t.Fatalf("scale -0.5: got %v, want ErrBadSpec", err)
	}
	if got, want := state(), "0 datasets, configurations map[], 0 queued"; got != want {
		t.Fatalf("a refused negative scale left %s", got)
	}
	if err := srv.Submit(job(0.002)); err != nil {
		t.Fatal(err)
	}
	before := state()
	for _, scale := range []float64{2, -0.5} {
		if err := srv.Submit(job(scale)); !errors.Is(err, ErrBadSpec) {
			t.Fatalf("scale %g on a deployed workload: got %v, want ErrBadSpec", scale, err)
		}
		if got := state(); got != before {
			t.Fatalf("a refused scale %g moved %s to %s", scale, before, got)
		}
	}
}

// TestSubmitDuringDrain submits jobs of new workloads, LRMF among them,
// to tenants whose drain is executing: Submit deploys, registers and
// prices them on the very Systems the drain trains on, so under -race
// this fails if execution reads anything Submit writes.
func TestSubmitDuringDrain(t *testing.T) {
	load := smallLoad(17)
	load.Jobs, load.Epochs = 24, 2
	specs := GenLoad(load)
	srv := newTestServer(t, load, 2)
	for _, sp := range specs {
		if err := srv.Submit(sp); err != nil {
			t.Fatal(err)
		}
	}
	done := make(chan *Report)
	go func() {
		rep, err := srv.Drain()
		if err != nil {
			t.Error(err)
		}
		done <- rep
	}()
	for taken := false; !taken; hostrt.Gosched() {
		srv.mu.Lock()
		taken = len(srv.pending) == 0
		srv.mu.Unlock()
	}
	var late []JobSpec
	for i, name := range []string{"Netflix", "Blog Feedback", "Remote Sensing SVM"} {
		for _, tn := range srv.TenantNames() {
			sp := JobSpec{Tenant: tn, Kind: Kind(i % 2), Workload: name, Scale: 0.002, Epochs: 1}
			if err := srv.Submit(sp); err != nil {
				t.Fatal(err)
			}
			late = append(late, sp)
		}
	}
	first := <-done
	second, err := srv.Drain()
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range []struct {
		rep  *Report
		jobs int
	}{{first, len(specs)}, {second, len(late)}} {
		if c.rep == nil || c.rep.Jobs != c.jobs || c.rep.Errors != 0 {
			t.Fatalf("drain %d: %+v, want %d jobs and no errors", i+1, c.rep, c.jobs)
		}
	}
	if err := srv.IdentityError(); err != nil {
		t.Fatal(err)
	}
}

// TestSubmitRefusesNonFiniteSpecs: a NaN scale passes every ordered
// range check, and a NaN or infinite arrival stalls or poisons the
// planner's clock. Each is refused with ErrBadSpec before admit pins
// anything, so the tenant's next valid job of the same workload is
// admitted and the queue and arrival clock stay as they were.
func TestSubmitRefusesNonFiniteSpecs(t *testing.T) {
	srv := newTestServer(t, LoadConfig{Tenants: 1}, 1)
	job := JobSpec{Tenant: TenantName(0), Workload: "WLAN", Scale: 0.002, Epochs: 1}
	bad := []JobSpec{job, job, job, job}
	bad[0].Scale = math.NaN()
	bad[1].Scale = math.Inf(1)
	bad[2].ArriveSec = math.NaN()
	bad[3].ArriveSec = math.Inf(1)
	for _, sp := range bad {
		if err := srv.Submit(sp); !errors.Is(err, ErrBadSpec) {
			t.Errorf("scale %v, arrival %v: got %v, want ErrBadSpec", sp.Scale, sp.ArriveSec, err)
		}
	}
	if ta := srv.tenants[job.Tenant]; len(srv.pending) != 0 || srv.arriveAt != 0 || len(ta.udfs) != 0 {
		t.Fatalf("refusals left %d queued jobs, arrival clock %v, %d configurations",
			len(srv.pending), srv.arriveAt, len(ta.udfs))
	}
	rep, err := srv.Run([]JobSpec{job})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Errors != 0 {
		t.Fatalf("%d errors on the valid job after the refusals", rep.Errors)
	}
}

// TestBuildPlanRefusesNonFiniteArrival: Replan hands BuildPlan specs
// admit never saw, so the planner refuses a NaN or infinite arrival
// itself instead of spinning on a NaN clock.
func TestBuildPlanRefusesNonFiniteArrival(t *testing.T) {
	for _, at := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		done := make(chan error, 1)
		go func() {
			_, err := BuildPlan([]JobSpec{{Tenant: "a", Workload: "k", ArriveSec: at}},
				&fakeEstimator{}, testPlanConfig([]string{"a"}, 1))
			done <- err
		}()
		select {
		case err := <-done:
			if !errors.Is(err, ErrBadSpec) {
				t.Errorf("arrival %v: got %v, want ErrBadSpec", at, err)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("arrival %v: BuildPlan still running after 10 s", at)
		}
	}
}
