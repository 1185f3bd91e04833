package runtime

// The estimator gate. The dispatcher's estimate (EstimateCost) and an
// executed run's modeled time (TrainResult.SimulatedSeconds) price
// through one function, cost.Price, so they may differ only in the
// terms each side passes. Over the six real Table 3 workloads, on every
// registration and in every cache state:
//   - a warm, fault-free run that uses its full epoch budget reads its
//     estimate to the bit;
//   - a cold or spilling run reads the estimate's terms with its own disk
//     reads substituted;
//   - an early-converging run reads the estimate at the epochs it ran.
//
// On the streaming backends the estimate's engine term is the engine
// cycles the run charged, and its disk term is the run's pool misses,
// each at one page's Disk.ReadTime, to the bit: the engine charges
// through the estimate's cycle model, and the model counts the reads the
// pool's clock sweep makes. The pool sums its reads one at a time, so a
// cold or spilling run's own I/O is not that product's bits, and the
// price check substitutes it.
//
// On the streaming backends the Strider term must lose the pipeline max
// on both sides, because the two sides disagree on it, and the gate logs
// the executed over the estimated Strider seconds per row. On the
// accelerator the executor groups pages by InProcessStriders' 16 where
// the estimate unpacks over the design's 32 Striders, so executed
// Strider cycles run about twice the estimate's. The clamp stays because
// it bounds the pin group (a 32-page group does not fit this gate's
// 16-frame spill pool) and keeps Train's access counters equal to the
// bench replica's. On weave the estimate prices the k-bit plane gather
// while the executor walks heap pages.

import (
	"fmt"
	"math"
	"math/bits"
	"testing"

	"dana/internal/algos"
	"dana/internal/backend"
	"dana/internal/cost"
	"dana/internal/dsl"
	"dana/internal/storage"
)

// table3Scales sizes each real Table 3 workload for a unit test, every
// table still larger than the spill pool's 16 frames.
var table3Scales = []struct {
	name  string
	scale float64
}{
	{"Remote Sensing LR", 0.005},
	{"WLAN", 0.02},
	{"Remote Sensing SVM", 0.005},
	{"Netflix", 0.002},
	{"Patient", 0.02},
	{"Blog Feedback", 0.02},
}

type gateRow struct {
	workload string
	scale    float64
	backend  string
	bits     int
	cache    string // "warm", "cold" or "spill"
	early    bool   // the program converges after its first epoch
	// link runs on three channels at 1 % bandwidth, so the link wins the
	// max; Patient's 214 pages do not divide by three.
	link bool
}

func (r gateRow) String() string {
	s := fmt.Sprintf("%s/%s", r.workload, r.backend)
	if r.bits > 0 {
		s += fmt.Sprintf("/k=%d", r.bits)
	}
	s += "/" + r.cache
	if r.early {
		s += "/early"
	}
	if r.link {
		s += "/link"
	}
	return s
}

// gateRun is one row's Train and what the gate holds it to.
type gateRun struct {
	row gateRow
	p   cost.Params
	be  backend.Backend // a fresh backend of the row's registration
	job backend.Job     // the job as Train priced it
	est backend.Cost    // the estimate, at the epochs run on a streaming row
	run backend.Run     // the counters Train priced
	// misses is how many pages the run read from disk.
	misses int64
}

// streaming rows price their counters; the row-fed backends report
// their estimate.
func (g gateRun) streaming() bool { return g.be.Capabilities().Streaming }

// gateRows lists the gate: every real Table 3 workload on every
// registration that runs it (weave at k = 8) in every cache state, each
// GLM warm on the streaming backends with a program that converges
// early, and the link-bound row.
func gateRows() []gateRow {
	var rows []gateRow
	for _, w := range table3Scales {
		lrmf := w.name == "Netflix"
		for _, be := range []string{backend.NameAccelerator, backend.NameWeave, backend.NameTabla, backend.NameCPU, backend.NameSharded} {
			if lrmf && (be == backend.NameWeave || be == backend.NameSharded) {
				continue // neither runs LRMF
			}
			bits := 0
			if be == backend.NameWeave {
				bits = 8
			}
			for _, cache := range []string{"warm", "cold", "spill"} {
				rows = append(rows, gateRow{workload: w.name, scale: w.scale, backend: be, bits: bits, cache: cache})
			}
			if streaming := bits > 0 || be == backend.NameAccelerator; streaming && !lrmf {
				rows = append(rows, gateRow{workload: w.name, scale: w.scale, backend: be, bits: bits, cache: "warm", early: true})
			}
		}
	}
	return append(rows, gateRow{workload: "Patient", scale: 0.02, backend: backend.NameAccelerator, cache: "warm", link: true})
}

// runGateRow trains the row on a fresh System and collects its run.
func runGateRow(t *testing.T, r gateRow) gateRun {
	t.Helper()
	opts := DefaultOptions()
	opts.PageSize = storage.PageSize8K
	opts.Cost.PoolBytes = 32 << 20
	if r.cache == "spill" {
		opts.Cost.PoolBytes = spillPoolBytes
	}
	opts.Backend, opts.Precision = r.backend, r.bits
	if r.link {
		opts.Cost.Link = cost.ChannelModel{Channels: 3}
		opts.Cost.BandwidthScale = 0.01
	}
	s := New(opts)
	d := deployScaled(t, s, r.workload, r.scale)
	if r.link && d.Rel.NumPages()%3 == 0 {
		t.Fatalf("%v: %d pages split evenly over three channels", r, d.Rel.NumPages())
	}
	merge := 64
	if d.Workload.Kind == algos.KindLRMF {
		merge = 1
	}
	a, err := d.DSLAlgo(merge)
	if err != nil {
		t.Fatal(err)
	}
	if r.early {
		a.SetConvergence(dsl.Lt(dsl.Norm(a.MergeNode.Args[0], 1), a.Meta(1e9)))
	}
	if _, err := s.Register(a, merge, d.Tuples); err != nil {
		t.Fatal(err)
	}
	if r.cache == "warm" {
		err = s.WarmTable(d.Rel.Name)
	} else {
		err = s.DropCaches()
	}
	if err != nil {
		t.Fatal(err)
	}
	job, est, err := s.EstimateCost(a.Name, d.Rel.Name)
	if err != nil {
		t.Fatal(err)
	}
	before := s.DB.Pool.Stats()
	res, err := s.Train(a.Name, d.Rel.Name)
	if err != nil {
		t.Fatal(err)
	}
	// The run's disk reads, exactly: a cold or spilling run is the pool's
	// first reader, and a warm one reads nothing.
	io := res.Pool.IOSeconds
	if r.cache == "warm" {
		io -= before.IOSeconds
	} else if before.IOSeconds != 0 {
		t.Fatalf("%v: the pool read %v s before the run", r, before.IOSeconds)
	}
	reg, job, err := s.disp.Resolve(r.backend, job)
	if err != nil {
		t.Fatal(err)
	}
	be := s.disp.Build(reg)
	if r.cache == "spill" && be.Capabilities().Streaming && res.Pool.Evictions == 0 {
		t.Fatalf("%v: the table fit the spill pool", r)
	}
	g := gateRun{row: r, p: opts.Cost, be: be, job: job, est: est, run: backend.Run{
		Epochs:        res.Epochs,
		EngineCycles:  res.Engine.Cycles,
		StriderCycles: res.Access.Cycles,
		Pages:         res.Access.Pages,
		IOSeconds:     io,
	}, misses: res.Pool.Misses - before.Misses}
	if sim := be.ModeledSeconds(job, g.run); math.Float64bits(sim) != math.Float64bits(res.SimulatedSeconds) {
		t.Fatalf("%v: Train priced %v s, its counters price %v s", r, res.SimulatedSeconds, sim)
	}
	if r.early != (res.Epochs < job.Epochs) {
		t.Fatalf("%v: ran %d of %d epochs", r, res.Epochs, job.Epochs)
	}
	if res.Epochs < job.Epochs && g.streaming() {
		early := job
		early.Epochs = res.Epochs
		if g.est, err = be.EstimateCost(early); err != nil {
			t.Fatal(err)
		}
	}
	return g
}

// check holds the run, priced by price, to its estimate, and on a
// streaming row the estimate's engine term to the run's engine cycles and
// its disk term to the run's reads. On a streaming row it returns the
// executed over the estimated Strider seconds.
func (g gateRun) check(price func(backend.Job, backend.Run) float64) (striderRatio float64, err error) {
	if cyc := float64(g.run.EngineCycles); g.streaming() && g.est.Terms.EngineCycles != cyc {
		return 0, fmt.Errorf("estimated %v engine cycles, the run charged %v", g.est.Terms.EngineCycles, cyc)
	}
	if reads := float64(g.misses) * g.p.Disk.ReadTime(g.job.PageSize); g.streaming() && g.est.Terms.IOSec != reads {
		return 0, fmt.Errorf("estimated %v s of disk reads, the run's %d misses read %v s", g.est.Terms.IOSec, g.misses, reads)
	}
	executed, want := price(g.job, g.run), g.est.Seconds
	if g.streaming() && g.row.cache != "warm" {
		t := g.est.Terms
		t.IOSec = g.run.IOSeconds
		want = cost.Price(t, g.p).TotalSec
	}
	if math.Float64bits(executed) != math.Float64bits(want) {
		return 0, fmt.Errorf("executed %v s, estimate %v s (%+.3g relative)", executed, want, (executed-want)/want)
	}
	if !g.streaming() {
		return 0, nil
	}
	_, strider, _, pipeline := g.est.Terms.Seconds(g.p)
	ran := float64(g.run.StriderCycles) / g.p.FPGAClockHz
	if strider >= pipeline || ran >= pipeline {
		return 0, fmt.Errorf("the Strider term wins the pipeline max: estimated %v s, executed %v s, pipeline %v s", strider, ran, pipeline)
	}
	return ran / strider, nil
}

func TestEstimateIsTheExecutedPrice(t *testing.T) {
	if testing.Short() {
		t.Skip("trains every Table 3 workload on every backend")
	}
	for _, r := range gateRows() {
		g := runGateRow(t, r)
		ratio, err := g.check(g.be.ModeledSeconds)
		if err != nil {
			t.Errorf("%v: %v", r, err)
		} else if g.streaming() {
			t.Logf("%v: %.6f s bit-equal, executed/estimated Strider seconds %.2f", r, g.be.ModeledSeconds(g.job, g.run), ratio)
		}
	}
}

// TestMetaEstimatorGateCatchesPricingFaults plants six faults, each a
// way to charge dispatch, the link, the disk or the engine that once was
// or nearly was the code, and requires each to fail the gate on some
// accelerator row: three in the executed side's pricing, two in the
// estimate's disk term and one in its engine term.
func TestMetaEstimatorGateCatchesPricingFaults(t *testing.T) {
	if testing.Short() {
		t.Skip("trains every Table 3 workload")
	}
	var runs []gateRun
	for _, r := range gateRows() {
		if r.backend == backend.NameAccelerator && !r.early {
			runs = append(runs, runGateRow(t, r))
		}
	}
	for _, g := range runs {
		if _, err := g.check(g.be.ModeledSeconds); err != nil {
			t.Fatalf("%v fails unmutated: %v", g.row, err)
		}
	}
	type price = func(backend.Job, backend.Run) float64
	// Each mutant plants its fault in g and returns the executed side's
	// pricing.
	mutants := map[string]func(g *gateRun) price{
		"dispatch dropped from the executed side": func(g *gateRun) price {
			return func(job backend.Job, run backend.Run) float64 {
				run.Epochs = 0
				return g.be.ModeledSeconds(job, run)
			}
		},
		"one link pass a run": func(g *gateRun) price {
			return func(job backend.Job, run backend.Run) float64 {
				job.Pages *= run.Epochs // the run's pages as one pass
				job.DatasetBytes *= int64(run.Epochs)
				return g.be.ModeledSeconds(job, run)
			}
		},
		"dispatch added after the undispatched sum": func(g *gateRun) price {
			return func(job backend.Job, run backend.Run) float64 {
				epochs := run.Epochs
				run.Epochs = 0
				return g.be.ModeledSeconds(job, run) + float64(epochs)*g.p.EpochDispatchSec
			}
		},
		"a page read priced at its bytes alone": func(g *gateRun) price {
			g.est.Terms.IOSec = float64(g.misses) * float64(g.job.PageSize) / g.p.Disk.SeqReadBytesPerSec
			return g.be.ModeledSeconds
		},
		"a spilled table's resident pages survive every epoch": func(g *gateRun) price {
			pages := g.job.Pages
			resident := min(pages, int(g.p.PoolBytes/int64(g.job.PageSize)))
			reads := g.job.Epochs * (pages - resident)
			if !g.job.Warm {
				reads += resident
			}
			g.est.Terms.IOSec = float64(reads) * g.p.Disk.ReadTime(g.job.PageSize)
			return g.be.ModeledSeconds
		},
		"a short tail batch's tree merge over the design's threads": func(g *gateRun) price {
			threads := g.job.Design.Engine.Threads
			if r := g.job.Tuples % max(1, g.job.MergeCoef); r > 1 && r < threads {
				stages := bits.Len(uint(threads-1)) - bits.Len(uint(r-1)) // log2 ceilings
				extra := g.job.Engine.Estimate(g.job.Design.Engine).MergeStage * int64(stages)
				g.est.Terms.EngineCycles += float64(g.est.Terms.Epochs) * float64(extra)
			}
			return g.be.ModeledSeconds
		},
	}
	for name, mutant := range mutants {
		var caught []string
		for _, g := range runs {
			if _, err := g.check(mutant(&g)); err != nil {
				caught = append(caught, g.row.String())
			}
		}
		if len(caught) == 0 {
			t.Errorf("planted fault %q passed the gate", name)
		} else {
			t.Logf("%q caught on %v", name, caught)
		}
	}
}
