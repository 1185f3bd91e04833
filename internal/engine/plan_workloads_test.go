package engine_test

import (
	"math"
	"math/rand"
	"regexp"
	hostrt "runtime"
	"strconv"
	"testing"

	"dana/internal/algos"
	"dana/internal/compiler"
	"dana/internal/datagen"
	"dana/internal/engine"
	"dana/internal/golden"
	"dana/internal/hdfg"
)

// TestPlanMatchesReferenceTable3: the programs compiler.Compile emits
// for every Table 3 real workload (logistic, SVM, linear, LRMF at the
// paper's widths) run bit-identically on the plan and on the reference
// executor, counters included, after every batch: n < k, n == k,
// n = 3k+1, merge-coefficient batches with a trailing partial one, and
// one of 40 000 modeled cycles, every thread many tuples deep. The merge
// programs then run at 64 threads over batches of one tuple a thread, n ∈
// {1, 3, 4, 5, 7, 8, 9, 13, 64}: a short only group, a full first group
// alone, full groups after it with every length of short last group, and
// the benchmark's batch of sixteen groups; and over the partition batches
// the benchmark's server_mix runs, Patient's and Blog Feedback's n = 107
// at 64 threads (two-tuple and one-tuple threads in one group) and Remote
// Sensing LR's n = 1 024 and 138 at 128.
// (Package engine cannot import the compiler, so this file drives the
// exported API; plan_test.go holds the in-package harness.)
func TestPlanMatchesReferenceTable3(t *testing.T) {
	for _, w := range datagen.Real() {
		table3Diff(t, w, 8, nil)
		if w.Kind != algos.KindLRMF {
			table3Diff(t, w, 64, []int{1, 3, 4, 5, 7, 8, 9, 13, 64, 107})
			table3Diff(t, w, 128, []int{1024, 138})
		}
	}
}

// table3Diff runs w's compiled program at k threads on both executors over
// batches of the given sizes (nil: the shapes above).
func table3Diff(t *testing.T, w datagen.Workload, k int, sizes []int) {
	t.Helper()
	cfg := engine.Config{Threads: k, ACsPerThread: 1, AUsPerAC: 8, ClockHz: 150e6}
	sp := golden.Spec{Kind: w.Kind, LR: w.LR, Lambda: w.Lambda, MergeCoef: 2 * k, Epochs: 1}
	if w.Kind == algos.KindLRMF {
		// Netflix's shape at a tenth of its rows (the row count only
		// sizes the model; rank 10 is the kernel's width).
		sp.Users, sp.Items, sp.Rank, sp.MergeCoef = w.Topology[0]/10, w.Topology[1]/10, w.Topology[2], 1
	} else {
		sp.NFeat = w.Topology[0]
	}
	prog := compileAlgo(t, w.Name, sp.Kind, sp.Topology(), sp.Hyper())
	rng := rand.New(rand.NewSource(9))
	tuples := narrow(golden.TrainingTuples(rng, sp, 11*k+3))
	init := narrow([][]float64{golden.InitModelFor(rng, sp)})[0]
	if sizes == nil {
		wide := int(40000/prog.Estimate(cfg).PerTuple) + 1
		sizes = []int{k - 1, k, 3*k + 1, 2 * k, 2 * k, 2 * k, k / 2, wide}
	}
	pm, err := engine.NewMachine(prog, cfg)
	if err != nil {
		t.Fatalf("%s: %v", w.Name, err)
	}
	rm, _ := engine.NewMachine(prog, cfg)
	if err := pm.SetModel(init); err != nil {
		t.Fatal(err)
	}
	if err := rm.SetModel(init); err != nil {
		t.Fatal(err)
	}
	at := 0
	for bi, n := range sizes {
		batch := make([][]float32, n)
		for i := range batch {
			batch[i] = tuples[(at+i)%len(tuples)]
		}
		at += n
		if err := pm.RunBatch(batch); err != nil {
			t.Fatalf("%s: plan: %v", w.Name, err)
		}
		if err := rm.RunBatchReference(batch); err != nil {
			t.Fatalf("%s: reference: %v", w.Name, err)
		}
		got, want := pm.Model(), rm.Model()
		for i := range want {
			if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
				t.Fatalf("%s batch %d (n=%d): model[%d] plan %v != reference %v", w.Name, bi, n, i, got[i], want[i])
			}
		}
		if pm.Stats() != rm.Stats() {
			t.Fatalf("%s batch %d (n=%d): stats diverge:\n  plan      %+v\n  reference %+v", w.Name, bi, n, pm.Stats(), rm.Stats())
		}
	}
}

// table3Lowering is what each Table 3 algorithm lowers to at 8 threads,
// merge coefficient 16: PlanListing with the slot offsets stripped, so
// the pin is op kinds and operand memories. The four merge programs read
// exactly as they did before views and steps existed (compared against
// that lowering when this was written); LRMF is one op, the row kernel,
// listed over the eight it inlines.
// pads= is how many scratchpads the 8-thread machine starts with: all five
// merge programs (two are logistic) pass padShareable and take one per
// lane of a lane group; LRMF has no merge, never leaves thread 0, and takes one.
var table3Lowering = map[algos.Kind]string{
	algos.KindLogistic: `copy-input=false share-model=true fused-accumulate=true lanes=4 pads=4
per-tuple:
    0: dot ×4 thread <- model, row
    1: scalar.sigmoid thread <- thread
    2: scalar.sub thread <- thread, row
    3: acc.mul.sv ×4 merge-acc <- thread, row
post-merge:
    0: ew.sv.mul thread <- thread, thread
    1: ew.vv.sub thread <- thread, thread
6 ops for 7 instructions
`,
	algos.KindLinear: `copy-input=false share-model=true fused-accumulate=true lanes=4 pads=4
per-tuple:
    0: dot ×4 thread <- model, row
    1: scalar.sub thread <- thread, row
    2: acc.mul.sv ×4 merge-acc <- thread, row
post-merge:
    0: ew.sv.mul thread <- thread, thread
    1: ew.vv.sub thread <- thread, thread
5 ops for 6 instructions
`,
	algos.KindSVM: `copy-input=false share-model=true fused-accumulate=true lanes=4 pads=4
per-tuple:
    0: ew.sv.mul thread <- thread, model
    1: dot ×4 thread <- model, row
    2: scalar.mul thread <- row, thread
    3: scalar.lt thread <- thread, thread
    4: ew.sv.mul thread <- row, row
    5: ew.sv.mul thread <- thread, thread
    6: acc.vv.sub merge-acc <- thread, thread
post-merge:
    0: ew.sv.mul thread <- thread, thread
    1: ew.vv.sub thread <- thread, thread
9 ops for 10 instructions
`,
	algos.KindLRMF: `copy-input=false share-model=false fused-accumulate=false lanes=1 pads=1
per-tuple:
    0: row.sgd: the 8 ops below, inlined
         gather.view view0 <- thread at round(row) -> r0
         gather.view view1 <- thread at round(row) -> r1
         dot thread <- view0, view1
         scalar.sub thread <- thread, row
         step thread <- view0 - thread * (thread * view1)
         step thread <- view1 - thread * (thread * view0)
         scatter.paired thread at r0 <- thread
         scatter.paired thread at r1 <- thread
1 op for 13 instructions
`,
}

// TestPlanTable3Lowering pins what lowering decides for the programs the
// benchmark and the paper's tables run: a change to a fusion or an
// aliasing rule that moves any of them shows here, by name.
func TestPlanTable3Lowering(t *testing.T) {
	const k = 8
	cfg := engine.Config{Threads: k, ACsPerThread: 1, AUsPerAC: 8, ClockHz: 150e6}
	offsets := regexp.MustCompile(`\[\d+\+\d+\]`)
	for _, w := range datagen.Real() {
		prog := compileAlgo(t, w.Name, w.Kind, w.Topology, algos.Hyper{LR: w.LR, Lambda: w.Lambda, MergeCoef: 2 * k, Epochs: 1})
		got, err := engine.PlanListing(prog, cfg)
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		if got = offsets.ReplaceAllString(got, ""); got != table3Lowering[w.Kind] {
			t.Errorf("%s lowers to\n%s\nwant\n%s", w.Name, got, table3Lowering[w.Kind])
		}
	}
}

// TestServerMixMachineFootprint pins the host footprint of the machines the
// benchmark's server_mix builds (one per training tenant and program), at
// the 64 model threads its designs have: lowering grants all four a
// scratchpad per lane of a lane group (pads= of the listing), and
// NewMachine allocates those pads of Slots words, five accumulators (the
// merged vector and a spare per lane), itself and its ops — where a pad and an accumulator per model thread were 191-911 KB
// of zeroed memory a job.
func TestServerMixMachineFootprint(t *testing.T) {
	cfg := engine.Config{Threads: 64, ACsPerThread: 1, AUsPerAC: 8, ClockHz: 150e6}
	padsOf := regexp.MustCompile(`pads=(\d+)\n`)
	for _, name := range []string{"WLAN", "Patient", "Blog Feedback", "Remote Sensing LR"} {
		w, err := datagen.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		prog := compileAlgo(t, name, w.Kind, w.Topology, algos.Hyper{LR: w.LR, Lambda: w.Lambda, MergeCoef: 1024, Epochs: 2})
		listing, err := engine.PlanListing(prog, cfg)
		if err != nil {
			t.Fatal(err)
		}
		pads := 0
		if m := padsOf.FindStringSubmatch(listing); m != nil {
			pads, _ = strconv.Atoi(m[1])
		}
		if pads < 1 || pads > 8 {
			t.Errorf("%s: lowered to %d pads for 64 threads, want one per lane", name, pads)
			continue
		}
		var before, after hostrt.MemStats
		hostrt.ReadMemStats(&before)
		m, err := engine.NewMachine(prog, cfg)
		hostrt.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		// The slabs, a size class of rounding on each, and 16 KB for the
		// machine and its ops.
		want := uint64(pads*prog.Slots+5*prog.MergeSrc.Len) * 4
		if got := after.TotalAlloc - before.TotalAlloc; got > want+want/8+16<<10 {
			t.Errorf("%s: NewMachine allocated %d B, want about %d pads × %d slots × 4 B = %d", name, got, pads, prog.Slots, want)
		}
		hostrt.KeepAlive(m)
	}
}

// compileAlgo builds and compiles one of the paper's algorithms.
func compileAlgo(t *testing.T, name string, kind algos.Kind, topology []int, h algos.Hyper) *engine.Program {
	t.Helper()
	a, err := algos.Build(kind, topology, h)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	g, err := hdfg.Translate(a)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	prog, err := compiler.Compile(g)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return prog
}

func narrow(rows [][]float64) [][]float32 {
	out := make([][]float32, len(rows))
	for i, r := range rows {
		out[i] = make([]float32, len(r))
		for j, v := range r {
			out[i][j] = float32(v)
		}
	}
	return out
}
