package engine

import (
	"math"
	"math/rand"
	hostrt "runtime"
	"strings"
	"testing"
)

// Mutation meta-tests for the plan-vs-reference differential: each
// plants one fault in the plan side of diffPlanReference and requires
// the harness to report it — after showing the same case green without
// the fault, so a red result is the fault's doing.

// metaCase is the 12-feature logistic GLM at 4 threads over the standard
// batch shapes: it lowers to dot + scalar chain + fused accumulate, and
// its n == k and trailing batches take the direct merge.
func metaCase() diffCase {
	const f, k = 12, 4
	rng := rand.New(rand.NewSource(77))
	init := make([]float32, f)
	for i := range init {
		init[i] = float32(rng.NormFloat64() * 0.1)
	}
	return diffCase{
		prog:    glmProg(f, true),
		cfg:     Config{Threads: k, ACsPerThread: 1, AUsPerAC: 8, ClockHz: 150e6},
		init:    init,
		batches: diffBatches(diffTuples(rng, 11*k, f+1, 0), k),
	}
}

func requireCaught(t *testing.T, c diffCase, want string) {
	t.Helper()
	clean := c
	clean.mutate, clean.run = nil, nil
	if err := diffPlanReference(clean); err != nil {
		t.Fatalf("pre-mutation: %v", err)
	}
	err := diffPlanReference(c)
	if err == nil {
		t.Fatal("mutant passed the differential: the check cannot fail")
	}
	if !strings.Contains(err.Error(), want) {
		t.Fatalf("mutant tripped %q, want a %s divergence", err, want)
	}
}

// kDotFused is kDot with the float32(...) around the product dropped on
// a target that fuses: one rounding for x*y+acc instead of two. (amd64
// does not fuse, so the fault is spelled with math.FMA; the products of
// two float32 are exact in float64, which makes this the FMADDS result
// up to the final double rounding.)
func kDotFused(o *op, f *frame) error {
	a, b := o.a.view(f), o.b.view(f)
	acc := float32(a[0] * b[0])
	for i := 1; i < len(a); i++ {
		acc = float32(math.FMA(float64(a[i]), float64(b[i]), float64(acc)))
	}
	f.base[spThread][o.dst] = acc
	return nil
}

func TestMetaDroppedRoundingCaught(t *testing.T) {
	c := metaCase()
	c.mutate = func(m *Machine) {
		for i := range m.plan.perTuple {
			if m.plan.perTuple[i].kind == opDot {
				m.plan.perTuple[i].run = kDotFused
				return
			}
		}
		t.Fatal("no dot in the plan to mutate")
	}
	requireCaught(t, c, "model[")
}

// The direct merge folds thread t's value into the merged vector in
// thread order. Feeding a single-tuple-per-thread batch backwards is
// that loop run from k-1 down to 0: same values, other order of adds.
func TestMetaDirectMergeOrderCaught(t *testing.T) {
	c := metaCase()
	c.run = func(m *Machine, batch [][]float32) error {
		if len(batch) > m.Cfg.Threads {
			return m.RunBatch(batch)
		}
		rev := make([][]float32, len(batch))
		for i, tup := range batch {
			rev[len(batch)-1-i] = tup
		}
		return m.RunBatch(rev)
	}
	requireCaught(t, c, "model[")
}

// Skipping the liveness check: PostMerge folds thread 0's product vector
// into the model, so lowering must keep the ew.mul and the red.add
// apart. The mutant runs the per-tuple list lowering produces when that
// read is not there — the dot, product vector elided — against it.
func TestMetaSkippedLivenessCaught(t *testing.T) {
	c := metaCase()
	fusable := c.prog
	c.prog = glmVariants(12)["prod-read-in-postmerge"]
	c.mutate = func(m *Machine) {
		for _, o := range m.plan.perTuple {
			if o.kind == opDot {
				t.Fatal("lowering fused a dot whose product vector PostMerge reads")
			}
		}
		fm, err := NewMachine(fusable, m.Cfg)
		if err != nil {
			t.Fatal(err)
		}
		m.plan.perTuple = fm.plan.perTuple
	}
	requireCaught(t, c, "model[")
}

// lrmfMetaCase is an LRMF-shaped program at one thread, a tuple a batch:
// views, dot, steps and paired scatters, every fifth tuple with u == v.
func lrmfMetaCase(prog *Program) diffCase {
	rng := rand.New(rand.NewSource(78))
	init := make([]float32, prog.ModelSlot.Len)
	for i := range init {
		init[i] = float32(rng.NormFloat64() * 0.3)
	}
	tuples := diffTuples(rng, 40, 3, 6)
	for i := 0; i < len(tuples); i += 5 {
		tuples[i][1] = tuples[i][0]
	}
	return diffCase{
		prog:    prog,
		cfg:     Config{Threads: 1, ACsPerThread: 1, AUsPerAC: 8, ClockHz: 150e6},
		init:    init,
		batches: diffBatches(tuples, 1),
	}
}

// kStepFused is kStep with the float32(...) around the outer product
// dropped on a target that fuses: one rounding for a − s1·t instead of
// two (spelled with math.FMA for the reason kDotFused is).
func kStepFused(o *op, f *frame) error {
	dst := o.dest(f)
	a, b := o.a.view(f), o.b.view(f)
	s1, s2 := o.s1.at(f), o.s2.at(f)
	for i := range dst {
		dst[i] = float32(math.FMA(-float64(s1), float64(float32(s2*b[i])), float64(a[i])))
	}
	return nil
}

func TestMetaStepRoundingCaught(t *testing.T) {
	c := lrmfMetaCase(lrmfProg(6, 4))
	c.mutate = func(m *Machine) {
		for i := range m.plan.perTuple {
			if m.plan.perTuple[i].kind == opStep {
				m.plan.perTuple[i].run = kStepFused
				return
			}
		}
		t.Fatal("no step in the plan to mutate")
	}
	requireCaught(t, c, "model[")
}

// Taking a view across a model write: this program reads both gathered
// rows again after the scatters, so lowering must copy them out. The
// mutant runs the per-tuple list lowering produces when those reads are
// not there — rows viewed, nothing copied — against it.
func TestMetaViewAcrossModelWriteCaught(t *testing.T) {
	progs, _ := lrmfVariants(6, 4)
	c := lrmfMetaCase(progs["row-read-after-scatter"])
	c.mutate = func(m *Machine) {
		vm, err := NewMachine(progs["base"], m.Cfg)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 2; i++ {
			g, v := m.plan.perTuple[i], vm.plan.perTuple[i]
			if g.kind != opGather || v.kind != opGatherView || g.reg != v.reg {
				t.Fatalf("gather %d lowered to kind %d reg %d, its clean twin to kind %d reg %d; want a copy and a view on one register", i, g.kind, g.reg, v.kind, v.reg)
			}
		}
		m.plan.perTuple = vm.plan.perTuple
	}
	requireCaught(t, c, "model[")
}

// Skipping the pad proof: each of these shapes hands a word from one
// tuple of a thread to the next, or to thread 0's once-a-batch stages, so
// lowering must leave every model thread its own scratchpad. The mutant
// runs tuples on their host lane's pad regardless — what lowering decides
// when the clause that refuses the shape is not there.
func TestMetaThreadCarriedTempCaught(t *testing.T) {
	variants := glmVariants(12)
	for _, name := range []string{
		"prod-read-in-postmerge", "prod-read-by-next-tuple", "mergesrc-read-in-convergence",
		"temp-partly-rewritten-before-read", "const-written-in-postmerge",
		"postmerge-word-read-per-tuple", "mergesrc-never-written-per-tuple",
		"temp-rewritten-in-postmerge", "running-sum-across-tuples", "mergedst-lands-on-const",
	} {
		t.Run(name, func(t *testing.T) {
			c := metaCase()
			c.prog, c.cfg.Threads = variants[name], 6
			c.mutate = func(m *Machine) {
				if m.plan.sharePads || m.plan.copyInput || !m.plan.shareModel || m.pads != 6 {
					t.Fatalf("lowered to sharePads=%v copyInput=%v shareModel=%v on %d pads; want only the pad proof refusing, 6 pads",
						m.plan.sharePads, m.plan.copyInput, m.plan.shareModel, m.pads)
				}
				m.plan.sharePads = true
			}
			requireCaught(t, c, "")
		})
	}
}

// Stats.Instructions counts macro instructions; the plan runs fewer ops.
// The mutant charges what it ran.
func TestMetaFusedOpCountCaught(t *testing.T) {
	c := metaCase()
	c.run = func(m *Machine, batch [][]float32) error {
		fused := len(m.Prog.PerTuple) - len(m.plan.perTuple)
		if fused == 0 {
			t.Fatal("plan fused nothing: the mutation is a no-op")
		}
		err := m.RunBatch(batch)
		m.stats.Instructions -= int64(len(batch) * fused)
		return err
	}
	requireCaught(t, c, "stats diverge")
}

// TestPlanErrorTrichotomy: the three run-time rejections read the same
// from the plan and the reference — wrong tuple width, a gather or
// scatter row outside the model, an elementwise instruction with an
// empty source.
func TestPlanErrorTrichotomy(t *testing.T) {
	cfg := Config{Threads: 2, ACsPerThread: 1, AUsPerAC: 8, ClockHz: 150e6}
	lrmf := lrmfProg(6, 4)
	scatterOnly := cloneProg(lrmf)
	scatterOnly.PerTuple = nil
	empty := glmProg(4, false)
	empty.PerTuple[2].A = Slot{}
	emptyB := glmProg(4, false)
	emptyB.PerTuple[3].B = Slot{}
	badKind := glmProg(4, false)
	badKind.PostMerge = append(badKind.PostMerge, Instr{Kind: 9})
	cases := []struct {
		name  string
		prog  *Program
		tuple []float32
		want  string
	}{
		{"short tuple", glmProg(4, false), []float32{1, 2}, "engine: tuple width 2, input region 5"},
		{"gather row", lrmf, []float32{6, 0, 1}, "engine: gather row 6 outside model of 6 rows"},
		{"gather negative row", lrmf, []float32{0, -1, 1}, "engine: gather row -1 outside model of 6 rows"},
		{"scatter row", scatterOnly, []float32{0, 7, 1}, "engine: scatter row 7 outside model of 6 rows"},
		{"empty unary source", empty, []float32{1, 2, 3, 4, 5}, "engine: EW with empty source: ew.mov"},
		{"empty second source", emptyB, []float32{1, 2, 3, 4, 5}, "engine: EW with empty source: ew.sub"},
		{"invalid kind", badKind, []float32{1, 2, 3, 4, 5}, "engine: invalid instruction kind 9"},
	}
	for _, c := range cases {
		pm, err := NewMachine(c.prog, cfg)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		rm, _ := NewMachine(c.prog, cfg)
		perr, rerr := pm.RunBatch([][]float32{c.tuple}), rm.RunBatchReference([][]float32{c.tuple})
		if perr == nil || rerr == nil || perr.Error() != rerr.Error() || !strings.HasPrefix(perr.Error(), c.want) {
			t.Errorf("%s: plan %v, reference %v, want %q", c.name, perr, rerr, c.want)
		}
	}
}

// TestRunBatchAllocationFree: the merge path never allocates, nor does the
// serial (no-merge) one — the first batch included.
func TestRunBatchAllocationFree(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, c := range []struct {
		name    string
		prog    *Program
		threads int
		tuples  [][]float32
	}{
		{"inline", glmProg(12, true), 4, diffTuples(rng, 9, 13, 0)},
		{"serial", lrmfProg(6, 4), 1, diffTuples(rng, 16, 3, 6)},
	} {
		m, err := NewMachine(c.prog, Config{Threads: c.threads, ACsPerThread: 2, AUsPerAC: 8, ClockHz: 150e6})
		if err != nil {
			t.Fatal(err)
		}
		// AllocsPerRun warms up with a call it does not count: the first
		// batch is measured by hand.
		var before, after hostrt.MemStats
		hostrt.ReadMemStats(&before)
		err = m.RunBatch(c.tuples)
		hostrt.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		if first := after.Mallocs - before.Mallocs; first != 0 {
			t.Errorf("%s: the first RunBatch allocates %d times", c.name, first)
		}
		if n := testing.AllocsPerRun(20, func() { _ = m.RunBatch(c.tuples) }); n != 0 {
			t.Errorf("%s: RunBatch allocates %v times a batch", c.name, n)
		}
	}
}

// TestNewMachineAllocations pins the per-Configure allocation budget:
// the machine, one op slab for all four lowered lists, one scratchpad slab
// and the two merge accumulators (merge programs only) — whatever the
// thread count (TestServerMixMachineFootprint pins the bytes).
func TestNewMachineAllocations(t *testing.T) {
	for _, c := range []struct {
		name    string
		prog    *Program
		threads int
		want    float64
	}{
		{"glm 64 threads", glmProg(54, true), 64, 4},
		{"lrmf 1 thread", lrmfProg(100, 10), 1, 3},
	} {
		cfg := Config{Threads: c.threads, ACsPerThread: 2, AUsPerAC: 8, ClockHz: 150e6}
		got := testing.AllocsPerRun(20, func() {
			if _, err := NewMachine(c.prog, cfg); err != nil {
				t.Fatal(err)
			}
		})
		if got > c.want {
			t.Errorf("%s: NewMachine allocates %v times, budget %v", c.name, got, c.want)
		}
	}
	m, err := NewMachine(glmProg(54, true), Config{Threads: 64, ACsPerThread: 2, AUsPerAC: 8, ClockHz: 150e6})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := len(m.accs), 2*54; got != want {
		t.Errorf("glm 64 threads: %d accumulator words at construction, want %d (the merged vector and the spare)", got, want)
	}
}
