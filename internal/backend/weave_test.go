package backend_test

// Any-precision (weave) backend tests: the conformance suite across the
// full precision ladder, the typed LRMF rejection (class-coverage leg
// of the conformance suite), the k=32 counter/model identity against
// the accelerator path on range-grid data, the MLWeaving-style
// precision-sweep convergence bound, and the exact-== transfer-byte
// identity against cost.ChannelModel.

import (
	"errors"
	"fmt"
	"math"
	"testing"

	"dana/internal/backend"
	"dana/internal/cost"
	"dana/internal/engine"
	"dana/internal/ml"
	"dana/internal/obs"
	"dana/internal/storage"
	"dana/internal/weaving"
)

// sweepBits is the precision ladder the satellite tests walk.
var sweepBits = []int{1, 2, 4, 8, 16, 32}

func weaveRegistration(t *testing.T) backend.Registration {
	t.Helper()
	for _, reg := range backend.Builtins() {
		if reg.Name == backend.NameWeave {
			return reg
		}
	}
	t.Fatal("weave backend not registered in Builtins")
	return backend.Registration{}
}

// snapToGrid rewrites a scenario's features onto the 2⁻²³ grid of the
// fixed range {Offset: -1, Scale: 2}: values whose normalized form is
// an exact multiple of 2⁻²⁴ survive quantize→dequantize bit-for-bit at
// k=32, so the rewoven epoch is byte-identical to the float epoch.
// Labels are untouched (they are never quantized).
func snapToGrid(sc *backend.Scenario, nfeat int) {
	snap := func(v float64) float64 {
		n := math.Round((v + 1) * (1 << 23))
		if n < 0 {
			n = 0
		}
		if n > (1<<24)-1 {
			n = (1 << 24) - 1
		}
		return n/(1<<23) - 1
	}
	for i, t := range sc.Tuples {
		for c := 0; c < nfeat; c++ {
			t[c] = snap(t[c])
			sc.Rows32[i][c] = float32(t[c])
		}
	}
}

func gridRanges(nfeat int) []storage.WeaveRange {
	ranges := make([]storage.WeaveRange, nfeat)
	for i := range ranges {
		ranges[i] = storage.WeaveRange{Offset: -1, Scale: 2}
	}
	return ranges
}

// TestWeaveConformanceAcrossPrecisions runs the full conformance suite
// — capability sanity, typed rejections, tolerance against the
// declared reweaving reference, counter determinism across stream
// delivery forms, scoring — at every rung of the precision ladder.
func TestWeaveConformanceAcrossPrecisions(t *testing.T) {
	reg := weaveRegistration(t)
	env := backend.ConformanceEnv()
	for _, seed := range []int64{1, 2, 3} { // logistic, svm, linear
		sc := backend.GenScenario(seed)
		for _, bits := range sweepBits {
			sc.Bits = bits
			if vs := backend.Check(reg, env, sc); len(vs) > 0 {
				for _, v := range vs {
					t.Errorf("seed %d (%s) bits=%d: %s", seed, sc.Spec.Kind, bits, v)
				}
			}
		}
	}
}

// TestWeaveRejectsLRMF pins the typed-error class-coverage leg: the
// rating schema's integer indices are meaningless to quantize, so both
// the dispatch surface and the storage layer refuse, each with its own
// sentinel.
func TestWeaveRejectsLRMF(t *testing.T) {
	env := backend.ConformanceEnv()
	sc := backend.GenScenario(15) // lrmf
	sc.Bits = 8
	p, err := backend.BuildProgram(sc, env)
	if err != nil {
		t.Fatal(err)
	}
	job := backend.JobFor(sc, p)
	if job.Class != backend.ClassLRMF {
		t.Fatalf("seed 15 classified as %s, want lrmf", job.Class)
	}
	be := backend.NewWeaveAccel(env)
	if _, err := be.EstimateCost(job); !errors.Is(err, backend.ErrUnsupported) {
		t.Errorf("EstimateCost(lrmf) = %v, want ErrUnsupported", err)
	}
	if err := be.Configure(p); !errors.Is(err, backend.ErrUnsupported) {
		t.Errorf("Configure(lrmf) = %v, want ErrUnsupported", err)
	}
	// The storage layer agrees: the LRMF rating schema cannot be woven.
	if err := storage.CheckWeaveSchema(storage.RatingSchema()); !errors.Is(err, storage.ErrWeaveUnsupported) {
		t.Errorf("CheckWeaveSchema(rating) = %v, want ErrWeaveUnsupported", err)
	}
}

// TestWeaveFullWidthMatchesAccelerator: on range-grid data with pinned
// ranges, a 32-bit weave read reconstructs every feature bit-for-bit,
// so the weave backend must be indistinguishable from the accelerator
// path — model bits and modeled counters both identical. This is the
// identity `danabench -exp precision` re-verifies on its committed
// seed.
func TestWeaveFullWidthMatchesAccelerator(t *testing.T) {
	env := backend.ConformanceEnv()
	for _, seed := range []int64{1, 2, 3} {
		sc := backend.GenScenario(seed)
		p, err := backend.BuildProgram(sc, env)
		if err != nil {
			t.Fatal(err)
		}
		nfeat := sc.Spec.TupleWidth() - 1
		snapToGrid(&sc, nfeat)

		accel := backend.NewAccel(env)
		if err := accel.Configure(p); err != nil {
			t.Fatal(err)
		}
		pw := p
		pw.Bits = 32
		pw.Ranges = gridRanges(nfeat)
		weave := backend.NewWeaveAccel(env)
		if err := weave.Configure(pw); err != nil {
			t.Fatal(err)
		}
		for e := 0; e < sc.Spec.Epochs; e++ {
			if err := accel.RunEpoch(&backend.Stream{Rows32: sc.Rows32}); err != nil {
				t.Fatal(err)
			}
			if err := weave.RunEpoch(&backend.Stream{Rows32: sc.Rows32}); err != nil {
				t.Fatal(err)
			}
		}
		am, wm := accel.Model(), weave.Model()
		if len(am) == 0 || len(am) != len(wm) {
			t.Fatalf("seed %d: model lengths %d vs %d", seed, len(am), len(wm))
		}
		for i := range am {
			if math.Float64bits(am[i]) != math.Float64bits(wm[i]) {
				t.Fatalf("seed %d: model[%d] %v (accel) != %v (weave@32) — full-width weave must be bit-identical on grid data",
					seed, i, am[i], wm[i])
			}
		}
		if ac, wc := accel.Counters(), weave.Counters(); ac != wc {
			t.Fatalf("seed %d: counters diverge:\n  accel=%+v\n  weave=%+v", seed, ac, wc)
		}
	}
}

// TestWeavePrecisionSweepConvergence is the MLWeaving bound: at every
// precision the weave-trained model must reach the golden float64
// trainer's loss within a per-precision margin and epoch budget —
// coarser quantization gets a wider margin (the 2⁻ᵏ quantization
// floor) and a few more epochs, exactly the tradeoff the paper's
// figure sweeps.
func TestWeavePrecisionSweepConvergence(t *testing.T) {
	env := backend.ConformanceEnv()
	for _, seed := range []int64{1, 2} { // logistic (LR), svm
		sc := backend.GenScenario(seed)
		p, err := backend.BuildProgram(sc, env)
		if err != nil {
			t.Fatal(err)
		}
		algo := sc.Spec.Algorithm()
		golden, err := backend.GoldenReference(sc)
		if err != nil {
			t.Fatal(err)
		}
		goldenLoss := ml.MeanLoss(algo, golden, sc.Tuples)

		for _, bits := range sweepBits {
			budget := weaveEpochBudget(sc.Spec.Epochs, bits)
			margin := weaveLossMargin(bits)
			pw := p
			pw.Bits = bits
			be := backend.NewWeaveAccel(env)
			if err := be.Configure(pw); err != nil {
				t.Fatal(err)
			}
			converged := -1
			for e := 1; e <= budget; e++ {
				if err := be.RunEpoch(&backend.Stream{Rows32: sc.Rows32}); err != nil {
					t.Fatal(err)
				}
				if ml.MeanLoss(algo, be.Model(), sc.Tuples) <= goldenLoss+margin {
					converged = e
					break
				}
			}
			if converged < 0 {
				t.Errorf("seed %d (%s) bits=%d: loss %.6f after %d epochs never reached golden %.6f + margin %.6f",
					seed, sc.Spec.Kind, bits, ml.MeanLoss(algo, be.Model(), sc.Tuples), budget, goldenLoss, margin)
			}
		}
	}
}

// weaveEpochBudget is the per-precision epoch allowance: full epochs at
// high precision, a few extra at the coarse end (MLWeaving observes
// low-bit runs need more passes to the same quality).
func weaveEpochBudget(epochs, bits int) int {
	switch {
	case bits >= 8:
		return epochs
	case bits >= 4:
		return 2 * epochs
	default:
		return 4 * epochs
	}
}

// weaveLossMargin is the per-precision loss slack over the golden
// trainer: the quantization floor shrinks as 2⁻ᵏ plus a small float32
// datapath allowance.
func weaveLossMargin(bits int) float64 {
	return 1.5*math.Pow(2, -float64(bits)) + 0.02
}

// TestWeaveTransferBytesExact is the exact-== identity against
// cost.ChannelModel: the weave backend's modeled per-epoch transfer
// must equal the channel model charged with the page geometry's
// effective bytes — the same float64 expression, not a tolerance — and
// the byte counts themselves scale exactly linearly in k.
func TestWeaveTransferBytesExact(t *testing.T) {
	env := backend.ConformanceEnv()
	sc := backend.GenScenario(1)
	p, err := backend.BuildProgram(sc, env)
	if err != nil {
		t.Fatal(err)
	}
	job := backend.JobFor(sc, p)
	job.Epochs = 1 // per-epoch identity
	nfeat := job.Columns - 1
	g := weaving.RelationGeometry(job.Tuples, nfeat, job.PageSize)
	be := backend.NewWeaveAccel(env)
	var prevBytes int64 = -1
	for _, bits := range sweepBits {
		job.Bits = bits
		c, err := be.EstimateCost(job)
		if err != nil {
			t.Fatal(err)
		}
		w := cost.Workload{
			Epochs:          1,
			Pages:           g.Pages,
			WeaveBits:       bits,
			WeaveFixedBytes: g.FixedBytes,
			WeaveBitBytes:   g.BitBytes,
		}
		if want := cost.TransferSec(w, env.Cost); c.Breakdown.TransferSec != want {
			t.Errorf("bits=%d: backend transfer %.12g s != channel model %.12g s (exact == required)",
				bits, c.Breakdown.TransferSec, want)
		}
		bytes := g.EffectiveBytes(bits)
		if prevBytes >= 0 {
			// Linear in k, exactly: the byte delta per bit is BitBytes.
			prevBits := sweepBits[indexOf(sweepBits, bits)-1]
			if d := bytes - prevBytes; d != int64(bits-prevBits)*g.BitBytes {
				t.Errorf("bits %d->%d: byte delta %d != %d bits × %d", prevBits, bits, d, bits-prevBits, g.BitBytes)
			}
		}
		prevBytes = bytes
	}
	// Full-width job: weave refuses (no silent rerouting); accel charges
	// the heap byte stream unchanged.
	job.Bits = 0
	if _, err := be.EstimateCost(job); !errors.Is(err, backend.ErrUnsupported) {
		t.Errorf("EstimateCost(bits=0) = %v, want ErrUnsupported", err)
	}
}

func indexOf(xs []int, x int) int {
	for i, v := range xs {
		if v == x {
			return i
		}
	}
	return -1
}

// TestWeaveCloseDropsOnlyBuffers: Close releases the stage's reweaver
// and the materialisation slab, not the stage — an epoch after Close
// requantises as before (rebuilding what it needs) and lands on the
// bits of a twin that was never closed, in both stream forms.
func TestWeaveCloseDropsOnlyBuffers(t *testing.T) {
	env := backend.ConformanceEnv()
	sc := backend.GenScenario(4)
	p, err := backend.BuildProgram(sc, env)
	if err != nil {
		t.Fatal(err)
	}
	p.Bits = 8
	batches := &backend.Stream{Batches: func(emit func([][]float32) error) error {
		for at := 0; at < len(sc.Rows32); at += 7 {
			if err := emit(sc.Rows32[at:min(at+7, len(sc.Rows32))]); err != nil {
				return err
			}
		}
		return nil
	}}
	closed, twin := backend.NewWeaveAccel(env), backend.NewWeaveAccel(env)
	for _, be := range []*backend.Accel{closed, twin} {
		if err := be.Configure(p); err != nil {
			t.Fatal(err)
		}
	}
	for e, st := range []*backend.Stream{{Rows32: sc.Rows32}, batches, batches, {Rows32: sc.Rows32}} {
		if err := closed.RunEpoch(st); err != nil {
			t.Fatalf("epoch %d: %v", e, err)
		}
		closed.Close()
		if err := twin.RunEpoch(st); err != nil {
			t.Fatalf("epoch %d (twin): %v", e, err)
		}
	}
	cm, tm := closed.Model(), twin.Model()
	for i := range tm {
		if math.Float64bits(cm[i]) != math.Float64bits(tm[i]) {
			t.Fatalf("model[%d] %v after Close between epochs, %v without", i, cm[i], tm[i])
		}
	}
	if cc, tc := closed.Counters(), twin.Counters(); cc != tc {
		t.Fatalf("counters diverge:\n  closed=%+v\n  twin=%+v", cc, tc)
	}
}

// heldBits is the precision ladder the held-form tests walk: sweepBits
// plus 31, the widest read that is not the full page.
var heldBits = []int{1, 2, 4, 8, 16, 31, 32}

// countingEnv is the conformance environment with live counters.
func countingEnv() (backend.Env, *obs.Registry) {
	env := backend.ConformanceEnv()
	env.Obs = obs.New()
	return env, env.Obs
}

// requireSameRun holds a weave backend to a reference: model bits,
// modeled counters, and the modeled seconds the same run integrates to.
func requireSameRun(t *testing.T, what string, job backend.Job, got, want *backend.Accel) {
	t.Helper()
	gm, wm := got.Model(), want.Model()
	if len(gm) == 0 || len(gm) != len(wm) {
		t.Fatalf("%s: model lengths %d vs %d", what, len(gm), len(wm))
	}
	for i := range wm {
		if math.Float64bits(gm[i]) != math.Float64bits(wm[i]) {
			t.Fatalf("%s: model[%d] = %v, reference %v", what, i, gm[i], wm[i])
		}
	}
	gc, wc := got.Counters(), want.Counters()
	if gc != wc {
		t.Fatalf("%s: counters diverge:\n   got=%+v\n  want=%+v", what, gc, wc)
	}
	run := func(c engine.Stats) backend.Run {
		return backend.Run{EngineCycles: c.Cycles, StriderCycles: 1 << 16, Pages: int64(2 * job.Pages)}
	}
	if g, w := got.ModeledSeconds(job, run(gc)), got.ModeledSeconds(job, run(wc)); math.Float64bits(g) != math.Float64bits(w) {
		t.Fatalf("%s: modeled seconds %v, reference %v", what, g, w)
	}
}

// TestWeaveHeldEqualsPerEpochReweave: with a holder lent, the first
// backend weaves once and decodes once, a second one on the same holder
// only decodes, and both land on the bits of the accelerator machine fed
// weaving.ReweaveRows' output epoch by epoch — at every precision, with
// derived and with pinned ranges.
func TestWeaveHeldEqualsPerEpochReweave(t *testing.T) {
	for _, seed := range []int64{1, 3} { // logistic, linear
		sc := backend.GenScenario(seed)
		nfeat := sc.Spec.TupleWidth() - 1
		for _, bits := range heldBits {
			for _, ranges := range [][]storage.WeaveRange{nil, gridRanges(nfeat)} {
				env, reg := countingEnv()
				p, err := backend.BuildProgram(sc, env)
				if err != nil {
					t.Fatal(err)
				}
				job := backend.JobFor(sc, p)
				job.Bits = bits

				ref := backend.NewAccel(backend.ConformanceEnv())
				if err := ref.Configure(p); err != nil {
					t.Fatal(err)
				}
				for e := 0; e < sc.Spec.Epochs; e++ {
					rewoven, _, err := weaving.ReweaveRows(sc.Rows32, ranges, bits, 0)
					if err != nil {
						t.Fatal(err)
					}
					if err := ref.RunEpoch(&backend.Stream{Rows32: rewoven}); err != nil {
						t.Fatal(err)
					}
				}

				pw := p
				pw.Bits, pw.Ranges = bits, ranges
				var held backend.Held
				for i, want := range []struct{ builds, decodes int64 }{{1, 1}, {1, 2}} {
					be := backend.NewWeaveAccel(env)
					if err := be.Configure(pw); err != nil {
						t.Fatal(err)
					}
					for e := 0; e < sc.Spec.Epochs; e++ {
						if err := be.RunEpoch(&backend.Stream{Rows32: sc.Rows32, Held: &held}); err != nil {
							t.Fatal(err)
						}
					}
					what := fmt.Sprintf("seed %d bits %d pinned=%v backend %d", seed, bits, ranges != nil, i)
					requireSameRun(t, what, job, be, ref)
					if b, d := reg.Get(obs.WeaveBuilds), reg.Get(obs.WeaveDecodes); b != want.builds || d != want.decodes {
						t.Errorf("%s: %d builds, %d decodes after %d epochs, want %d and %d", what, b, d, sc.Spec.Epochs, want.builds, want.decodes)
					}
					be.Close()
				}
				if got := reg.Get(obs.WeaveHeldBytes); got <= 0 {
					t.Errorf("seed %d bits %d: %d held bytes after a build into a lent holder", seed, bits, got)
				}
			}
		}
	}
}

// TestWeaveHolderReplacedByOtherRequest: one holder, one woven form — a
// backend at another precision, or with other pinned ranges, rebuilds it
// and still trains to its own reference; going back rebuilds again.
func TestWeaveHolderReplacedByOtherRequest(t *testing.T) {
	sc := backend.GenScenario(1)
	nfeat := sc.Spec.TupleWidth() - 1
	env, reg := countingEnv()
	p, err := backend.BuildProgram(sc, env)
	if err != nil {
		t.Fatal(err)
	}
	job := backend.JobFor(sc, p)
	var held backend.Held
	for i, tc := range []struct {
		bits   int
		ranges []storage.WeaveRange
		builds int64
	}{
		{8, nil, 1}, {8, nil, 1}, {4, nil, 2}, {8, nil, 3}, {8, gridRanges(nfeat), 4}, {8, gridRanges(nfeat), 4}, {8, nil, 5},
	} {
		pw := p
		pw.Bits, pw.Ranges = tc.bits, tc.ranges
		be, ref := backend.NewWeaveAccel(env), backend.NewWeaveAccel(backend.ConformanceEnv())
		for _, b := range []*backend.Accel{be, ref} {
			if err := b.Configure(pw); err != nil {
				t.Fatal(err)
			}
		}
		for e := 0; e < sc.Spec.Epochs; e++ {
			if err := be.RunEpoch(&backend.Stream{Rows32: sc.Rows32, Held: &held}); err != nil {
				t.Fatal(err)
			}
			if err := ref.RunEpoch(&backend.Stream{Rows32: sc.Rows32}); err != nil {
				t.Fatal(err)
			}
		}
		job.Bits = tc.bits
		requireSameRun(t, fmt.Sprintf("step %d (bits %d pinned=%v)", i, tc.bits, tc.ranges != nil), job, be, ref)
		if got := reg.Get(obs.WeaveBuilds); got != tc.builds {
			t.Errorf("step %d: %d builds so far, want %d", i, got, tc.builds)
		}
	}
}

// TestWeaveStageDropsDecodedRows: Close and a second Configure drop the
// decoded rows with the reweaver and the note of their holder — the next
// epoch under the same holder decodes again (never returning rows that
// are gone, or another precision's) and lands on an untouched twin's
// bits.
func TestWeaveStageDropsDecodedRows(t *testing.T) {
	sc := backend.GenScenario(4)
	env, reg := countingEnv()
	p, err := backend.BuildProgram(sc, env)
	if err != nil {
		t.Fatal(err)
	}
	p.Bits = 8
	job := backend.JobFor(sc, p)
	var held, twinHeld backend.Held
	be, twin := backend.NewWeaveAccel(env), backend.NewWeaveAccel(backend.ConformanceEnv())
	epoch := func(b *backend.Accel, h *backend.Held) {
		t.Helper()
		if err := b.RunEpoch(&backend.Stream{Rows32: sc.Rows32, Held: h}); err != nil {
			t.Fatal(err)
		}
	}
	for _, b := range []*backend.Accel{be, twin} {
		if err := b.Configure(p); err != nil {
			t.Fatal(err)
		}
	}
	epoch(be, &held)
	epoch(be, &held)
	be.Close()
	epoch(be, &held)
	for e := 0; e < 3; e++ {
		epoch(twin, &twinHeld)
	}
	requireSameRun(t, "Close between epochs", job, be, twin)
	if b, d := reg.Get(obs.WeaveBuilds), reg.Get(obs.WeaveDecodes); b != 1 || d != 2 {
		t.Errorf("%d builds, %d decodes over three epochs and a Close, want 1 and 2", b, d)
	}

	// Reconfigured at another precision, the same instance under the same
	// holder must not be handed the k=8 rows it decoded before.
	p.Bits, job.Bits = 4, 4
	for _, b := range []*backend.Accel{be, twin} {
		if err := b.Configure(p); err != nil {
			t.Fatal(err)
		}
	}
	epoch(be, &held)
	epoch(twin, new(backend.Held))
	requireSameRun(t, "second Configure", job, be, twin)
}

// TestWeaveFailedEpochReusesHolder: an epoch that fails after the weave
// stage ran (rows one value too wide for the program) leaves a complete
// woven form in the holder and complete decoded rows in the stage; its
// re-run weaves and decodes nothing again. An epoch that fails inside the
// weave leaves the holder as it was.
func TestWeaveFailedEpochReusesHolder(t *testing.T) {
	sc := backend.GenScenario(3)
	env, reg := countingEnv()
	p, err := backend.BuildProgram(sc, env)
	if err != nil {
		t.Fatal(err)
	}
	p.Bits = 8
	be := backend.NewWeaveAccel(env)
	if err := be.Configure(p); err != nil {
		t.Fatal(err)
	}
	wide := make([][]float32, len(sc.Rows32))
	for i, r := range sc.Rows32 {
		wide[i] = append([]float32{0.5}, r...)
	}
	var held backend.Held
	before := be.Model()
	for attempt := 0; attempt < 2; attempt++ {
		if err := be.RunEpoch(&backend.Stream{Rows32: wide, Held: &held}); err == nil {
			t.Fatal("an epoch of rows wider than the program's tuples ran")
		}
		if err := be.SetModel(before); err != nil { // what runEpochRecover does
			t.Fatal(err)
		}
		if b, d := reg.Get(obs.WeaveBuilds), reg.Get(obs.WeaveDecodes); b != 1 || d != 1 {
			t.Fatalf("attempt %d: %d builds, %d decodes, want 1 and 1", attempt, b, d)
		}
	}

	// Reconfigured: the ranges the wide rows fixed go with the stage.
	if err := be.Configure(p); err != nil {
		t.Fatal(err)
	}
	ragged := append([][]float32{{1, 2}}, sc.Rows32...)
	var empty backend.Held
	if err := be.RunEpoch(&backend.Stream{Rows32: ragged, Held: &empty}); !errors.Is(err, storage.ErrWeaveUnsupported) {
		t.Fatalf("ragged rows: %v, want ErrWeaveUnsupported", err)
	}
	if b := reg.Get(obs.WeaveBuilds); b != 1 {
		t.Errorf("%d builds after a weave that failed, want 1", b)
	}
	// The holder is still empty: good rows under it weave from scratch.
	if err := be.RunEpoch(&backend.Stream{Rows32: sc.Rows32, Held: &empty}); err != nil {
		t.Fatal(err)
	}
	if b := reg.Get(obs.WeaveBuilds); b != 2 {
		t.Errorf("%d builds after the first good epoch under the holder, want 2", b)
	}
}

// TestWeaveHeldEpochAllocationFree: from the second epoch under one
// holder on, the weave stage hands back the rows it decoded and the epoch
// is the engine's alone — nothing is allocated.
func TestWeaveHeldEpochAllocationFree(t *testing.T) {
	sc := backend.GenScenario(1)
	p, err := backend.BuildProgram(sc, backend.ConformanceEnv())
	if err != nil {
		t.Fatal(err)
	}
	p.Bits = 8
	be := backend.NewWeaveAccel(backend.ConformanceEnv())
	if err := be.Configure(p); err != nil {
		t.Fatal(err)
	}
	defer be.Close()
	st := &backend.Stream{Rows32: sc.Rows32, Held: new(backend.Held)}
	if err := be.RunEpoch(st); err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(10, func() {
		if err := be.RunEpoch(st); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("a held weave epoch allocates %v times from the second on, want 0", allocs)
	}
}
