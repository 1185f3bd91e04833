package runtime

// The rewoven rows held beside the record cache: a Train that finds them
// neither weaves nor decodes and trains the bits of a Train that rewove
// every epoch; they are rebuilt exactly when the entry they sit in is
// replaced or another precision is asked of it; and Trains at different
// precisions can share one entry from different goroutines. (Pinned ranges are not
// reachable through Train; the backend's own tests cover them.)

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"sync"
	"testing"

	"dana/internal/backend"
	"dana/internal/engine"
	"dana/internal/fault"
	"dana/internal/obs"
	"dana/internal/weaving"
)

// weaveSystem is ftSystem pinned to the weave backend, so every
// precision — 0, the full 32 planes, included — takes the weave stage.
func weaveSystem(t *testing.T, mods ...func(*Options)) (*System, string, string) {
	return ftSystem(t, append([]func(*Options){func(o *Options) { o.Backend = backend.NameWeave }}, mods...)...)
}

// perEpochReference trains the accelerator machine on the record cache's
// rows rewoven by weaving.ReweaveRows before every epoch — what the weave
// stage did before anything was held — through Train's own epoch loop,
// and prices the run as the weave backend prices res's when res read
// nothing from disk.
func perEpochReference(t *testing.T, s *System, udfName, table string, precision int, res *TrainResult) (model []float32, stats engine.Stats, seconds float64) {
	t.Helper()
	udf, rel, acc, job, err := s.resolve(udfName, table, precision)
	if err != nil {
		t.Fatal(err)
	}
	reg, job, err := s.disp.Resolve(backend.NameWeave, job)
	if err != nil {
		t.Fatal(err)
	}
	weave := s.disp.Build(reg)
	ent := s.cache.lookup(rel, s.DB.Pool.InvalidationCount())
	if ent == nil {
		t.Fatal("no record-cache entry to take the reference's rows from")
	}
	ref := backend.NewAccel(backend.Env{Cost: s.Opts.Cost, FPGA: s.Opts.FPGA})
	if err := ref.Configure(s.programFor(udf, rel, acc, 0)); err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	ran := &TrainResult{}
	if err := trainLoop(ran, ref, job.Epochs, func(int) error {
		rewoven, _, err := weaving.ReweaveRows(ent.rows, nil, job.Bits, 0)
		if err != nil {
			return err
		}
		return ref.RunEpoch(&backend.Stream{Rows32: rewoven})
	}); err != nil {
		t.Fatal(err)
	}
	stats = ref.Counters()
	return model32(ref.Model()), stats, weave.ModeledSeconds(job, backend.Run{
		Epochs:        ran.Epochs,
		EngineCycles:  stats.Cycles,
		StriderCycles: res.Access.Cycles,
		Pages:         res.Access.Pages,
	})
}

// requireReference holds a Train's result to perEpochReference; the
// simulated seconds only of a warm Train, whose run charged no disk time.
func requireReference(t *testing.T, what string, s *System, udfName, table string, precision int, res *TrainResult, warm bool) {
	t.Helper()
	model, stats, seconds := perEpochReference(t, s, udfName, table, precision, res)
	if len(model) == 0 || len(model) != len(res.Model) {
		t.Fatalf("%s: model lengths %d vs %d", what, len(res.Model), len(model))
	}
	for i := range model {
		if math.Float32bits(res.Model[i]) != math.Float32bits(model[i]) {
			t.Fatalf("%s: model[%d] = %v, per-epoch reweave trains %v", what, i, res.Model[i], model[i])
		}
	}
	if res.Engine != stats {
		t.Fatalf("%s: engine counters diverge:\n   got=%+v\n  want=%+v", what, res.Engine, stats)
	}
	if warm && math.Float64bits(res.SimulatedSeconds) != math.Float64bits(seconds) {
		t.Fatalf("%s: simulated %v s, per-epoch reweave %v s", what, res.SimulatedSeconds, seconds)
	}
}

// weaveBuilds reads the weave stage's build counter (each build decodes
// its rows once, in the same pass).
func weaveBuilds(s *System) int64 { return s.Obs().Get(obs.WeaveBuilds) }

// TestTrainHeldEqualsPerEpochReweave: at every precision, the Train that
// weaves the held pages and the Train that only reads them both equal
// the per-epoch reference in model bits, engine counters and simulated
// seconds; the first weaves (and decodes) once, the second does neither.
func TestTrainHeldEqualsPerEpochReweave(t *testing.T) {
	s, udfName, table := weaveSystem(t)
	if _, err := s.train(udfName, table, 8); err != nil { // fills the record cache
		t.Fatal(err)
	}
	for _, precision := range []int{1, 2, 4, 16, 31, 0, 8} {
		for i, wantBuilds := range []int64{1, 0} {
			b0 := weaveBuilds(s)
			res, err := s.train(udfName, table, precision)
			if err != nil {
				t.Fatal(err)
			}
			what := fmt.Sprintf("precision %d train %d", precision, i)
			if res.Backend != backend.NameWeave || res.Epochs != ftEpochs {
				t.Fatalf("%s: %d epochs on %q", what, res.Epochs, res.Backend)
			}
			requireReference(t, what, s, udfName, table, precision, res, true)
			if b := weaveBuilds(s); b-b0 != wantBuilds {
				t.Errorf("%s: %d builds over %d epochs, want %d", what, b-b0, res.Epochs, wantBuilds)
			}
		}
	}
}

// insertRows appends n distinct tuples to the table — more than a page
// of them, so the relation grows pages the pool has never read.
func insertRows(t *testing.T, s *System, table string, n int) {
	t.Helper()
	rel, err := s.DB.Cat.Table(table)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		vals := make([]float64, rel.Schema.NumCols())
		for c := range vals {
			vals[c] = float64((i*31+c*7)%97)/97 - 0.5
		}
		if _, err := rel.Insert(vals); err != nil {
			t.Fatal(err)
		}
	}
}

// TestHeldRebuiltWithItsEntry: the held rows follow the record cache's
// rule and no other. A cold Train weaves and decodes the extracting
// epoch's rows into the holder of the entry that epoch fills, so its
// replays do neither; a warm Train weaves and decodes nothing; a heap
// mutation (generation bump) and a pool invalidation (ColdCache) each
// replace the entry, so the next Train weaves once again; another
// precision replaces the one held form, and going back replaces it again. Every Train equals the
// reference on the rows it saw.
func TestHeldRebuiltWithItsEntry(t *testing.T) {
	s, udfName, table := weaveSystem(t)
	step := func(what string, precision int, cold bool, wantBuilds int64) {
		t.Helper()
		b0 := weaveBuilds(s)
		res, err := s.train(udfName, table, precision)
		if err != nil {
			t.Fatal(err)
		}
		requireReference(t, what, s, udfName, table, precision, res, !cold)
		if b := weaveBuilds(s); b-b0 != wantBuilds {
			t.Errorf("%s: %d builds, want %d", what, b-b0, wantBuilds)
		}
	}
	step("cold", 8, true, 1)
	held := s.Obs().Get(obs.WeaveHeldBytes)
	if held <= 0 {
		t.Fatal("a cold Train published no held bytes")
	}
	step("warm", 8, false, 0)
	step("warm again", 8, false, 0)
	if got := s.Obs().Get(obs.WeaveHeldBytes); got != held {
		t.Errorf("warm Trains published %d more held bytes", got-held)
	}
	insertRows(t, s, table, 100)
	step("after Insert", 8, true, 1)
	step("warm after Insert", 8, false, 0)
	if err := s.DropCaches(); err != nil {
		t.Fatal(err)
	}
	step("after ColdCache", 8, true, 1)
	step("other precision", 4, false, 1)
	step("other precision, warm", 4, false, 0)
	step("first precision again", 8, false, 1)
}

// TestFailedExtractionDropsHeldWithEntry: a Strider that keeps trapping fails
// a cold Train's extracting epoch, which is retried on the healthy
// Striders. The entry the failed attempt was filling goes, holder and
// all; the retry fills a new one and weaves once more, into that one's
// holder. The Train equals the per-epoch reference, publishes the held
// bytes of a fault-free cold Train once, and the next Train neither
// weaves nor decodes.
func TestFailedExtractionDropsHeldWithEntry(t *testing.T) {
	clean, udfName, table := weaveSystem(t)
	if _, err := clean.train(udfName, table, 8); err != nil {
		t.Fatal(err)
	}
	s, udfName, table := weaveSystem(t, func(o *Options) {
		o.Faults = fault.New(fault.Config{
			Seed:              persistentTrapSeed,
			Rates:             rate(fault.StriderTrap, persistentTrapRate),
			TransientAttempts: -1,
		})
	})
	res, err := s.train(udfName, table, 8)
	if err != nil {
		t.Fatal(err)
	}
	if res.Degraded || obsCount(t, s, obs.RuntimeEpochRetries) == 0 {
		t.Fatalf("degraded %v after %d epoch retries: the schedule must fail and then recover the extracting epoch",
			res.Degraded, obsCount(t, s, obs.RuntimeEpochRetries))
	}
	requireReference(t, "faulted cold", s, udfName, table, 8, res, false)
	if b := weaveBuilds(s); b != 1 {
		t.Errorf("faulted cold Train: %d builds, want 1", b)
	}
	if got, want := s.Obs().Get(obs.WeaveHeldBytes), clean.Obs().Get(obs.WeaveHeldBytes); got != want {
		t.Errorf("faulted cold Train published %d held bytes, a fault-free one %d", got, want)
	}
	res, err = s.train(udfName, table, 8)
	if err != nil {
		t.Fatal(err)
	}
	requireReference(t, "warm after the fault", s, udfName, table, 8, res, true)
	if b := weaveBuilds(s); b != 1 {
		t.Errorf("warm Train after the fault: %d builds in all, want 1", b)
	}
}

// trainAfterInsert trains at k=8, grows the table, extracts the new rows
// into a new cache entry (a one-epoch Train), lets plant tamper with the
// cache, and reports whether a full Train then still equals the
// per-epoch reference on the new rows.
func trainAfterInsert(t *testing.T, plant func(s *System, old, fresh *cacheEntry)) error {
	t.Helper()
	s, udfName, table := weaveSystem(t)
	rel, err := s.DB.Cat.Table(table)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.train(udfName, table, 8); err != nil {
		t.Fatal(err)
	}
	old := s.cache.lookup(rel, s.DB.Pool.InvalidationCount())
	insertRows(t, s, table, 100)
	udf, err := s.DB.Cat.UDF(udfName)
	if err != nil {
		t.Fatal(err)
	}
	udf.Graph.Epochs = 1
	if _, err := s.train(udfName, table, 8); err != nil {
		t.Fatal(err)
	}
	udf.Graph.Epochs = ftEpochs
	fresh := s.cache.lookup(rel, s.DB.Pool.InvalidationCount())
	if old == nil || fresh == nil || fresh == old || len(fresh.rows) <= len(old.rows) {
		t.Fatal("the one-epoch Train did not replace the cache entry with the grown table's")
	}
	if plant != nil {
		plant(s, old, fresh)
	}
	res, err := s.train(udfName, table, 8)
	if err != nil {
		t.Fatal(err)
	}
	model, stats, _ := perEpochReference(t, s, udfName, table, 8, res)
	for i := range model {
		if math.Float32bits(res.Model[i]) != math.Float32bits(model[i]) {
			return fmt.Errorf("model[%d] = %v, per-epoch reweave of the new rows trains %v", i, res.Model[i], model[i])
		}
	}
	if res.Engine != stats {
		return fmt.Errorf("engine counters %+v, reference %+v", res.Engine, stats)
	}
	return nil
}

// TestMetaHeldSurvivingGenerationBumpCaught plants the one way the held
// pages could go stale — the new rows filed under the old entry's holder —
// and requires the reference comparison to catch it, after the same
// sequence passed untampered.
func TestMetaHeldSurvivingGenerationBumpCaught(t *testing.T) {
	if err := trainAfterInsert(t, nil); err != nil {
		t.Fatalf("pre-mutation: %v", err)
	}
	err := trainAfterInsert(t, func(s *System, old, fresh *cacheEntry) {
		// The old entry, holder and all, carries on with the new rows.
		old.gen, old.poolGen, old.pages, old.rows = fresh.gen, fresh.poolGen, fresh.pages, fresh.rows
		s.cache.store(old)
	})
	if err == nil {
		t.Fatal("held pages that outlived their rows went unnoticed: the check cannot fail")
	}
	t.Log(err)
}

// TestConcurrentWeaveTrainsShareOneEntry: two goroutines train one table
// of one System at k=8 and k=4, round after round, each replacing the
// other's held pages in the one record-cache entry. Every result equals
// the serial run's. Under -race this is the publication check.
func TestConcurrentWeaveTrainsShareOneEntry(t *testing.T) {
	s, udfName, table := weaveSystem(t)
	serial := map[int]*TrainResult{}
	for _, precision := range []int{8, 4} {
		for i := 0; i < 2; i++ { // the second is cache-served, like every concurrent one
			res, err := s.train(udfName, table, precision)
			if err != nil {
				t.Fatal(err)
			}
			serial[precision] = res
		}
	}
	misses := obsCount(t, s, obs.RuntimeCacheMisses)
	var wg sync.WaitGroup
	for _, precision := range []int{8, 4} {
		wg.Add(1)
		go func(precision int) {
			defer wg.Done()
			want := serial[precision]
			for round := 0; round < 6; round++ {
				res, err := s.train(udfName, table, precision)
				if err != nil {
					t.Errorf("k=%d round %d: %v", precision, round, err)
					return
				}
				if res.Engine != want.Engine || res.Epochs != want.Epochs ||
					math.Float64bits(res.SimulatedSeconds) != math.Float64bits(want.SimulatedSeconds) {
					t.Errorf("k=%d round %d: modeled outputs differ from the serial run's", precision, round)
				}
				for i := range want.Model {
					if math.Float32bits(res.Model[i]) != math.Float32bits(want.Model[i]) {
						t.Errorf("k=%d round %d: model[%d] = %v, serial %v", precision, round, i, res.Model[i], want.Model[i])
						return
					}
				}
			}
		}(precision)
	}
	wg.Wait()
	if got := obsCount(t, s, obs.RuntimeCacheMisses); got != misses {
		t.Errorf("the concurrent Trains missed the record cache %d times", got-misses)
	}
}

// heldChecksum folds the bits of the rows a holder keeps at k=8.
func heldChecksum(t *testing.T, ent *cacheEntry) uint64 {
	t.Helper()
	wv := ent.held.Lookup(8, nil)
	if wv == nil {
		t.Fatal("the record-cache entry holds no k=8 rows")
	}
	h := fnv.New64a()
	var b [4]byte
	for _, row := range wv.Rows() {
		for _, v := range row {
			binary.LittleEndian.PutUint32(b[:], math.Float32bits(v))
			h.Write(b[:])
		}
	}
	return h.Sum64()
}

// TestWarmWeaveTrainDecodesNothing: a warm Precision-8 Train on one
// System takes the rows the first Train decoded into the record-cache
// entry's holder. weave.builds does not move, the Train allocates no
// more than a warm Train of the same table on the accelerator backend
// (no row slab, no reweaver), the held rows are bit-unchanged after it,
// and every Train's model, engine counters and simulated seconds equal a
// twin's that gets a new holder before every Train.
func TestWarmWeaveTrainDecodesNothing(t *testing.T) {
	precision8 := func(o *Options) { o.Precision = 8 }
	s, udfName, table := weaveSystem(t, precision8)
	twin, _, _ := weaveSystem(t, precision8)
	entry := func(s *System) *cacheEntry {
		t.Helper()
		rel, err := s.DB.Cat.Table(table)
		if err != nil {
			t.Fatal(err)
		}
		ent := s.cache.lookup(rel, s.DB.Pool.InvalidationCount())
		if ent == nil {
			t.Fatal("no record-cache entry after a Train")
		}
		return ent
	}
	for i := 0; i < 3; i++ {
		res, err := s.Train(udfName, table)
		if err != nil {
			t.Fatal(err)
		}
		want, err := twin.Train(udfName, table)
		if err != nil {
			t.Fatal(err)
		}
		// The twin's entry again, with an empty holder of its own.
		ent := entry(twin)
		twin.cache.store(&cacheEntry{rel: ent.rel, gen: ent.gen, poolGen: ent.poolGen, pages: ent.pages, rows: ent.rows})
		if res.Engine != want.Engine || math.Float64bits(res.SimulatedSeconds) != math.Float64bits(want.SimulatedSeconds) {
			t.Fatalf("Train %d: modeled outputs differ from a twin with a new holder every Train", i)
		}
		for j := range want.Model {
			if math.Float32bits(res.Model[j]) != math.Float32bits(want.Model[j]) {
				t.Fatalf("Train %d: model[%d] = %v, a twin with a new holder every Train %v", i, j, res.Model[j], want.Model[j])
			}
		}
	}
	if b := obsCount(t, twin, obs.WeaveBuilds); b != 3 {
		t.Fatalf("the twin wove %d times over three Trains, want 3", b)
	}

	sum, builds := heldChecksum(t, entry(s)), obsCount(t, s, obs.WeaveBuilds)
	weaveAllocs := testing.AllocsPerRun(5, func() {
		if _, err := s.Train(udfName, table); err != nil {
			t.Fatal(err)
		}
	})
	if got := obsCount(t, s, obs.WeaveBuilds); got != builds {
		t.Errorf("warm Trains wove and decoded %d times", got-builds)
	}
	if got := heldChecksum(t, entry(s)); got != sum {
		t.Error("the held rows changed under a warm Train")
	}
	accel, udfName, table := ftSystem(t, func(o *Options) { o.Backend = backend.NameAccelerator })
	train := func() {
		if _, err := accel.Train(udfName, table); err != nil {
			t.Fatal(err)
		}
	}
	train()
	if accelAllocs := testing.AllocsPerRun(5, train); weaveAllocs > accelAllocs {
		t.Errorf("a warm k=8 Train allocates %.0f times, a warm full-precision one %.0f", weaveAllocs, accelAllocs)
	}
}
