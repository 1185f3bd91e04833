package runtime

// The woven pages held beside the record cache: a Train that finds them
// decodes once and trains the bits of a Train that rewove every epoch;
// they are rebuilt exactly when the entry they sit in is replaced or
// another precision is asked of it; and Trains at different precisions
// can share one entry from different goroutines. (Pinned ranges are not
// reachable through Train; the backend's own tests cover them.)

import (
	"fmt"
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
	weave, _, job, err := s.disp.Resolve(backend.NameWeave, job)
	if err != nil {
		t.Fatal(err)
	}
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

// weaveCounts reads the weave stage's counters.
func weaveCounts(s *System) (builds, decodes int64) {
	return s.Obs().Get(obs.WeaveBuilds), s.Obs().Get(obs.WeaveDecodes)
}

// TestTrainHeldEqualsPerEpochReweave: at every precision, the Train that
// weaves the held pages and the Train that only reads them both equal
// the per-epoch reference in model bits, engine counters and simulated
// seconds; the first weaves once, the second not at all, each decodes
// once.
func TestTrainHeldEqualsPerEpochReweave(t *testing.T) {
	s, udfName, table := weaveSystem(t)
	if _, err := s.train(udfName, table, 8); err != nil { // fills the record cache
		t.Fatal(err)
	}
	for _, precision := range []int{1, 2, 4, 16, 31, 0, 8} {
		for i, wantBuilds := range []int64{1, 0} {
			b0, d0 := weaveCounts(s)
			res, err := s.train(udfName, table, precision)
			if err != nil {
				t.Fatal(err)
			}
			what := fmt.Sprintf("precision %d train %d", precision, i)
			if res.Backend != backend.NameWeave || res.Epochs != ftEpochs {
				t.Fatalf("%s: %d epochs on %q", what, res.Epochs, res.Backend)
			}
			requireReference(t, what, s, udfName, table, precision, res, true)
			if b, d := weaveCounts(s); b-b0 != wantBuilds || d-d0 != 1 {
				t.Errorf("%s: %d builds and %d decodes over %d epochs, want %d and 1", what, b-b0, d-d0, res.Epochs, wantBuilds)
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

// TestHeldRebuiltWithItsEntry: the held pages follow the record cache's
// rule and no other. A cold Train weaves the extracting epoch's rows into
// the holder of the entry that epoch fills, so its replays decode
// nothing more; a warm Train builds nothing; a heap mutation (generation
// bump) and a pool invalidation (ColdCache) each replace the entry, so
// the next Train weaves once again; another precision replaces the one
// held form, and going back replaces it again. Every Train equals the
// reference on the rows it saw.
func TestHeldRebuiltWithItsEntry(t *testing.T) {
	s, udfName, table := weaveSystem(t)
	step := func(what string, precision int, cold bool, wantBuilds, wantDecodes int64) {
		t.Helper()
		b0, d0 := weaveCounts(s)
		res, err := s.train(udfName, table, precision)
		if err != nil {
			t.Fatal(err)
		}
		requireReference(t, what, s, udfName, table, precision, res, !cold)
		if b, d := weaveCounts(s); b-b0 != wantBuilds || d-d0 != wantDecodes {
			t.Errorf("%s: %d builds, %d decodes, want %d and %d", what, b-b0, d-d0, wantBuilds, wantDecodes)
		}
	}
	step("cold", 8, true, 1, 1)
	held := s.Obs().Get(obs.WeaveHeldBytes)
	if held <= 0 {
		t.Fatal("a cold Train published no held bytes")
	}
	step("warm", 8, false, 0, 1)
	step("warm again", 8, false, 0, 1)
	if got := s.Obs().Get(obs.WeaveHeldBytes); got != held {
		t.Errorf("warm Trains published %d more held bytes", got-held)
	}
	insertRows(t, s, table, 100)
	step("after Insert", 8, true, 1, 1)
	step("warm after Insert", 8, false, 0, 1)
	if err := s.DropCaches(); err != nil {
		t.Fatal(err)
	}
	step("after ColdCache", 8, true, 1, 1)
	step("other precision", 4, false, 1, 1)
	step("other precision, warm", 4, false, 0, 1)
	step("first precision again", 8, false, 1, 1)
}

// TestFailedExtractionDropsHeldWithEntry: a Strider that keeps trapping fails
// a cold Train's extracting epoch, which is retried on the healthy
// Striders. The entry the failed attempt was filling goes, holder and
// all; the retry fills a new one and weaves once more, into that one's
// holder. The Train equals the per-epoch reference, publishes the held
// bytes of a fault-free cold Train once, and the next Train only decodes.
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
	if b, d := weaveCounts(s); b != 1 || d != 1 {
		t.Errorf("faulted cold Train: %d builds, %d decodes, want 1 and 1", b, d)
	}
	if got, want := s.Obs().Get(obs.WeaveHeldBytes), clean.Obs().Get(obs.WeaveHeldBytes); got != want {
		t.Errorf("faulted cold Train published %d held bytes, a fault-free one %d", got, want)
	}
	res, err = s.train(udfName, table, 8)
	if err != nil {
		t.Fatal(err)
	}
	requireReference(t, "warm after the fault", s, udfName, table, 8, res, true)
	if b, d := weaveCounts(s); b != 1 || d != 2 {
		t.Errorf("warm Train after the fault: %d builds, %d decodes in all, want 1 and 2", b, d)
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
	s.Opts.MaxEpochs = 1
	if _, err := s.train(udfName, table, 8); err != nil {
		t.Fatal(err)
	}
	s.Opts.MaxEpochs = ftEpochs
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
