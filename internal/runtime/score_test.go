package runtime

import (
	"errors"
	"math"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"dana/internal/algos"
	"dana/internal/backend"
	"dana/internal/bufpool"
	"dana/internal/dsl"
	"dana/internal/storage"
	"dana/internal/verify"
)

// TestScoreMatchesNarrowedRows: on random fixed-width schemas the
// verify generator draws — every page size and column type, at least
// three pages a table, the last one partial — each score Score computes
// for the linear, logistic and SVM UDFs equals, bit for bit, RowScorer
// over the relation's narrowed rows, and Score scores NumTuples rows.
// Each table is scored in a pool that holds it and in one of two frames
// that it spills: a first Score walks the pages through the pool, a
// second runs on the kept pass, and a third follows a Train, so in the
// pool that holds the table it replays the record cache. No Score leaves
// a pin behind, and a Score whose pin finds every frame held returns the
// pool's typed error and leaves only the holder's pins.
func TestScoreMatchesNarrowedRows(t *testing.T) {
	pageSizes, types := map[int]bool{}, map[storage.ColType]bool{}
	classes := map[backend.Class]bool{}
	for seed := int64(1); seed <= 12; seed++ {
		g := verify.NewGen(seed)
		pageSize := g.PageSize()
		sch := g.Schema(16)
		for sch.NumCols() < 2 {
			sch = g.Schema(16)
		}
		rel := storage.NewRelation("scored", sch, pageSize)
		per := rel.TuplesPerPage()
		for i, n := 0, 3*per+1+g.Intn(per-1); i < n; i++ {
			if _, err := rel.Insert(g.Row(sch)); err != nil {
				t.Fatal(err)
			}
		}
		pageSizes[pageSize] = true
		for _, c := range sch.Cols {
			types[c.Type] = true
		}
		rows, err := storage.NarrowedRows[float64](rel)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(seed))
		nf := sch.NumCols() - 1
		h := algos.Hyper{LR: 0.1, Epochs: 1}
		for _, spill := range []bool{false, true} {
			opts := DefaultOptions()
			opts.PageSize = pageSize
			opts.Cost.PoolBytes = 8 << 20
			if spill {
				opts.Cost.PoolBytes = 2 * int64(pageSize)
			}
			s := New(opts)
			if err := s.DB.Cat.AttachTable(rel); err != nil {
				t.Fatal(err)
			}
			if err := s.DB.Pool.AttachRelation(rel); err != nil {
				t.Fatal(err)
			}
			if fits := rel.NumPages() <= s.DB.Pool.NumFrames(); fits == spill {
				t.Fatalf("seed %d: %d pages in %d frames, spill=%v", seed, rel.NumPages(), s.DB.Pool.NumFrames(), spill)
			}
			var name string
			for _, a := range []func(int, algos.Hyper) *dsl.Algo{algos.Linear, algos.Logistic, algos.SVM} {
				algo := a(nf, h)
				name = algo.Name
				if _, err := s.Register(algo, 1, rel.NumTuples()); err != nil {
					t.Fatal(err)
				}
				udf, err := s.Catalog().UDF(algo.Name)
				if err != nil {
					t.Fatal(err)
				}
				class := backend.Classify(udf.Graph)
				classes[class] = true
				for round := 0; round < 3; round++ {
					if round == 2 {
						if _, err := s.Train(algo.Name, rel.Name); err != nil {
							t.Fatal(err)
						}
						if cached := s.cache.lookup(rel, s.DB.Pool.InvalidationCount()) != nil; cached == spill {
							t.Fatalf("seed %d spill=%v: the record cache holds the table: %v", seed, spill, cached)
						}
					}
					model := make([]float32, udf.Graph.ModelSize())
					model64 := make([]float64, len(model))
					for i := range model {
						model[i] = float32(rng.NormFloat64() / 10)
						model64[i] = float64(model[i])
					}
					ref, err := backend.NewRowScorer(class, udf.Graph, model64)
					if err != nil {
						t.Fatal(err)
					}
					var got []float64
					n, err := s.score(algo.Name, rel.Name, model, func(i int, v float64) {
						if i != len(got) {
							t.Fatalf("score %d handed as row %d", len(got), i)
						}
						got = append(got, v)
					})
					if err != nil {
						t.Fatal(err)
					}
					if pins := s.DB.Pool.PinnedCount(); pins != 0 {
						t.Fatalf("seed %d %s spill=%v round %d: Score left %d pins", seed, class, spill, round, pins)
					}
					if n != rel.NumTuples() || len(got) != n || len(rows) != n {
						t.Fatalf("seed %d %s spill=%v round %d: Score scored %d rows (%d handed), table holds %d, narrowed %d",
							seed, class, spill, round, n, len(got), rel.NumTuples(), len(rows))
					}
					for i, row := range rows {
						want, err := ref.Score(i, row)
						if err != nil {
							t.Fatal(err)
						}
						if math.Float64bits(got[i]) != math.Float64bits(want) {
							t.Fatalf("seed %d %s spill=%v round %d row %d (page size %d, schema %v): Score %v, RowScorer over NarrowedRows %v",
								seed, class, spill, round, i, pageSize, sch, got[i], want)
						}
					}
				}
			}
			if spill {
				scoreWithEveryFrameHeld(t, s, name, rel)
			}
		}
	}
	for _, ps := range []int{storage.PageSize8K, storage.PageSize16K, storage.PageSize32K} {
		if !pageSizes[ps] {
			t.Errorf("no seed drew %d-byte pages", ps)
		}
	}
	for _, ct := range []storage.ColType{storage.TInt32, storage.TInt64, storage.TFloat32, storage.TFloat64} {
		if !types[ct] {
			t.Errorf("no seed drew a %v column", ct)
		}
	}
	for _, c := range []backend.Class{backend.ClassLinear, backend.ClassLogistic, backend.ClassSVM} {
		if !classes[c] {
			t.Errorf("class %s never scored", c)
		}
	}
}

// scoreWithEveryFrameHeld pins the first pages of rel into every frame of
// s's pool, which is smaller than rel, and Scores udf over it: the Score
// must fail with the pool's typed error once it reaches a page with no
// frame to go to, holding none of its own pins.
func scoreWithEveryFrameHeld(t *testing.T, s *System, udf string, rel *storage.Relation) {
	t.Helper()
	pool := s.DB.Pool
	frames := pool.NumFrames()
	for pn := 0; pn < frames; pn++ {
		if _, err := pool.Pin(rel.Name, uint32(pn)); err != nil {
			t.Fatal(err)
		}
		defer func() {
			if err := pool.Unpin(rel.Name, uint32(pn)); err != nil {
				t.Error(err)
			}
		}()
	}
	n, err := s.Score(udf, rel.Name, nil)
	if !errors.Is(err, bufpool.ErrNoFreeFrames) {
		t.Errorf("Score with every frame held = %d, %v; want ErrNoFreeFrames", n, err)
	}
	if pins := pool.PinnedCount(); pins != frames {
		t.Errorf("a failed Score left %d pins; the test holds %d", pins, frames)
	}
}

// TestScoreRefusesDeadTuples: the walker would decode a dead line
// pointer's storage as a live row, so Score refuses a relation with dead
// tuples, typed and naming VACUUM, as Train does; after Vacuum it scores
// the live tuples.
func TestScoreRefusesDeadTuples(t *testing.T) {
	s := smallSystem(t)
	d := deployScaled(t, s, "Patient", 0.02)
	a, err := d.DSLAlgo(8)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Register(a, 8, d.Tuples); err != nil {
		t.Fatal(err)
	}
	if err := d.Rel.Delete(storage.TID{Page: 0, Item: 3}); err != nil {
		t.Fatal(err)
	}
	n, err := s.Score(a.Name, d.Rel.Name, nil)
	if !errors.Is(err, storage.ErrBadItem) || !strings.Contains(err.Error(), "VACUUM") {
		t.Fatalf("Score after Delete = %d, %v; want ErrBadItem naming VACUUM", n, err)
	}
	if err := d.Rel.Vacuum(); err != nil {
		t.Fatal(err)
	}
	if n, err := s.Score(a.Name, d.Rel.Name, nil); err != nil || n != d.Tuples-1 {
		t.Fatalf("Score after Vacuum = %d, %v; want %d rows", n, err, d.Tuples-1)
	}
}

// TestScoreAllocationsDoNotGrowWithPages: a warm Score over Remote
// Sensing LR allocates the same few objects on a table four times as
// long, so nothing is allocated per page or per row, and it builds
// neither a pass nor a page buffer: both were kept.
func TestScoreAllocationsDoNotGrowWithPages(t *testing.T) {
	var allocs [2]float64
	var pages [2]int
	for i, scale := range []float64{0.01, 0.04} {
		s := smallSystem(t)
		d := deployScaled(t, s, "Remote Sensing LR", scale)
		a, err := d.DSLAlgo(8)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Register(a, 8, d.Tuples); err != nil {
			t.Fatal(err)
		}
		udf, err := s.Catalog().UDF(a.Name)
		if err != nil {
			t.Fatal(err)
		}
		model := make([]float32, udf.Graph.ModelSize())
		for j := range model {
			model[j] = 0.01
		}
		score := func() {
			if n, err := s.Score(a.Name, d.Rel.Name, model); err != nil || n != d.Tuples {
				t.Fatalf("Score = %d, %v; want %d rows", n, err, d.Tuples)
			}
		}
		score()
		allocs[i], pages[i] = testing.AllocsPerRun(5, score), d.Rel.NumPages()
	}
	t.Logf("warm Score: %v allocs over %d pages, %v over %d", allocs[0], pages[0], allocs[1], pages[1])
	if pages[1] < 3*pages[0] {
		t.Fatalf("%d pages at scale 0.04 against %d at 0.01: the tables do not differ enough", pages[1], pages[0])
	}
	if allocs[0] != allocs[1] || allocs[1] > 4 {
		t.Errorf("warm Score allocated %v objects over %d pages and %v over %d; want the same few (<= 4)",
			allocs[0], pages[0], allocs[1], pages[1])
	}
}

// TestConcurrentScoreAndTrain: a Score and a Train of one UDF run at
// once on one System. Each checks out its own state (the kept pass, the
// kept backend), both read the relation, and each Score still scores
// every row.
func TestConcurrentScoreAndTrain(t *testing.T) {
	s := smallSystem(t)
	d := deployScaled(t, s, "Patient", 0.02)
	a, err := d.DSLAlgo(8)
	if err != nil {
		t.Fatal(err)
	}
	a.SetEpochs(2)
	if _, err := s.Register(a, 8, d.Tuples); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for _, job := range []func() error{
		func() error { _, err := s.Train(a.Name, d.Rel.Name); return err },
		func() error {
			n, err := s.Score(a.Name, d.Rel.Name, nil)
			if err == nil && n != d.Tuples {
				err = errors.New("a Score beside a Train missed rows")
			}
			return err
		},
	} {
		for r := 0; r < 2; r++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				errs <- job()
			}()
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Error(err)
		}
	}
}
