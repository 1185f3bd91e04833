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
	"dana/internal/dsl"
	"dana/internal/storage"
	"dana/internal/verify"
)

// TestScoreMatchesNarrowedRows: on random fixed-width schemas the
// verify generator draws — every page size and column type, at least
// three pages a table, the last one partial — each score Score computes
// for the linear, logistic and SVM UDFs equals, bit for bit, RowScorer
// over the relation's narrowed rows, and Score scores NumTuples rows. A
// second Score with another model runs on the kept pass.
func TestScoreMatchesNarrowedRows(t *testing.T) {
	pageSizes, types := map[int]bool{}, map[storage.ColType]bool{}
	classes := map[backend.Class]bool{}
	for seed := int64(1); seed <= 12; seed++ {
		g := verify.NewGen(seed)
		opts := DefaultOptions()
		opts.PageSize = g.PageSize()
		opts.Cost.PoolBytes = 8 << 20
		s := New(opts)
		sch := g.Schema(16)
		for sch.NumCols() < 2 {
			sch = g.Schema(16)
		}
		rel := storage.NewRelation("scored", sch, opts.PageSize)
		per := rel.TuplesPerPage()
		for i, n := 0, 3*per+1+g.Intn(per-1); i < n; i++ {
			if _, err := rel.Insert(g.Row(sch)); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.DB.Cat.AttachTable(rel); err != nil {
			t.Fatal(err)
		}
		if err := s.DB.Pool.AttachRelation(rel); err != nil {
			t.Fatal(err)
		}
		pageSizes[opts.PageSize] = true
		for _, c := range sch.Cols {
			types[c.Type] = true
		}
		rows, _, err := rel.NarrowedRows(false)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(seed))
		nf := sch.NumCols() - 1
		h := algos.Hyper{LR: 0.1, Epochs: 1}
		for _, a := range []func(int, algos.Hyper) *dsl.Algo{algos.Linear, algos.Logistic, algos.SVM} {
			algo := a(nf, h)
			if _, err := s.Register(algo, 1, rel.NumTuples()); err != nil {
				t.Fatal(err)
			}
			udf, err := s.Catalog().UDF(algo.Name)
			if err != nil {
				t.Fatal(err)
			}
			class := backend.Classify(udf.Graph)
			classes[class] = true
			for round := 0; round < 2; round++ {
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
				if n != rel.NumTuples() || len(got) != n || len(rows) != n {
					t.Fatalf("seed %d %s round %d: Score scored %d rows (%d handed), table holds %d, narrowed %d",
						seed, class, round, n, len(got), rel.NumTuples(), len(rows))
				}
				for i, row := range rows {
					want, err := ref.Score(i, row)
					if err != nil {
						t.Fatal(err)
					}
					if math.Float64bits(got[i]) != math.Float64bits(want) {
						t.Fatalf("seed %d %s round %d row %d (page size %d, schema %v): Score %v, RowScorer over NarrowedRows %v",
							seed, class, round, i, opts.PageSize, sch, got[i], want)
					}
				}
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
	s.Opts.MaxEpochs = 2
	d := deployScaled(t, s, "Patient", 0.02)
	a, err := d.DSLAlgo(8)
	if err != nil {
		t.Fatal(err)
	}
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
