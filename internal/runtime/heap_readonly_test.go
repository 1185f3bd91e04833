package runtime

import (
	"crypto/sha256"
	"fmt"
	"sync"
	"testing"
	"time"

	"dana/internal/datagen"
	"dana/internal/fault"
	"dana/internal/storage"
)

// heapImage hashes every page of rel in page order.
func heapImage(t *testing.T, rel *storage.Relation) [][sha256.Size]byte {
	t.Helper()
	sums := make([][sha256.Size]byte, rel.NumPages())
	for i := range sums {
		pg, err := rel.Page(i)
		if err != nil {
			t.Fatal(err)
		}
		sums[i] = sha256.Sum256(pg)
	}
	return sums
}

// TestReadPathsNeverWriteTheHeap: pool frames are the heap's own page
// images, so no read path may write one. Every heap page hashes the same
// after a cold, a warm and a spill Train, a Score, and Trains through
// two pools attached to the one relation with every read torn and then
// bit-flipped — the server's tenants share a generated heap the same way.
func TestReadPathsNeverWriteTheHeap(t *testing.T) {
	w, err := datagen.ByName("Patient")
	if err != nil {
		t.Fatal(err)
	}
	d, err := datagen.Generate(w, 0.02, storage.PageSize8K, 42)
	if err != nil {
		t.Fatal(err)
	}
	if d.Rel.NumPages()*storage.PageSize8K <= spillPoolBytes {
		t.Fatalf("%d pages fit the spill pool", d.Rel.NumPages())
	}
	system := func(poolBytes int64, in *fault.Injector) (*System, string) {
		t.Helper()
		opts := DefaultOptions()
		opts.PageSize = storage.PageSize8K
		opts.Cost.PoolBytes = poolBytes
		opts.MaxEpochs = 2
		opts.Faults = in
		s := New(opts)
		if err := s.Deploy(d); err != nil {
			t.Fatal(err)
		}
		a, err := d.DSLAlgo(8)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Register(a, 8, d.Tuples); err != nil {
			t.Fatal(err)
		}
		return s, a.Name
	}
	want := heapImage(t, d.Rel)
	unchanged := func(what string) {
		t.Helper()
		for i, sum := range heapImage(t, d.Rel) {
			if sum != want[i] {
				t.Fatalf("%s wrote heap page %d", what, i)
			}
		}
	}
	train := func(s *System, udf string) {
		t.Helper()
		if _, err := s.Train(udf, d.Rel.Name); err != nil {
			t.Fatal(err)
		}
	}

	s, udf := system(32<<20, nil)
	train(s, udf)
	unchanged("a cold Train")
	if err := s.DropCaches(); err != nil {
		t.Fatal(err)
	}
	if err := s.WarmTable(d.Rel.Name); err != nil {
		t.Fatal(err)
	}
	train(s, udf)
	unchanged("a warm Train")
	if n, err := s.Score(udf, d.Rel.Name, nil); err != nil || n != d.Tuples {
		t.Fatalf("Score: %d rows of %d, %v", n, d.Tuples, err)
	}
	unchanged("a Score")
	spill, udf := system(spillPoolBytes, nil)
	train(spill, udf)
	unchanged("a spill Train")

	// One injector per pool, as each tenant has its own: a tear on the
	// first read of every page, a bit flip on the second, the third clean.
	for tenant := 0; tenant < 2; tenant++ {
		rs := rate(fault.PageTear, 1)
		rs[fault.PageBitFlip] = 1
		in := fault.New(fault.Config{Seed: uint64(tenant + 1), Rates: rs, TransientAttempts: 1})
		s, udf := system(32<<20, in)
		train(s, udf)
		if in.Count(fault.PageTear) == 0 || in.Count(fault.PageBitFlip) == 0 || s.Pool().Stats().ChecksumFailures == 0 {
			t.Fatalf("pool %d: %d tears, %d bit flips, %d checksum failures", tenant,
				in.Count(fault.PageTear), in.Count(fault.PageBitFlip), s.Pool().Stats().ChecksumFailures)
		}
		unchanged(fmt.Sprintf("a torn and bit-flipped Train through pool %d", tenant))
	}
}

// TestInsertWhilePagesAreRead: one goroutine inserts while others pin,
// walk and unpin the relation's pages and run Score, which reads
// Relation.Page without the pool. It holds the copy-on-write contract: a
// mutation never writes an image a reader was handed, so every pinned
// page — the last one held across a few inserts — keeps its bytes and
// checksum until it is unpinned, and -race sees no write to a read page.
func TestInsertWhilePagesAreRead(t *testing.T) {
	s := smallSystem(t)
	d := deployScaled(t, s, "Patient", 0.02)
	a, err := d.DSLAlgo(8)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Register(a, 8, d.Tuples); err != nil {
		t.Fatal(err)
	}
	rel, pool := d.Rel, s.Pool()
	stop := make(chan struct{})
	errs := make(chan error, 3)
	var wg sync.WaitGroup
	pinWalk := func() error {
		vals := make([]float64, 0, rel.Schema.NumCols())
		skip := func(int, []float64) (bool, error) { return true, nil }
		for {
			// Last page first: it is the one the inserts land on.
			for last, pn := rel.NumPages()-1, rel.NumPages()-1; pn >= 0; pn-- {
				pg, err := pool.Pin(rel.Name, uint32(pn))
				if err != nil {
					return err
				}
				sum := sha256.Sum256(pg)
				if pn == last {
					time.Sleep(200 * time.Microsecond) // held across a few inserts
				}
				if _, err = pg.ScanTuples(rel.Schema, vals, skip); err == nil && (sha256.Sum256(pg) != sum || !pg.ChecksumOK()) {
					err = fmt.Errorf("page %d changed while pinned", pn)
				}
				if uerr := pool.Unpin(rel.Name, uint32(pn)); err == nil {
					err = uerr
				}
				if err != nil {
					return err
				}
			}
			select {
			case <-stop:
				return nil
			default:
			}
		}
	}
	score := func() error {
		for {
			n, err := s.Score(a.Name, rel.Name, nil)
			if err != nil {
				return err
			}
			if n < d.Tuples {
				return fmt.Errorf("a Score beside inserts saw %d rows of at least %d", n, d.Tuples)
			}
			select {
			case <-stop:
				return nil
			default:
			}
		}
	}
	for _, reader := range []func() error{pinWalk, pinWalk, score} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs <- reader()
		}()
	}
	// Three pages' worth of inserts, paced by the wall clock rather than
	// by the readers: any synchronisation with them would order their
	// reads before the writes and hide a race from the detector.
	row := make([]float64, rel.Schema.NumCols())
	for i := 0; i < 3*rel.TuplesPerPage(); i++ {
		if _, err := rel.Insert(row); err != nil {
			t.Error(err)
			break
		}
		time.Sleep(50 * time.Microsecond)
	}
	close(stop)
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Error(err)
		}
	}
	if n, err := s.Score(a.Name, rel.Name, nil); err != nil || n != rel.NumTuples() {
		t.Fatalf("Score after the inserts: %d rows of %d, %v", n, rel.NumTuples(), err)
	}
}
