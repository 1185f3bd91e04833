package bufpool

// The frame table grows to the pages the pool holds. These tests hold the
// lazily grown pool to a clock over an eagerly sized table, the way the
// pool ran while New allocated every frame up front: the same seeded mix
// of pins, unpins and invalidations must make the same choices.

import (
	"errors"
	"fmt"
	"maps"
	"math/rand"
	"testing"

	"dana/internal/cost"
	"dana/internal/obs"
	"dana/internal/storage"
)

// refFrame is one frame of the reference clock.
type refFrame struct {
	id    PageID
	pins  int32
	usage uint8
	valid bool
}

// refClock is the clock sweep over an eagerly sized frame table: every
// frame exists from the start, invalid until the hand hands it out.
type refClock struct {
	frames                          []refFrame
	table                           map[PageID]int
	hand                            int
	hits, misses, evictions, sweeps int64
}

func newRefClock(nframes int) *refClock {
	return &refClock{frames: make([]refFrame, nframes), table: make(map[PageID]int, nframes)}
}

func (c *refClock) pin(id PageID) error {
	if fi, ok := c.table[id]; ok {
		f := &c.frames[fi]
		f.pins++
		if f.usage < 5 {
			f.usage++
		}
		c.hits++
		return nil
	}
	fi, err := c.evict()
	if err != nil {
		return err
	}
	if f := &c.frames[fi]; f.valid {
		delete(c.table, f.id)
		c.evictions++
	}
	c.frames[fi] = refFrame{id: id, pins: 1, usage: 1, valid: true}
	c.table[id] = fi
	c.misses++
	return nil
}

func (c *refClock) evict() (int, error) {
	n := len(c.frames)
	for pass := 0; pass < 6*n; pass++ {
		idx := c.hand
		c.hand = (c.hand + 1) % n
		c.sweeps++
		f := &c.frames[idx]
		if !f.valid {
			return idx, nil
		}
		if f.pins > 0 {
			continue
		}
		if f.usage > 0 {
			f.usage--
			continue
		}
		return idx, nil
	}
	return 0, ErrNoFreeFrames
}

func (c *refClock) unpin(id PageID) error {
	fi, ok := c.table[id]
	if !ok || c.frames[fi].pins <= 0 {
		return fmt.Errorf("unpin of %v", id)
	}
	c.frames[fi].pins--
	return nil
}

func (c *refClock) invalidate() error {
	for _, f := range c.frames {
		if f.pins > 0 {
			return fmt.Errorf("%v is pinned", f.id)
		}
	}
	clear(c.frames)
	clear(c.table)
	c.hand = 0
	return nil
}

func (c *refClock) invalidateRelation(rel string) error {
	for _, f := range c.frames {
		if f.valid && f.id.Rel == rel && f.pins > 0 {
			return fmt.Errorf("%v is pinned", f.id)
		}
	}
	for i, f := range c.frames {
		if f.valid && f.id.Rel == rel {
			delete(c.table, f.id)
			c.frames[i] = refFrame{}
		}
	}
	return nil
}

// diffClock drives the pool and the reference with one seeded op mix and
// reports the first difference: an op that fails on one side only, or —
// after every op — hits, misses, evictions, sweep steps or the page
// table (which page sits in which frame).
func diffClock(seed int64, nframes int, rels ...*storage.Relation) error {
	p := New(nframes, storage.PageSize8K, cost.Default().Disk)
	reg := obs.New()
	p.SetObs(reg)
	for _, r := range rels {
		if err := p.AttachRelation(r); err != nil {
			return err
		}
	}
	ref := newRefClock(nframes)
	rng := rand.New(rand.NewSource(seed))
	var pinned []PageID
	defer func() {
		for _, id := range pinned {
			_ = p.Unpin(id.Rel, id.Page)
		}
	}()
	// Pins are held up to half the pool (two on a one-frame pool, so that
	// every frame is pinned now and then); an invalidation fails while
	// any page is pinned, and an "unpin all" lets the next one succeed.
	limit := max(2, nframes/2+1)
	for op := 0; op < 4000; op++ {
		var what string
		var got, want error
		switch x := rng.Intn(100); {
		case x < 50 && len(pinned) < limit || len(pinned) == 0:
			r := rels[rng.Intn(len(rels))]
			id := PageID{Rel: r.Name, Page: uint32(rng.Intn(r.NumPages()))}
			what = "pin " + id.String()
			_, got = p.Pin(id.Rel, id.Page)
			want = ref.pin(id)
			if got == nil {
				pinned = append(pinned, id)
			}
		case x < 90:
			i := rng.Intn(len(pinned))
			id := pinned[i]
			pinned[i] = pinned[len(pinned)-1]
			pinned = pinned[:len(pinned)-1]
			what = "unpin " + id.String()
			got, want = p.Unpin(id.Rel, id.Page), ref.unpin(id)
		case x < 93:
			what = "invalidate"
			got, want = p.Invalidate(), ref.invalidate()
		case x < 96:
			r := rels[rng.Intn(len(rels))]
			what = "invalidate " + r.Name
			got, want = p.InvalidateRelation(r.Name), ref.invalidateRelation(r.Name)
			if got == nil {
				if err := p.AttachRelation(r); err != nil {
					return err
				}
			}
		default:
			what = "unpin all"
			for _, id := range pinned {
				if err := p.Unpin(id.Rel, id.Page); err != nil {
					return err
				}
				if err := ref.unpin(id); err != nil {
					return err
				}
			}
			pinned = pinned[:0]
		}
		if (got == nil) != (want == nil) {
			return fmt.Errorf("op %d (%s): pool %w, reference %w", op, what, got, want)
		}
		if got != nil && errors.Is(want, ErrNoFreeFrames) != errors.Is(got, ErrNoFreeFrames) {
			return fmt.Errorf("op %d (%s): pool %w, reference %w", op, what, got, want)
		}
		st := p.Stats()
		if st.Hits != ref.hits || st.Misses != ref.misses || st.Evictions != ref.evictions {
			return fmt.Errorf("op %d (%s): pool %d/%d/%d hits/misses/evictions, reference %d/%d/%d",
				op, what, st.Hits, st.Misses, st.Evictions, ref.hits, ref.misses, ref.evictions)
		}
		if s := reg.Get(obs.PoolSweepSteps); s != ref.sweeps {
			return fmt.Errorf("op %d (%s): %d sweep steps, reference %d", op, what, s, ref.sweeps)
		}
		if !maps.Equal(p.table, ref.table) {
			return fmt.Errorf("op %d (%s): resident pages differ from the reference's", op, what)
		}
		if len(p.frames) > nframes {
			return fmt.Errorf("op %d (%s): %d frames allocated, budget %d", op, what, len(p.frames), nframes)
		}
	}
	return nil
}

// TestLazyFramesMatchEagerClock: over pools smaller than, close to and
// larger than the pages asked of them, the lazily grown frame table makes
// every choice the eagerly sized clock makes.
func TestLazyFramesMatchEagerClock(t *testing.T) {
	a, b := testRelation(t, "a", 2000), testRelation(t, "b", 600)
	pages := a.NumPages() + b.NumPages()
	for _, nframes := range []int{1, 3, 16, pages - 1, pages, 200} {
		for seed := int64(1); seed <= 3; seed++ {
			if err := diffClock(seed, nframes, a, b); err != nil {
				t.Errorf("%d frames, seed %d: %v", nframes, seed, err)
			}
		}
	}
}

// TestPinIntoEmptyPool: a miss on a pool whose frame table holds
// nothing — new, or just invalidated — grows the table by one frame
// instead of looking at a frame that is not there.
func TestPinIntoEmptyPool(t *testing.T) {
	r := testRelation(t, "t", 100)
	p := newPool(t, 8, r)
	for round := 0; round < 2; round++ {
		if len(p.frames) != 0 {
			t.Fatalf("round %d: %d frames allocated before any pin", round, len(p.frames))
		}
		pg, err := p.Pin("t", 0)
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if err := pg.Validate(); err != nil {
			t.Fatal(err)
		}
		if err := p.Unpin("t", 0); err != nil {
			t.Fatal(err)
		}
		if len(p.frames) != 1 || p.NumFrames() != 8 {
			t.Fatalf("round %d: %d frames allocated of %d after one miss, want 1 of 8", round, len(p.frames), p.NumFrames())
		}
		if err := p.Invalidate(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestFrameTableGrowsToTheTable: a 91-page table read into a 256 MB pool
// of 32 KB pages allocates 91 of its 8 192 frames, and reading it again
// allocates none.
func TestFrameTableGrowsToTheTable(t *testing.T) {
	r := storage.NewRelation("t", storage.NumericSchema(54), storage.PageSize32K)
	vals := make([]float64, 55)
	for r.NumPages() < 91 {
		if _, err := r.Insert(vals); err != nil {
			t.Fatal(err)
		}
	}
	p := NewSized(256<<20, storage.PageSize32K, cost.Default().Disk)
	if err := p.AttachRelation(r); err != nil {
		t.Fatal(err)
	}
	for pass := 0; pass < 2; pass++ {
		if err := p.Scan("t", func([]float64) (bool, error) { return true, nil }); err != nil {
			t.Fatal(err)
		}
		if len(p.frames) != 91 || p.NumFrames() != 8192 {
			t.Fatalf("pass %d: %d frames allocated of %d, want 91 of 8192", pass, len(p.frames), p.NumFrames())
		}
	}
	if st := p.Stats(); st.Misses != 91 || st.Hits != 91 || st.Evictions != 0 {
		t.Errorf("stats %+v, want 91 misses, 91 hits, no evictions", st)
	}
}
