package weaving

// The held form against its oracle. Rows a Reweaver wove into a lent
// Slot, or a Lookup found there, must be a fresh ReweaveRows' bits
// whatever was asked of the slot before: another precision, other
// ranges, other rows under another slot. The mutation
// meta-test plants one fault each in the lookup and in the owner's rule
// and requires the same differential to go red.

import (
	"fmt"
	"math"
	"slices"
	"sync"
	"testing"

	"dana/internal/storage"
)

type heldFunc func(w *Reweaver, rows [][]float32, ranges []storage.WeaveRange, slot *Slot) ([][]float32, error)

// reweaveHeld is the production composition: the rows the slot holds,
// or new ones woven into it.
func reweaveHeld(w *Reweaver, rows [][]float32, ranges []storage.WeaveRange, slot *Slot) ([][]float32, error) {
	if wv := slot.Lookup(w.ex.bits, ranges); wv != nil {
		return wv.Rows(), nil
	}
	wv, err := w.Weave(rows, ranges, slot)
	if err != nil {
		return nil, err
	}
	return wv.Rows(), nil
}

// heldWith is reweaveHeld with the slot lookup swapped. With
// (*Woven).serves it is Lookup's own rule, which the pre-mutation run
// shows.
func heldWith(serves func(wv *Woven, bits int, ranges []storage.WeaveRange) bool) heldFunc {
	return func(w *Reweaver, rows [][]float32, ranges []storage.WeaveRange, slot *Slot) ([][]float32, error) {
		if wv := slot.wv.Load(); wv != nil && serves(wv, w.ex.bits, ranges) {
			return wv.Rows(), nil
		}
		wv, err := w.Weave(rows, ranges, slot)
		if err != nil {
			return nil, err
		}
		return wv.Rows(), nil
	}
}

// heldRowsOf is kernelRowsOf with the infinities taken out, so ranges can
// be derived from the rows (an infinite minimum is no range).
func heldRowsOf(seed int64, ncols, nrows int) [][]float32 {
	rows := kernelRowsOf(seed, ncols, nrows)
	for _, row := range rows {
		for c, v := range row[:ncols] {
			if math.IsInf(float64(v), 0) {
				row[c] = float32(c)
			}
		}
	}
	return rows
}

// heldStep is one request against the row set of one version.
type heldStep struct {
	version int
	bits    int
	ranges  string // "derived", "grid", "wide" or "own" (the derived ranges, pinned)
}

// heldScript walks the slot through every replacement: the same request
// again, precision down and back up (twice), pinned ranges after derived and
// other pinned ranges after those, the rows' own ranges pinned and then
// derived, and new rows (a new version) under each of those.
var heldScript = []heldStep{
	{0, 8, "derived"}, {0, 8, "derived"}, {0, 4, "derived"}, {0, 8, "derived"},
	{0, 8, "grid"}, {0, 8, "wide"}, {0, 8, "derived"}, {0, 8, "own"}, {0, 8, "derived"},
	{0, 32, "grid"}, {0, 1, "grid"}, {0, 31, "grid"}, {0, 2, "wide"}, {0, 16, "wide"},
	{1, 31, "grid"}, {1, 8, "derived"}, {2, 8, "derived"}, {2, 8, "own"}, {1, 8, "own"},
}

// diffHeld runs the script over row sets of several shapes, through
// reweavers kept per precision (as a Train keeps one) and the slot the
// owner's rule slotOf names for the step's version, and holds every
// result to a fresh ReweaveRows, float32 bit for bit. A step that panics
// is a failure like any other.
func diffHeld(reweave heldFunc, slotOf func(slots []Slot, version int) *Slot) error {
	const block = 128
	for _, sh := range []struct{ ncols, nrows int }{{54, 300}, {7, 129}, {3, 64}, {2, 1}} {
		versions := make([][][]float32, 3)
		for v := range versions {
			versions[v] = heldRowsOf(int64(100*v+sh.ncols), sh.ncols, sh.nrows)
		}
		slots := make([]Slot, len(versions))
		reweavers := map[int]*Reweaver{}
		for i, st := range heldScript {
			rows := versions[st.version]
			var ranges []storage.WeaveRange
			switch st.ranges {
			case "grid":
				ranges = kernelRanges(sh.ncols)
			case "wide":
				ranges = kernelRanges(sh.ncols)
				for c := range ranges {
					ranges[c] = storage.WeaveRange{Offset: -8, Scale: 16}
				}
			case "own":
				ranges = storage.WeaveRanges(rows, sh.ncols)
			}
			w := reweavers[st.bits]
			if w == nil {
				var err error
				if w, err = NewReweaver(st.bits, block); err != nil {
					return err
				}
				reweavers[st.bits] = w
			}
			got, err := func() (got [][]float32, err error) {
				defer func() {
					if p := recover(); p != nil {
						err = fmt.Errorf("panic: %v", p)
					}
				}()
				return reweave(w, rows, ranges, slotOf(slots, st.version))
			}()
			if err != nil {
				return fmt.Errorf("%d×%d step %d %+v: %w", sh.nrows, sh.ncols, i, st, err)
			}
			want, _, err := ReweaveRows(rows, ranges, st.bits, block)
			if err != nil {
				return err
			}
			if len(got) != len(want) {
				return fmt.Errorf("%d×%d step %d %+v: %d rows back, want %d", sh.nrows, sh.ncols, i, st, len(got), len(want))
			}
			for r := range want {
				for c := range want[r] {
					if math.Float32bits(got[r][c]) != math.Float32bits(want[r][c]) {
						return fmt.Errorf("%d×%d step %d %+v: row %d col %d held %v, ReweaveRows %v",
							sh.nrows, sh.ncols, i, st, r, c, got[r][c], want[r][c])
					}
				}
			}
		}
	}
	return nil
}

// slotPerVersion is the owner's rule: rows that changed come with a new
// slot.
func slotPerVersion(slots []Slot, version int) *Slot { return &slots[version] }

var heldGreen = sync.OnceValue(func() error { return diffHeld(reweaveHeld, slotPerVersion) })

func TestHeldMatchesReweaveRows(t *testing.T) {
	if err := heldGreen(); err != nil {
		t.Fatal(err)
	}
	if err := diffHeld(heldWith((*Woven).serves), slotPerVersion); err != nil {
		t.Fatalf("heldWith(serves) is not the production rule: %v", err)
	}
}

func TestMetaHeldFaultsCaught(t *testing.T) {
	if err := heldGreen(); err != nil {
		t.Fatalf("pre-mutation: %v", err)
	}
	for name, mutant := range map[string]struct {
		reweave heldFunc
		slotOf  func([]Slot, int) *Slot
	}{
		"lookup ignores the precision": {heldWith(func(wv *Woven, _ int, ranges []storage.WeaveRange) bool {
			return wv.serves(wv.bits, ranges)
		}), slotPerVersion},
		"lookup ignores the ranges": {heldWith(func(wv *Woven, bits int, _ []storage.WeaveRange) bool {
			return wv.bits == bits
		}), slotPerVersion},
		"pinned ranges pass for derived": {heldWith(func(wv *Woven, bits int, ranges []storage.WeaveRange) bool {
			return wv.serves(bits, ranges) || (ranges == nil && wv.bits == bits)
		}), slotPerVersion},
		"the slot outlives its rows": {reweaveHeld, func(slots []Slot, _ int) *Slot { return &slots[0] }},
	} {
		t.Run(name, func(t *testing.T) {
			err := diffHeld(mutant.reweave, mutant.slotOf)
			if err == nil {
				t.Fatal("mutant passed the differential: the check cannot fail")
			}
			t.Log(err)
		})
	}
}

// TestWeaveBuildsOnlyOnAMiss pins what replaces a slot's Woven and what
// does not, what a build leaves in the slot, and that a published Woven is
// never written again — not by the reweaver that built it, not by one
// that replaces it.
func TestWeaveBuildsOnlyOnAMiss(t *testing.T) {
	rows := heldRowsOf(9, 54, 300)
	own := storage.WeaveRanges(rows, 54)
	var slot Slot
	w8, _ := NewReweaver(8, 128)
	w4, _ := NewReweaver(4, 128)
	var first *Woven
	var firstRows []float32
	for i, tc := range []struct {
		w      *Reweaver
		ranges []storage.WeaveRange
		built  bool
	}{
		{w8, nil, true}, {w8, nil, false}, {w8, own, false}, {w8, kernelRanges(54), true},
		{w8, nil, true}, {w4, nil, true}, {w4, own, false}, {w8, own, true}, {w8, nil, false},
	} {
		wv := slot.Lookup(tc.w.ex.bits, tc.ranges)
		if built := wv == nil; built != tc.built {
			t.Errorf("step %d: built = %v, want %v", i, built, tc.built)
		}
		if wv == nil {
			var err error
			if wv, err = tc.w.Weave(rows, tc.ranges, &slot); err != nil {
				t.Fatal(err)
			}
		}
		if slot.wv.Load() != wv {
			t.Errorf("step %d: the slot does not hold the Woven the call returned", i)
		}
		if want := 300*55*4 + 300*24; wv.Bytes() != want {
			t.Errorf("step %d: %d held bytes, want the decoded rows' %d", i, wv.Bytes(), want)
		}
		if first == nil {
			first, firstRows = wv, slices.Clone(wv.slab)
		}
	}
	if !slices.Equal(first.slab, firstRows) || first.bits != 8 || !first.derived {
		t.Error("a published Woven changed after later builds")
	}
	// No slot: the reweaver's own Woven, rebuilt by every call, and the
	// slot untouched.
	held := slot.wv.Load()
	for i := 0; i < 2; i++ {
		if wv, err := w8.Weave(rows, nil, nil); err != nil || wv != &w8.own {
			t.Errorf("slotless call %d: Woven %p, err = %v", i, wv, err)
		}
	}
	// A failed build publishes nothing either.
	if _, err := w4.Weave(rows, kernelRanges(3), &slot); err == nil {
		t.Error("54 features against 3 ranges wove")
	}
	if slot.wv.Load() != held {
		t.Error("a slotless or failed build replaced the slot's Woven")
	}
}

// TestHeldLookupAllocatesNothing: a reader of a slot another reweaver
// filled needs no reweaver of its own — Lookup hands it the builder's
// decoded rows, ReweaveRows' bits, and allocates nothing.
func TestHeldLookupAllocatesNothing(t *testing.T) {
	rows := heldRowsOf(4, 54, 300)
	var slot Slot
	builder, _ := NewReweaver(8, 128)
	built, err := builder.Weave(rows, nil, &slot)
	if err != nil {
		t.Fatal(err)
	}
	wv := slot.Lookup(8, nil)
	if wv != built {
		t.Fatal("Lookup missed the Woven the builder published")
	}
	want, _, err := ReweaveRows(rows, nil, 8, 128)
	if err != nil {
		t.Fatal(err)
	}
	for r := range want {
		if !slices.EqualFunc(wv.Rows()[r], want[r], func(a, b float32) bool { return math.Float32bits(a) == math.Float32bits(b) }) {
			t.Fatalf("held row %d differs from ReweaveRows", r)
		}
	}
	if allocs := testing.AllocsPerRun(5, func() {
		if slot.Lookup(8, wv.Ranges()) == nil {
			t.Fatal("Lookup with the rows' own ranges pinned missed")
		}
	}); allocs != 0 {
		t.Errorf("a held lookup allocates %v times, want 0", allocs)
	}
}

// TestSlotConcurrentWeaves: reweavers at two precisions on their own
// goroutines keep replacing one slot's Woven; every decode still equals
// the serial reference. Run under -race this is the publication check.
func TestSlotConcurrentWeaves(t *testing.T) {
	rows := heldRowsOf(5, 20, 500)
	var slot Slot
	var wg sync.WaitGroup
	for g, bits := range []int{8, 4, 8, 4} {
		want, _, err := ReweaveRows(rows, nil, bits, 128)
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(g, bits int) {
			defer wg.Done()
			w, err := NewReweaver(bits, 128)
			if err != nil {
				t.Error(err)
				return
			}
			for round := 0; round < 20; round++ {
				got, err := reweaveHeld(w, rows, nil, &slot)
				if err != nil {
					t.Error(err)
					return
				}
				for r := range want {
					for c := range want[r] {
						if math.Float32bits(got[r][c]) != math.Float32bits(want[r][c]) {
							t.Errorf("goroutine %d (k=%d) round %d: row %d col %d = %v, want %v", g, bits, round, r, c, got[r][c], want[r][c])
							return
						}
					}
				}
			}
		}(g, bits)
	}
	wg.Wait()
}
