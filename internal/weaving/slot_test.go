package weaving

// The held form against its oracle. A Reweaver that weaves into a lent
// Slot, or only decodes what the slot already holds, must return a fresh
// ReweaveRows' bits whatever was asked of the slot before: another
// precision, other ranges, other rows under another slot. The mutation
// meta-test plants one fault each in the lookup and in the owner's rule
// and requires the same differential to go red.

import (
	"fmt"
	"math"
	"sync"
	"testing"

	"dana/internal/storage"
)

type heldFunc func(w *Reweaver, rows [][]float32, ranges []storage.WeaveRange, slot *Slot) ([][]float32, error)

// reweaveHeld is the production composition: the slot's Woven or a new
// one, decoded.
func reweaveHeld(w *Reweaver, rows [][]float32, ranges []storage.WeaveRange, slot *Slot) ([][]float32, error) {
	wv, _, err := w.Weave(rows, ranges, slot)
	if err != nil {
		return nil, err
	}
	return w.Decode(wv), nil
}

// heldWith is reweaveHeld with the slot lookup swapped: a hit decodes
// what the slot holds, a miss weaves as production does (into an empty
// slot) and publishes. With (*Woven).serves it is Weave's own rule, which
// the pre-mutation run shows.
func heldWith(serves func(wv *Woven, bits int, ranges []storage.WeaveRange) bool) heldFunc {
	return func(w *Reweaver, rows [][]float32, ranges []storage.WeaveRange, slot *Slot) ([][]float32, error) {
		if wv := slot.wv.Load(); wv != nil && serves(wv, w.ex.bits, ranges) {
			return w.Decode(wv), nil
		}
		wv, _, err := w.Weave(rows, ranges, new(Slot))
		if err != nil {
			return nil, err
		}
		slot.wv.Store(wv)
		return w.Decode(wv), nil
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
// again, precision down and back up (twice: a Woven read at more levels
// than it carries runs off its prefix), pinned ranges after derived and
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
// (a Woven decoded at a precision it does not carry) is a failure like
// any other.
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
	var firstBytes []byte
	for i, tc := range []struct {
		w      *Reweaver
		ranges []storage.WeaveRange
		built  bool
	}{
		{w8, nil, true}, {w8, nil, false}, {w8, own, false}, {w8, kernelRanges(54), true},
		{w8, nil, true}, {w4, nil, true}, {w4, own, false}, {w8, own, true}, {w8, nil, false},
	} {
		wv, built, err := tc.w.Weave(rows, tc.ranges, &slot)
		if err != nil {
			t.Fatal(err)
		}
		if built != tc.built {
			t.Errorf("step %d: built = %v, want %v", i, built, tc.built)
		}
		if slot.wv.Load() != wv {
			t.Errorf("step %d: the slot does not hold the Woven the call returned", i)
		}
		want := 2*prefixBytes(54, 128, wv.bits) + prefixBytes(54, 44, wv.bits)
		if wv.Bytes() != want {
			t.Errorf("step %d: %d held bytes, want the k-level prefixes' %d", i, wv.Bytes(), want)
		}
		if first == nil {
			first, firstBytes = wv, append([]byte(nil), wv.data...)
		}
		tc.w.Decode(wv)
	}
	if string(first.data) != string(firstBytes) || first.bits != 8 || !first.derived {
		t.Error("a published Woven changed after later builds")
	}
	// No slot: the reweaver's own Woven, rebuilt by every call.
	for i := 0; i < 2; i++ {
		if _, built, err := w8.Weave(rows, nil, nil); err != nil || !built {
			t.Errorf("slotless call %d: built = %v, err = %v", i, built, err)
		}
	}
	// A failed build publishes nothing and leaves what the slot held.
	held := slot.wv.Load()
	if _, _, err := w4.Weave(rows, kernelRanges(3), &slot); err == nil {
		t.Error("54 features against 3 ranges wove")
	}
	if slot.wv.Load() != held {
		t.Error("a failed build replaced the slot's Woven")
	}
}

// TestDecodeOnlySizesNoBuildScratch: a reweaver that only ever reads a
// slot another one filled never allocates the 32-level page or the
// feature views.
func TestDecodeOnlySizesNoBuildScratch(t *testing.T) {
	rows := heldRowsOf(4, 54, 300)
	var slot Slot
	builder, _ := NewReweaver(8, 128)
	if _, _, err := builder.Weave(rows, nil, &slot); err != nil {
		t.Fatal(err)
	}
	reader, _ := NewReweaver(8, 128)
	wv, built, err := reader.Weave(rows, nil, &slot)
	if err != nil || built {
		t.Fatalf("reader built = %v, err = %v", built, err)
	}
	reader.Decode(wv)
	if reader.page != nil || reader.feats != nil || reader.labels != nil || reader.own.data != nil {
		t.Error("a decode-only reweaver sized its build scratch")
	}
	if allocs := testing.AllocsPerRun(5, func() {
		wv, _, _ := reader.Weave(rows, nil, &slot)
		reader.Decode(wv)
	}); allocs != 0 {
		t.Errorf("a held decode allocates %v times from the second on, want 0", allocs)
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
