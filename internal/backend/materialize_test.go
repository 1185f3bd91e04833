package backend

import (
	"math"
	"testing"
)

// recyclingStream is a batch stream whose producer reuses one batch's
// storage for every batch, as the extraction pipeline does: whatever the
// consumer keeps it must have copied. Row r holds r*width+c in column c.
func recyclingStream(rows, width, batchRows int) *Stream {
	batch := make([][]float32, batchRows)
	for i := range batch {
		batch[i] = make([]float32, width)
	}
	return &Stream{Batches: func(emit func([][]float32) error) error {
		for at := 0; at < rows; at += batchRows {
			n := min(batchRows, rows-at)
			for i := 0; i < n; i++ {
				for c := range batch[i] {
					batch[i][c] = float32((at+i)*width + c)
				}
			}
			if err := emit(batch[:n]); err != nil {
				return err
			}
		}
		return nil
	}}
}

// TestMaterializeKeepsEarlierBatches: rows copied out of batch i must
// still read correctly after batch i+1 (and every later one, across
// slab chunks) has been copied. The slab's own rules are engine's
// TestRowSlab* tests.
func TestMaterializeKeepsEarlierBatches(t *testing.T) {
	const width, batchRows = 55, 64
	rows := 3*(64<<10)/width + 17 // more than three 256 KB slab chunks
	b := &Accel{}
	for epoch := 0; epoch < 2; epoch++ {
		got, err := b.materialize(recyclingStream(rows, width, batchRows))
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != rows {
			t.Fatalf("epoch %d: %d rows materialized, want %d", epoch, len(got), rows)
		}
		for r, row := range got {
			if len(row) != width {
				t.Fatalf("epoch %d row %d: %d values, want %d", epoch, r, len(row), width)
			}
			for c, v := range row {
				if want := float32(r*width + c); math.Float32bits(v) != math.Float32bits(want) {
					t.Fatalf("epoch %d row %d col %d: %v, want %v (a later batch overwrote it?)", epoch, r, c, v, want)
				}
			}
		}
	}
}

func TestMaterializeSteadyStateAllocations(t *testing.T) {
	st := recyclingStream(2904, 55, 64)
	b := &Accel{}
	if _, err := b.materialize(st); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := b.materialize(st); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("materialize allocates %v times on a second epoch of the same size, want 0", allocs)
	}
}
