package engine

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"testing"
)

// seqRow is row r of width values, holding r*width+c in column c.
func seqRow(r, width int) []float32 {
	row := make([]float32, width)
	for c := range row {
		row[c] = float32(r*width + c)
	}
	return row
}

// TestRowSlabKeepsEarlierRows: a row kept before later rows were kept —
// across chunk boundaries, from a source the caller overwrites — still
// reads what it was, two rounds running, and the second round allocates
// nothing. A row wider than a chunk gets one of its own.
func TestRowSlabKeepsEarlierRows(t *testing.T) {
	const width = 55
	rows := 3*slabChunkCap/width + 17 // more than three chunks
	var s RowSlab
	src := make([]float32, width)
	kept := make([][]float32, rows)
	round := func() {
		s.Reset()
		for r := range kept {
			for c := range src {
				src[c] = float32(r*width + c)
			}
			kept[r] = s.Keep(src)
		}
	}
	for epoch := 0; epoch < 2; epoch++ {
		round()
		for r, row := range kept {
			want := seqRow(r, width)
			if len(row) != width || cap(row) != width {
				t.Fatalf("epoch %d row %d: len %d cap %d, want %d", epoch, r, len(row), cap(row), width)
			}
			for c, v := range row {
				if math.Float32bits(v) != math.Float32bits(want[c]) {
					t.Fatalf("epoch %d row %d col %d: %v, want %v (a later row overwrote it?)", epoch, r, c, v, want[c])
				}
			}
		}
	}
	if len(s.chunks) < 4 {
		t.Fatalf("%d chunks: the test meant to cross chunk boundaries", len(s.chunks))
	}
	for i, c := range s.chunks {
		if len(c) != slabChunkCap {
			t.Errorf("chunk %d holds %d values, want the cap %d", i, len(c), slabChunkCap)
		}
	}
	if a := testing.AllocsPerRun(3, round); a != 0 {
		t.Errorf("a round of the same rows after Reset allocates %v times, want 0", a)
	}
	first := s.Keep(seqRow(0, width))
	wide := s.Keep(seqRow(1, slabChunkCap+1))
	if len(wide) != slabChunkCap+1 || len(s.chunks[s.at]) != slabChunkCap+1 {
		t.Fatalf("wide row came back with %d values in a chunk of %d", len(wide), len(s.chunks[s.at]))
	}
	if first[width-1] != float32(width-1) || wide[slabChunkCap] != float32(2*slabChunkCap+1) {
		t.Fatalf("rows around a wide one read %v and %v", first[width-1], wide[slabChunkCap])
	}
}

// TestRowSlabChunkSize: a bounded slab's chunk holds min(rows × width,
// the cap) values, or the row if it is wider; the zero slab's holds the
// cap.
func TestRowSlabChunkSize(t *testing.T) {
	for _, c := range []struct{ rows, width, want int }{
		{1024, 521, slabChunkCap},
		{4, 10, 40},
		{1, 13, 13},
		{3, slabChunkCap + 1, slabChunkCap + 1},
		{0, 10, slabChunkCap},
		{0, slabChunkCap + 1, slabChunkCap + 1},
	} {
		s := RowSlab{rows: c.rows}
		s.Keep(make([]float32, c.width))
		if len(s.chunks) != 1 || len(s.chunks[0]) != c.want {
			t.Errorf("rows %d, width %d: chunks %d, first of %d values, want one of %d",
				c.rows, c.width, len(s.chunks), len(s.chunks[0]), c.want)
		}
	}
}

// An EpochStream keeps a partial batch in its RowSlab, bounded by the
// batch, so a table smaller than one batch is not given a batch-sized
// block: WLAN at server_mix's scale is 40 rows of 521 values under a
// merge coefficient of 1 024.

// epochFeeder is what an epoch is fed through: an EpochStream, or a
// planted variant of one.
type epochFeeder interface {
	Feed([][]float32) error
	Finish() error
}

// streamFeeder is the production stream.
func streamFeeder(m *Machine, batch int) epochFeeder { return m.StreamEpoch(batch) }

// wlanRows, wlanWidth and wlanBatch are the partial batch the tests feed:
// 40 rows of width 521 under a batch of 1 024, on 8 threads.
const wlanRows, wlanWidth, wlanBatch = 40, 521, 1024

// partialBatchBound is what a fresh stream may allocate for the partial
// batch: one chunk, and 4 KB for the slice of its row headers, which
// append grows (3.4 KB for 40 rows).
const partialBatchBound = slabChunkCap*4 + 4<<10

// feedPages feeds rows through s in pages of page rows and finishes it.
func feedPages(s epochFeeder, rows [][]float32, page int) error {
	for lo := 0; lo < len(rows); lo += page {
		if err := s.Feed(rows[lo:min(lo+page, len(rows))]); err != nil {
			return err
		}
	}
	return s.Finish()
}

// allocatedBytes returns the heap bytes f allocates.
func allocatedBytes(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// checkPartialBatchBytes feeds the 40 WLAN-shaped rows in pages of 3 to
// a fresh stream of batch 1 024 and holds the bytes that epoch allocates
// to partialBatchBound (the least of three tries, so that a stray
// allocation elsewhere in the process does not count).
func checkPartialBatchBytes(newStream func(m *Machine, batch int) epochFeeder) error {
	rows := diffTuples(rand.New(rand.NewSource(56)), wlanRows, wlanWidth, 0)
	least := uint64(math.MaxUint64)
	for try := 0; try < 3; try++ {
		m, err := NewMachine(glmProg(wlanWidth-1, true), Config{Threads: 8, ACsPerThread: 1, AUsPerAC: 8})
		if err != nil {
			return err
		}
		s := newStream(m, wlanBatch)
		var ferr error
		if b := allocatedBytes(func() { ferr = feedPages(s, rows, 3) }); b < least {
			least = b
		}
		if ferr != nil {
			return ferr
		}
	}
	if least > partialBatchBound {
		return fmt.Errorf("an epoch of %d rows of width %d under batch %d allocates %d bytes, want at most %d (one chunk of %d values and 4 KB of row headers)",
			wlanRows, wlanWidth, wlanBatch, least, partialBatchBound, slabChunkCap)
	}
	return nil
}

func TestStreamPartialBatchBytes(t *testing.T) {
	if err := checkPartialBatchBytes(streamFeeder); err != nil {
		t.Fatal(err)
	}
	// The next epochs on the stream refill the chunk and allocate nothing.
	m, err := NewMachine(glmProg(wlanWidth-1, true), Config{Threads: 8, ACsPerThread: 1, AUsPerAC: 8})
	if err != nil {
		t.Fatal(err)
	}
	rows := diffTuples(rand.New(rand.NewSource(56)), wlanRows, wlanWidth, 0)
	s := m.StreamEpoch(wlanBatch)
	epoch := func() {
		s.Reset()
		if err := feedPages(s, rows, 3); err != nil {
			t.Fatal(err)
		}
	}
	epoch()
	if len(s.slab.chunks) != 1 || len(s.slab.chunks[0]) != slabChunkCap {
		t.Fatalf("the partial batch is kept in %d chunks, want one of %d values", len(s.slab.chunks), slabChunkCap)
	}
	if a := testing.AllocsPerRun(5, epoch); a != 0 {
		t.Errorf("an epoch after Reset allocates %v times, want 0", a)
	}
	if b := allocatedBytes(epoch); b != 0 {
		t.Errorf("an epoch after Reset allocates %d bytes, want 0", b)
	}
}

// TestMetaBatchBlockCaught: a stream whose slab starts from the block
// Feed used to make, batch × width values, must fail the byte bound.
func TestMetaBatchBlockCaught(t *testing.T) {
	planted := func(m *Machine, batch int) epochFeeder {
		s := m.StreamEpoch(batch)
		return &blockStream{s}
	}
	err := checkPartialBatchBytes(planted)
	if err == nil || !strings.Contains(err.Error(), "bytes, want at most") {
		t.Fatalf("the batch-sized block read %v, want the byte bound to fail", err)
	}
}

// blockStream is an EpochStream whose first Feed seeds its slab with one
// chunk of batch × row width values.
type blockStream struct{ *EpochStream }

func (b *blockStream) Feed(tuples [][]float32) error {
	s := &b.slab
	if len(s.chunks) == 0 && len(tuples) > 0 {
		s.chunks = append(s.first[:0], make([]float32, b.batchSize*len(tuples[0])))
	}
	return b.EpochStream.Feed(tuples)
}

// TestStreamAcrossChunksIsRunEpoch: the batches a stream forms out of
// its chunks are RunEpoch's, to the model bit and every Stats field, for
// two epochs on one stream: a batch that spans several chunks (1 024
// rows of 521 values, 125 to a chunk) with a partial batch after it, and
// rows each wider than the cap, so each takes a chunk of its own.
func TestStreamAcrossChunksIsRunEpoch(t *testing.T) {
	for _, c := range []struct {
		name                     string
		width, batch, rows, page int
		threads, chunks          int
	}{
		{"batch over 9 chunks", wlanWidth, wlanBatch, wlanBatch + wlanRows, 3, 8, 9},
		{"rows wider than the cap", slabChunkCap + 3, 3, 7, 2, 2, 3},
	} {
		prog := glmProg(c.width-1, true)
		cfg := Config{Threads: c.threads, ACsPerThread: 1, AUsPerAC: 8}
		rows := diffTuples(rand.New(rand.NewSource(57)), c.rows, c.width, 0)
		held, err := NewMachine(prog, cfg)
		if err != nil {
			t.Fatal(err)
		}
		streamed, err := NewMachine(prog, cfg)
		if err != nil {
			t.Fatal(err)
		}
		s := streamed.StreamEpoch(c.batch)
		for epoch := 0; epoch < 2; epoch++ {
			if err := held.RunEpoch(rows, c.batch); err != nil {
				t.Fatal(err)
			}
			s.Reset()
			if err := feedPages(s, rows, c.page); err != nil {
				t.Fatal(err)
			}
			if err := sameMachine(fmt.Sprintf("%s, epoch %d", c.name, epoch), "RunEpoch", held, "StreamEpoch", streamed); err != nil {
				t.Error(err)
			}
		}
		if len(s.slab.chunks) != c.chunks {
			t.Errorf("%s: %d chunks, want %d", c.name, len(s.slab.chunks), c.chunks)
		}
	}
}
