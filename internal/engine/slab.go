package engine

// slabChunkCap is the most values a RowSlab chunk holds (256 KB) unless
// one row is wider.
const slabChunkCap = 64 << 10

// RowSlab keeps copies of rows in chunks that are held and refilled from
// the first after each Reset. A chunk never grows, so a row handed out
// stays where it is while later rows are copied — one append-grown slab
// would move it. A chunk holds min(rows × width, slabChunkCap) values, or
// the one row if it is wider, where width is the row that opens the chunk
// and rows is the slab's bound: an EpochStream's is its batch, so a short
// partial batch is not given a batch-sized block; the zero RowSlab has
// none and fills whole chunks.
type RowSlab struct {
	rows   int // rows a chunk need hold; 0 = no bound
	chunks [][]float32
	// first backs chunks until a second chunk is needed, so a slab of
	// one chunk allocates only the chunk.
	first [1][]float32
	at    int // chunk being filled
	used  int // values of it handed out
}

// Reset frees every kept row's storage for the next Keep.
func (s *RowSlab) Reset() { s.at, s.used = 0, 0 }

// Keep returns a copy of r that is valid until the next Reset.
func (s *RowSlab) Keep(r []float32) []float32 {
	if s.at < len(s.chunks) && s.used+len(r) > len(s.chunks[s.at]) {
		s.at, s.used = s.at+1, 0
	}
	if s.at == len(s.chunks) || len(s.chunks[s.at]) < len(r) {
		s.grow(len(r))
	}
	dst := s.chunks[s.at][s.used : s.used+len(r) : s.used+len(r)]
	s.used += len(r)
	copy(dst, r)
	return dst
}

// grow puts a new chunk opened by a row of width values at s.at: after
// the last chunk, or in place of one narrower than the row.
func (s *RowSlab) grow(width int) {
	n := slabChunkCap
	if s.rows > 0 {
		n = min(n, s.rows*width)
	}
	//danalint:ignore hotcall -- chunks are kept and refilled after each Reset; one is made only when the rows kept outgrow them
	c := make([]float32, max(n, width))
	if s.at < len(s.chunks) {
		s.chunks[s.at] = c
		return
	}
	if s.chunks == nil {
		s.chunks = s.first[:0]
	}
	s.chunks = append(s.chunks, c)
}
