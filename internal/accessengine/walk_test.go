package accessengine

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"unsafe"

	"dana/internal/datagen"
	"dana/internal/fault"
	"dana/internal/fuzzcorpus"
	"dana/internal/storage"
	"dana/internal/strider"
)

// The walk against its definition. The Strider program strider.Generate
// emits, interpreted by strider.VM, with the stream it emits cut into
// tuples and each value converted on its own (vmPath), defines what
// ExtractPage returns on every page: the same rows as bits, the same
// counters, an error exactly where the VM path errs and a trap exactly
// where it traps. checkWalk is the per-page statement of that, shared by
// the labelled seed pages and FuzzExtractDirect.

// outcome is how a page's extraction ends.
type outcome int

const (
	rows     outcome = iota // rows and counters
	trap                    // an error wrapping fault.ErrVMTrap
	plainErr                // any other error: a stream that is not whole tuples
)

func (o outcome) String() string { return [...]string{"rows", "trap", "plain error"}[o] }

func outcomeOf(err error) outcome {
	switch {
	case err == nil:
		return rows
	case errors.Is(err, fault.ErrVMTrap):
		return trap
	}
	return plainErr
}

// programs caches the program strider.Generate emits per layout, which
// vmPath runs on every fuzzed page.
var programs = struct {
	sync.Mutex
	m map[strider.PageLayout]program
}{m: map[strider.PageLayout]program{}}

type program struct {
	prog []strider.Instr
	cfg  strider.Config
}

// vmPath is the definition ExtractPage is held to: the engine's layout's
// program run by strider.VM, its stream cut into DataWidth-byte tuples
// and every value converted by valueOf.
func vmPath(tb testing.TB, e *Engine, page []byte) (PageResult, error) {
	tb.Helper()
	programs.Lock()
	p, ok := programs.m[e.Layout]
	if !ok {
		prog, cfg, err := strider.Generate(e.Layout)
		if err != nil {
			programs.Unlock()
			tb.Fatal(err)
		}
		p = program{prog, cfg}
		programs.m[e.Layout] = p
	}
	programs.Unlock()
	vm := strider.NewVM(p.prog, p.cfg)
	var res PageResult
	if err := vm.Run(page); err != nil {
		return res, err
	}
	out, w := vm.Out(), e.Schema.DataWidth()
	if len(out)%w != 0 {
		return res, fmt.Errorf("the VM emitted %d bytes, not a multiple of tuple width %d", len(out), w)
	}
	for ; len(out) > 0; out = out[w:] {
		row := make([]float32, e.Schema.NumCols())
		for j, col := range e.Schema.Cols {
			row[j] = valueOf(col.Type, out[e.Schema.ColOffset(j):])
		}
		res.Rows = append(res.Rows, row)
	}
	res.Steps, res.Cycles, res.Bytes = vm.Steps(), vm.Cycles(), int64(len(vm.Out()))
	return res, nil
}

// valueOf converts one little-endian column value to float32, byte by
// byte: written apart from the walk's colFloat, which it checks.
func valueOf(t storage.ColType, b []byte) float32 {
	var u uint64
	for i := t.Size() - 1; i >= 0; i-- {
		u = u<<8 | uint64(b[i])
	}
	switch t {
	case storage.TFloat32:
		return math.Float32frombits(uint32(u))
	case storage.TFloat64:
		return float32(math.Float64frombits(u))
	case storage.TInt32:
		return float32(int32(uint32(u)))
	}
	return float32(int64(u))
}

// samePage reports the first difference between an extraction result and
// the VM path's (float32 values compared as bits: fuzzed payloads hold
// NaNs), or a result whose rows take neither form PageResult allows:
// views of the page with Data empty, or rows that cover Data end to end.
func samePage(got, want *PageResult, page []byte) error {
	if got.Steps != want.Steps || got.Cycles != want.Cycles || got.Bytes != want.Bytes {
		return fmt.Errorf("counters: steps/cycles/bytes %d/%d/%d, VM path %d/%d/%d",
			got.Steps, got.Cycles, got.Bytes, want.Steps, want.Cycles, want.Bytes)
	}
	if len(got.Rows) != len(want.Rows) {
		return fmt.Errorf("shape: %d rows, VM path %d", len(got.Rows), len(want.Rows))
	}
	for i := range got.Rows {
		if len(got.Rows[i]) != len(want.Rows[i]) {
			return fmt.Errorf("row %d: %d values, VM path %d", i, len(got.Rows[i]), len(want.Rows[i]))
		}
		for j := range got.Rows[i] {
			if math.Float32bits(got.Rows[i][j]) != math.Float32bits(want.Rows[i][j]) {
				return fmt.Errorf("row %d col %d: %v, VM path %v", i, j, got.Rows[i][j], want.Rows[i][j])
			}
		}
	}
	if !viewsOf(got, page) && !coversData(got) {
		return fmt.Errorf("shape: %d rows are neither views of the page nor cover the %d values of Data", len(got.Rows), len(got.Data))
	}
	return nil
}

// viewsOf reports whether res's rows are views of the page: Data empty
// and every row's values inside the page's bytes.
func viewsOf(res *PageResult, page []byte) bool {
	lo := uintptr(unsafe.Pointer(unsafe.SliceData(page)))
	for _, r := range res.Rows {
		at := uintptr(unsafe.Pointer(unsafe.SliceData(r)))
		if at < lo || at+4*uintptr(len(r)) > lo+uintptr(len(page)) {
			return false
		}
	}
	return len(res.Data) == 0
}

// coversData reports whether res's rows lie end to end over the whole of
// res.Data, in order.
func coversData(res *PageResult) bool {
	at := 0
	for _, r := range res.Rows {
		if len(r) > len(res.Data)-at || (len(r) > 0 && &r[0] != &res.Data[at]) {
			return false
		}
		at += len(r)
	}
	return at == len(res.Data)
}

// result returns an empty result for page pageNo: a fresh one, or one
// recycled from an earlier page, which still holds that page's rows.
func result(pageNo int, fresh bool) PageResult {
	if fresh {
		return PageResult{PageNo: pageNo}
	}
	data := []float32{1, 2, 3, 4}
	return PageResult{PageNo: pageNo, Data: data, Rows: [][]float32{data[:2], data[2:]}}
}

// withSlack returns a copy of page at an aligned address, with room past
// its end: a planted view that runs over the page then still reads inside
// one allocation, which the race detector's pointer checks require.
func withSlack(page []byte) []byte {
	buf := make([]byte, len(page)+8)
	copy(buf, page)
	return buf[:len(page)]
}

// checkWalk asserts, for one page, that ExtractPage ends as the VM path
// does — rows, a trap or a plain error — and, with rows, returns the
// same rows and counters. It returns the outcome.
func checkWalk(t testing.TB, e *Engine, page storage.Page) outcome {
	t.Helper()
	return checkDirect(t, e, page, func(page []byte, res *PageResult) error { return e.ExtractPage(0, page, res) })
}

// checkDirect is checkWalk with the walk given: the engine's own, or a
// planted fault of it. It runs on the page as given (a fuzzed page sits
// at an odd address) and on an aligned copy, each into a fresh and a
// recycled result, since rows may be copies or views (PageResult).
func checkDirect(t testing.TB, e *Engine, page storage.Page, walk func([]byte, *PageResult) error) outcome {
	t.Helper()
	const pageNo = 7
	want, wantErr := vmPath(t, e, page)
	type form struct {
		name  string
		page  storage.Page
		fresh bool
	}
	aligned := withSlack(page)
	for _, f := range []form{
		{"page as given, fresh result", page, true}, {"page as given, recycled result", page, false},
		{"aligned copy, fresh result", aligned, true}, {"aligned copy, recycled result", aligned, false},
	} {
		got := result(pageNo, f.fresh)
		err := walk(f.page, &got)
		if outcomeOf(err) != outcomeOf(wantErr) {
			t.Fatalf("%s: %s (%v), VM path %s (%v)", f.name, outcomeOf(err), err, outcomeOf(wantErr), wantErr)
		}
		if err == nil {
			if d := samePage(&got, &want, f.page); d != nil {
				t.Fatalf("%s: walk vs VM path: %v", f.name, d)
			}
		}
	}
	return outcomeOf(wantErr)
}

// walkSchemas are the three decode shapes: the packed float4 stream, the
// rating schema's int/int/float convert list, and a list with every
// column type (8-byte columns at aligned offsets).
var walkSchemas = []struct {
	name   string
	schema *storage.Schema
}{
	{"packed", storage.NumericSchema(4)},
	{"rating", storage.RatingSchema()},
	{"mixed", storage.NewSchema(
		storage.Column{Name: "a", Type: storage.TInt64},
		storage.Column{Name: "b", Type: storage.TFloat32},
		storage.Column{Name: "c", Type: storage.TFloat64},
		storage.Column{Name: "d", Type: storage.TInt32},
	)},
}

func walkEngines(tb testing.TB) []*Engine {
	tb.Helper()
	var es []*Engine
	for _, s := range walkSchemas {
		e, err := New(strider.PostgresLayout(storage.PageSize8K), s.schema, 1)
		if err != nil {
			tb.Fatal(err)
		}
		es = append(es, e)
	}
	return es
}

// walkSeed is one labelled page: which engine decodes it and how its
// extraction must end.
type walkSeed struct {
	name   string
	engine int
	page   []byte
	want   outcome
}

// fuzzWalkInput maps fuzz bytes onto (engine, page): byte 0 picks the
// schema, the rest is the page (capped at 32 KB). Total, like
// fuzzVMInput: every byte string is a runnable input.
func fuzzWalkInput(data []byte, engines int) (int, []byte) {
	if len(data) == 0 {
		return 0, nil
	}
	return int(data[0]) % engines, data[1:min(len(data), 1+storage.PageSize32K)]
}

// walkSeeds builds, per schema, a small valid page and damaged variants
// at every bound where the program traps or emits a stream that is not
// whole tuples, then a valid packed page whose payloads are specialF32,
// then, per schema, the pages whose tuples straddle items. The first 43
// keep the committed corpus's numbering.
func walkSeeds(tb testing.TB) []walkSeed {
	tb.Helper()
	const size = 1024
	var seeds []walkSeed
	var special walkSeed
	var straddling []walkSeed
	for ei, ws := range walkSchemas {
		schema := ws.schema
		rng := rand.New(rand.NewSource(int64(40 + ei)))
		page := storage.NewPage(size, 0)
		const items = 6
		for i := 0; i < items; i++ {
			vals := make([]float64, schema.NumCols())
			for j, col := range schema.Cols {
				vals[j] = float64(float32(rng.NormFloat64() * 50))
				if col.Type == storage.TInt32 || col.Type == storage.TInt64 {
					vals[j] = float64(rng.Intn(2000) - 1000)
				}
			}
			raw, err := storage.EncodeTuple(schema, vals, 3, storage.TID{Item: uint16(i)})
			if err != nil {
				tb.Fatal(err)
			}
			if _, err := page.AddItem(raw); err != nil {
				tb.Fatal(err)
			}
		}
		w := schema.DataWidth()
		seed := func(name string, want outcome, mutate func(p storage.Page) []byte) walkSeed {
			p := append(storage.Page(nil), page...)
			return walkSeed{name: ws.name + "/" + name, engine: ei, page: mutate(p), want: want}
		}
		add := func(name string, want outcome, mutate func(p storage.Page) []byte) {
			seeds = append(seeds, seed(name, want, mutate))
		}
		setLower := func(v int) func(storage.Page) []byte {
			return func(p storage.Page) []byte {
				binary.LittleEndian.PutUint16(p[12:], uint16(v))
				return p
			}
		}
		setLP := func(i int, edit func(id *storage.ItemID)) func(storage.Page) []byte {
			return func(p storage.Page) []byte {
				id, err := p.ItemID(i)
				if err != nil {
					tb.Fatal(err)
				}
				edit(&id)
				if err := p.SetLinePointer(i, id); err != nil {
					tb.Fatal(err)
				}
				return p
			}
		}
		both := func(a, b func(storage.Page) []byte) func(storage.Page) []byte {
			return func(p storage.Page) []byte { return b(a(p)) }
		}
		lower := page.Lower()
		add("valid", rows, func(p storage.Page) []byte { return p })
		add("truncated below the header reads", trap, func(p storage.Page) []byte { return p[:19] })
		add("truncated inside the pointer array", trap, func(p storage.Page) []byte { return p[:lower-2] })
		add("truncated inside the tuples", trap, func(p storage.Page) []byte { return p[:size-w/2] })
		// A do-while walk retires one pointer whatever pd_lower says.
		add("pd_lower zero", rows, setLower(0))
		add("pd_lower below the header", rows, setLower(storage.PageHeaderSize-4))
		add("pd_lower past the page", trap, setLower(0xFFFF))
		add("pd_lower not a multiple of 4, same count", rows, setLower(lower-2))
		// The unused pointer is zero: an lp_len below the tuple header.
		add("pd_lower not a multiple of 4, one unused pointer more", trap, setLower(lower+1))
		add("lp_len below the tuple header", trap, setLP(2, func(id *storage.ItemID) { id.Len = storage.TupleHeaderSize - 8 }))
		add("lp_off + lp_len past the page", trap, setLP(3, func(id *storage.ItemID) { id.Off = size - 8 }))
		add("lp_off past the page", trap, setLP(0, func(id *storage.ItemID) { id.Off = 0x7FFF }))
		// Item 1 sits below item 0, so a payload two tuples wide stays on
		// the page and the program emits a whole number of tuples.
		add("one payload two tuples wide", rows, setLP(1, func(id *storage.ItemID) { id.Len = uint16(storage.TupleHeaderSize + 2*w) }))
		add("one payload a byte short", plainErr, setLP(4, func(id *storage.ItemID) { id.Len-- }))
		// Item 3 ends where item 2's tuple starts: moving two bytes of
		// stream from item 2 to item 3 splits a value across items.
		straddling = append(straddling,
			seed("a tuple straddles two items", rows, both(
				setLP(2, func(id *storage.ItemID) { id.Len -= 2 }),
				setLP(3, func(id *storage.ItemID) { id.Len += 2 }))),
			seed("an empty payload beside one two tuples wide", rows, both(
				setLP(4, func(id *storage.ItemID) { id.Len = storage.TupleHeaderSize }),
				setLP(5, func(id *storage.ItemID) { id.Len += uint16(w) }))))
		if ws.name == "packed" {
			// Last in the list, so the committed corpus keeps its numbering:
			// the copy must carry every bit pattern a float32 can hold.
			p := append(storage.Page(nil), page...)
			for i, k := 0, 0; i < items; i++ {
				id, err := p.ItemID(i)
				if err != nil {
					tb.Fatal(err)
				}
				for j := 0; j < schema.NumCols(); j, k = j+1, k+1 {
					binary.LittleEndian.PutUint32(p[int(id.Off)+storage.TupleHeaderSize+4*j:], specialF32[k%len(specialF32)])
				}
			}
			special = walkSeed{name: "packed/NaN payloads, -0, subnormals and infinities", engine: ei, page: p, want: rows}
		}
	}
	return append(append(seeds, special), straddling...)
}

// specialF32 are the float32 bit patterns a conversion through float64
// or an arithmetic move could alter: quiet and signalling NaNs with
// payloads of either sign, -0, subnormals and the infinities.
var specialF32 = []uint32{
	0x7FC00001, 0x7F800001, 0xFFC12345, 0xFF80BEEF, 0x7FFFFFFF,
	0x80000000, 0x00000001, 0x807FFFFF, 0x7F800000, 0xFF800000,
}

func (s walkSeed) encode() []byte { return append([]byte{byte(s.engine)}, s.page...) }

// TestWalkSeedsDecideAsLabelled runs checkWalk on every seed page and
// pins how each extraction ends.
func TestWalkSeedsDecideAsLabelled(t *testing.T) {
	engines := walkEngines(t)
	for _, s := range walkSeeds(t) {
		t.Run(s.name, func(t *testing.T) {
			ei, page := fuzzWalkInput(s.encode(), len(engines))
			if got := checkWalk(t, engines[ei], page); got != s.want {
				t.Errorf("ends in %s, labelled %s", got, s.want)
			}
		})
	}
}

// FuzzExtractDirect: over arbitrary page bytes the walk agrees with the
// VM path (checkWalk), and never panics or over-reads.
func FuzzExtractDirect(f *testing.F) {
	for _, s := range walkSeeds(f) {
		f.Add(s.encode())
	}
	engines := walkEngines(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		ei, page := fuzzWalkInput(data, len(engines))
		checkWalk(t, engines[ei], page)
	})
}

// TestWriteExtractDirectCorpus regenerates the committed seed corpus
// when DANA_WRITE_FUZZ_CORPUS is set.
func TestWriteExtractDirectCorpus(t *testing.T) {
	if !fuzzcorpus.ShouldWrite() {
		t.Skipf("set %s=1 to regenerate the corpus", fuzzcorpus.WriteEnv)
	}
	var seeds [][]byte
	for _, s := range walkSeeds(t) {
		seeds = append(seeds, s.encode())
	}
	if err := fuzzcorpus.WriteBytes("testdata/fuzz/FuzzExtractDirect", seeds); err != nil {
		t.Fatal(err)
	}
}

// TestPageCyclesIsOneBelowTheWalk pins the estimator's known bias: on a
// full page of every Table 3 schema the walk and the VM agree, and
// PageCycles — which prices EstimateCost and so is left alone here —
// counts four header instructions where the program retires five (bentr).
// The bias stays inside the Strider term, which loses the pipeline max on
// every row of the estimator gate (runtime's TestEstimateIsTheExecutedPrice);
// fixing it would move Table 5 and every figure for no priced second.
func TestPageCyclesIsOneBelowTheWalk(t *testing.T) {
	for _, pageSize := range []int{storage.PageSize8K, storage.PageSize32K} {
		seen := map[int]bool{}
		for _, wl := range datagen.Workloads {
			schema := wl.Schema()
			rel := storage.NewRelation("t3", schema, pageSize)
			n := rel.TuplesPerPage()
			if n == 0 || seen[schema.NumCols()] {
				continue
			}
			seen[schema.NumCols()] = true
			for i := 0; i < n; i++ {
				if _, err := rel.Insert(make([]float64, schema.NumCols())); err != nil {
					t.Fatal(err)
				}
			}
			pg, err := rel.Page(0)
			if err != nil {
				t.Fatal(err)
			}
			e, err := New(strider.PostgresLayout(pageSize), schema, 1)
			if err != nil {
				t.Fatal(err)
			}
			var walk PageResult
			if err := e.ExtractPage(0, pg, &walk); err != nil {
				t.Fatal(err)
			}
			vm, err := vmPath(t, e, pg)
			if err != nil {
				t.Fatal(err)
			}
			if est := PageCycles(schema, n); rel.NumPages() != 1 || walk.Cycles != vm.Cycles || vm.Cycles != est+1 {
				t.Errorf("%s @%d, %d tuples on %d page(s): walk %d, VM %d, PageCycles %d",
					wl.Name, pageSize, n, rel.NumPages(), walk.Cycles, vm.Cycles, est)
			}
		}
		if len(seen) < 3 {
			t.Errorf("@%d: only %d Table 3 schemas fit a page", pageSize, len(seen))
		}
	}
}

// TestExtractPageRecycledAllocatesNothing: a recycled PageResult makes
// the walk allocation-free.
func TestExtractPageRecycledAllocatesNothing(t *testing.T) {
	for _, schema := range []*storage.Schema{storage.NumericSchema(54), storage.RatingSchema()} {
		rel, _ := buildRelation(t, schema, 3000, 9)
		e := newEngine(t, schema, 2)
		results := make([]PageResult, e.NumStriders)
		scan := func() {
			for pn := 0; pn < rel.NumPages(); pn++ {
				pg, err := rel.Page(pn)
				if err != nil {
					t.Fatal(err)
				}
				if err := e.ExtractPage(pn%e.NumStriders, pg, &results[pn%e.NumStriders]); err != nil {
					t.Fatal(err)
				}
			}
		}
		scan()
		if n := testing.AllocsPerRun(10, scan); n != 0 {
			t.Errorf("%s: recycled scan of %d pages allocates %.0f times", schema, rel.NumPages(), n)
		}
		pg, _ := rel.Page(0)
		short := append(storage.Page(nil), pg...)
		binary.LittleEndian.PutUint32(short[storage.PageHeaderSize:], 0)
		if err := e.ExtractPage(1, short, &results[1]); !errors.Is(err, fault.ErrVMTrap) {
			t.Fatalf("zeroed line pointer: %v, want a trap", err)
		}
	}
}

// TestDecodeF32MatchesLoads diffs the packed copy, as bits, against the
// portable two-loads loop and against one conversion per value, on
// random bytes and every special pattern, at lengths 0-9 so the loop's
// tail runs; neither may write past its extent.
func TestDecodeF32MatchesLoads(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	const sentinel = 0x5EED5EED
	for trial := 0; trial < 200; trial++ {
		for n := 0; n <= 9; n++ {
			src := make([]byte, 4*n)
			rng.Read(src)
			for i := 0; i < n; i++ {
				if rng.Intn(2) == 0 {
					binary.LittleEndian.PutUint32(src[4*i:], specialF32[rng.Intn(len(specialF32))])
				}
			}
			for name, decode := range map[string]func([]float32, []byte){"copy": decodeF32, "loads": decodeF32Loads} {
				buf := make([]float32, n+1)
				buf[n] = math.Float32frombits(sentinel)
				decode(buf[:n], src)
				for i := 0; i < n; i++ {
					if got, want := math.Float32bits(buf[i]), binary.LittleEndian.Uint32(src[4*i:]); got != want {
						t.Fatalf("%s, n=%d: value %d = %#08x, want %#08x", name, n, i, got, want)
					}
				}
				if math.Float32bits(buf[n]) != sentinel {
					t.Fatalf("%s, n=%d: wrote past its extent", name, n)
				}
			}
		}
	}
}

// recordTB stands in for a test inside a meta-test: the first failure
// is recorded and ends the check's goroutine instead of the test.
type recordTB struct {
	testing.TB
	failure string
}

func (r *recordTB) Helper() {}

func (r *recordTB) Fatal(args ...any) {
	r.failure = fmt.Sprint(args...)
	runtime.Goexit()
}

func (r *recordTB) Fatalf(format string, args ...any) {
	r.failure = fmt.Sprintf(format, args...)
	runtime.Goexit()
}

// failure runs check against a recordTB and returns what it failed with.
func failure(t *testing.T, check func(testing.TB)) string {
	r := &recordTB{TB: t}
	done := make(chan struct{})
	go func() {
		defer close(done)
		check(r)
	}()
	<-done
	return r.failure
}

// onePayloadWide reports whether the first items line pointers of the
// page all hold exactly one tuple payload inside it: the pages the walk's
// fast path takes.
func onePayloadWide(w *walker, page []byte, items int) bool {
	for i := 0; i < items; i++ {
		if _, ok := w.payload(page[w.first:], i, len(page)); !ok {
			return false
		}
	}
	return true
}

// TestMetaPackedViewFaultsCaught is the mutation meta-test of the packed
// rows under checkWalk: the walk with every row replaced by a view of the
// page four bytes late, or one value short, must fail on every packed
// seed page the fast path takes; the real view, planted the same way,
// must pass. A planted row is only ever pointed elsewhere, never written:
// it is the heap's page image.
func TestMetaPackedViewFaultsCaught(t *testing.T) {
	e := walkEngines(t)[0]
	w := &e.walk
	if w.conv != nil || !w.views {
		t.Fatal("the packed schema's walker has a convert list or takes no views")
	}
	// planted is the engine's walk with every row made a view of the page
	// again, by at, from the start of its payload.
	planted := func(at func(page []byte, start int) []float32) func([]byte, *PageResult) error {
		return func(page []byte, res *PageResult) error {
			if err := w.extract(page, res); err != nil {
				return err
			}
			for i := range res.Rows {
				start, _ := w.payload(page[w.first:], i, len(page))
				res.Rows[i] = at(page, start)
			}
			res.Data = res.Data[:0]
			return nil
		}
	}
	view := func(page []byte, start, n int) []float32 {
		return unsafe.Slice((*float32)(unsafe.Pointer(&page[start])), n)
	}
	real := func(page []byte, start int) []float32 { return view(page, start, w.cols) }
	faults := map[string]func([]byte, int) []float32{
		// The last payload ends the page: withSlack's room keeps the
		// late view inside the page's allocation.
		"view four bytes late": func(page []byte, start int) []float32 { return view(page, start+4, w.cols) },
		"view one value short": func(page []byte, start int) []float32 { return view(page, start, w.cols-1) },
	}
	pages := 0
	for _, s := range walkSeeds(t) {
		var probe PageResult
		if s.engine != 0 || w.extract(s.page, &probe) != nil || !onePayloadWide(w, s.page, int(probe.Steps-5)/7) {
			continue
		}
		pages++
		page := withSlack(s.page)
		if msg := failure(t, func(tb testing.TB) { checkDirect(tb, e, page, planted(real)) }); msg != "" {
			t.Fatalf("%s: unfaulted view: %s", s.name, msg)
		}
		for name, at := range faults {
			msg := failure(t, func(tb testing.TB) { checkDirect(tb, e, page, planted(at)) })
			if msg == "" {
				t.Errorf("%s: %s: checkWalk did not fire", s.name, name)
			} else {
				t.Logf("%s: %s: %s", s.name, name, msg)
			}
		}
	}
	if pages < 4 {
		t.Fatalf("only %d packed seed pages take the fast path", pages)
	}
}

// TestRowsAreViewsOnlyWhenRecycled pins when ExtractPage's packed rows
// are views of the page: into a recycled result, on a page image at a
// 4-aligned address. A fresh result always copies — the record cache
// keeps fresh results, and its replays read one contiguous extent — and
// so does a page at an address that is not 4-aligned. Every form matches
// the VM path value for value.
func TestRowsAreViewsOnlyWhenRecycled(t *testing.T) {
	rel, _ := buildRelation(t, storage.NumericSchema(54), 200, 3)
	e := newEngine(t, rel.Schema, 1)
	src, err := rel.Page(0)
	if err != nil {
		t.Fatal(err)
	}
	vm, err := vmPath(t, e, src)
	if err != nil {
		t.Fatal(err)
	}
	for shift := 0; shift < 4; shift++ {
		buf := make([]byte, len(src)+shift)
		page := buf[shift:]
		copy(page, src)
		for _, fresh := range []bool{true, false} {
			got := result(0, fresh)
			if err := e.ExtractPage(0, page, &got); err != nil {
				t.Fatal(err)
			}
			if d := samePage(&got, &vm, page); d != nil {
				t.Fatalf("page %d bytes past an aligned address, fresh result %v: %v", shift, fresh, d)
			}
			wantViews := !fresh && shift == 0
			if len(got.Rows) == 0 || viewsOf(&got, page) != wantViews || coversData(&got) == wantViews {
				t.Errorf("page %d bytes past an aligned address, fresh result %v: views %v, rows cover Data %v; want views %v",
					shift, fresh, viewsOf(&got, page), coversData(&got), wantViews)
			}
		}
	}
}
