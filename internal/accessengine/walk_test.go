package accessengine

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"unsafe"

	"dana/internal/datagen"
	"dana/internal/fuzzcorpus"
	"dana/internal/storage"
	"dana/internal/strider"
)

// The walker against its oracle. extractVM — the Strider program
// interpreted by strider.VM, its output through Deformat — defines what
// ExtractPage returns; the direct pass may only ever agree with it or
// decline. checkWalk is the per-page statement of that, shared by the
// labelled seed pages and FuzzExtractDirect.

// samePage reports the first difference between two extraction results
// (float32 values compared as bits: fuzzed payloads hold NaNs), or a
// result whose rows take neither form PageResult allows: views of the
// page with Data empty, or rows that cover Data end to end.
func samePage(a, b *PageResult, page []byte) error {
	if a.Steps != b.Steps || a.Cycles != b.Cycles || a.Bytes != b.Bytes {
		return fmt.Errorf("counters: steps/cycles/bytes %d/%d/%d vs %d/%d/%d",
			a.Steps, a.Cycles, a.Bytes, b.Steps, b.Cycles, b.Bytes)
	}
	if len(a.Rows) != len(b.Rows) {
		return fmt.Errorf("shape: %d rows vs %d", len(a.Rows), len(b.Rows))
	}
	for i := range a.Rows {
		if len(a.Rows[i]) != len(b.Rows[i]) {
			return fmt.Errorf("row %d: %d vs %d values", i, len(a.Rows[i]), len(b.Rows[i]))
		}
		for j := range a.Rows[i] {
			if math.Float32bits(a.Rows[i][j]) != math.Float32bits(b.Rows[i][j]) {
				return fmt.Errorf("row %d col %d: %v vs %v", i, j, a.Rows[i][j], b.Rows[i][j])
			}
		}
	}
	for _, r := range []*PageResult{a, b} {
		if !viewsOf(r, page) && !coversData(r) {
			return fmt.Errorf("shape: %d rows are neither views of the page nor cover the %d values of Data", len(r.Rows), len(r.Data))
		}
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

// checkWalk asserts, for one page: the direct pass accepted ⇒ the VM
// path returns nil with identical rows and counters; it declined ⇒
// ExtractPage's result and error are the VM path's; and it declined ⇔
// the VM traps or some item's payload is not one tuple wide. It returns
// whether the direct pass accepted.
func checkWalk(t testing.TB, e *Engine, page storage.Page) bool {
	t.Helper()
	return checkDirect(t, e, page, e.walk.extract)
}

// checkDirect is checkWalk with the direct pass given: the engine's own,
// or a planted fault of it. Both run on the page as given (a fuzzed page
// sits at an odd address) and on an aligned copy, each into a fresh and
// a recycled result, since rows may be copies or views (PageResult).
func checkDirect(t testing.TB, e *Engine, page storage.Page, pass func([]byte, *PageResult) bool) bool {
	t.Helper()
	const pageNo = 7
	vm := PageResult{PageNo: pageNo}
	vmErr := e.extractVM(0, page, &vm)
	accepted := pass(page, &PageResult{PageNo: pageNo})
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
		direct, got := result(pageNo, f.fresh), result(pageNo, f.fresh)
		if pass(f.page, &direct) != accepted {
			t.Fatalf("%s: direct pass accepted %v, %v on the page as given", f.name, !accepted, accepted)
		}
		err := e.ExtractPage(0, f.page, &got)
		if (err == nil) != (vmErr == nil) || (err != nil && err.Error() != vmErr.Error()) {
			t.Fatalf("%s: ExtractPage error %v, VM path %v", f.name, err, vmErr)
		}
		if err == nil {
			if d := samePage(&got, &vm, f.page); d != nil {
				t.Fatalf("%s: ExtractPage vs VM path (direct accepted: %v): %v", f.name, accepted, d)
			}
		}
		if accepted {
			if vmErr != nil {
				t.Fatalf("direct pass accepted a page the VM rejects: %v", vmErr)
			}
			if d := samePage(&direct, &vm, f.page); d != nil {
				t.Fatalf("%s: direct pass vs VM path: %v", f.name, d)
			}
		}
	}
	if accepted {
		return true
	}
	if vmErr == nil {
		// The VM walked (Steps-5)/7 line pointers; one of them must be odd.
		odd := false
		for i := 0; i < int(vm.Steps-5)/7; i++ {
			lp := binary.LittleEndian.Uint32(page[storage.PageHeaderSize+storage.ItemIDSize*i:])
			odd = odd || int(lp>>17&0x7FFF)-storage.TupleHeaderSize != e.Schema.DataWidth()
		}
		if !odd {
			t.Fatal("direct pass declined a page the VM walks with every payload one tuple wide")
		}
	}
	return false
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
		if !e.direct {
			tb.Fatalf("no walker for the %s schema", s.name)
		}
		es = append(es, e)
	}
	return es
}

// walkSeed is one labelled page: which engine decodes it and whether the
// direct pass must accept it.
type walkSeed struct {
	name   string
	engine int
	page   []byte
	accept bool
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

// walkSeeds builds, per schema, a small valid page and the damaged
// variants the decline rule exists for, then a valid packed page whose
// payloads are specialF32.
func walkSeeds(tb testing.TB) []walkSeed {
	tb.Helper()
	const size = 1024
	var seeds []walkSeed
	var special walkSeed
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
		add := func(name string, accept bool, mutate func(p storage.Page) []byte) {
			p := append(storage.Page(nil), page...)
			seeds = append(seeds, walkSeed{name: ws.name + "/" + name, engine: ei, page: mutate(p), accept: accept})
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
		lower := page.Lower()
		add("valid", true, func(p storage.Page) []byte { return p })
		add("truncated below the header reads", false, func(p storage.Page) []byte { return p[:19] })
		add("truncated inside the pointer array", false, func(p storage.Page) []byte { return p[:lower-2] })
		add("truncated inside the tuples", false, func(p storage.Page) []byte { return p[:size-w/2] })
		// A do-while walk retires one pointer whatever pd_lower says.
		add("pd_lower zero", true, setLower(0))
		add("pd_lower below the header", true, setLower(storage.PageHeaderSize-4))
		add("pd_lower past the page", false, setLower(0xFFFF))
		add("pd_lower not a multiple of 4, same count", true, setLower(lower-2))
		add("pd_lower not a multiple of 4, one unused pointer more", false, setLower(lower+1))
		add("lp_len below the tuple header", false, setLP(2, func(id *storage.ItemID) { id.Len = storage.TupleHeaderSize - 8 }))
		add("lp_off + lp_len past the page", false, setLP(3, func(id *storage.ItemID) { id.Off = size - 8 }))
		add("lp_off past the page", false, setLP(0, func(id *storage.ItemID) { id.Off = 0x7FFF }))
		// Item 1 sits below item 0, so a payload two tuples wide stays on
		// the page and the VM emits a whole number of tuples.
		add("one payload two tuples wide", false, setLP(1, func(id *storage.ItemID) { id.Len = uint16(storage.TupleHeaderSize + 2*w) }))
		add("one payload a byte short", false, setLP(4, func(id *storage.ItemID) { id.Len-- }))
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
			special = walkSeed{name: "packed/NaN payloads, -0, subnormals and infinities", engine: ei, page: p, accept: true}
		}
	}
	seeds = append(seeds, special)
	return seeds
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
// pins which of them the direct pass takes.
func TestWalkSeedsDecideAsLabelled(t *testing.T) {
	engines := walkEngines(t)
	for _, s := range walkSeeds(t) {
		t.Run(s.name, func(t *testing.T) {
			ei, page := fuzzWalkInput(s.encode(), len(engines))
			if got := checkWalk(t, engines[ei], page); got != s.accept {
				t.Errorf("direct pass accepted = %v, want %v", got, s.accept)
			}
		})
	}
}

// FuzzExtractDirect: over arbitrary page bytes the direct pass never
// disagrees with the VM — it declines instead — and never panics or
// over-reads.
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
// full page of every Table 3 schema the closed form and the VM agree,
// and PageCycles — which prices EstimateCost and so is left alone here —
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
			var direct, vm PageResult
			if !e.walk.extract(pg, &direct) {
				t.Fatalf("%s @%d: direct pass declined a full page", wl.Name, pageSize)
			}
			if err := e.extractVM(0, pg, &vm); err != nil {
				t.Fatal(err)
			}
			if est := PageCycles(schema, n); rel.NumPages() != 1 || direct.Cycles != vm.Cycles || vm.Cycles != est+1 {
				t.Errorf("%s @%d, %d tuples on %d page(s): closed form %d, VM %d, PageCycles %d",
					wl.Name, pageSize, n, rel.NumPages(), direct.Cycles, vm.Cycles, est)
			}
		}
		if len(seen) < 3 {
			t.Errorf("@%d: only %d Table 3 schemas fit a page", pageSize, len(seen))
		}
	}
}

// TestExtractPageRecycledAllocatesNothing: a recycled PageResult makes
// the direct pass allocation-free, and no Strider VM — nor its 32 KB
// output buffer — exists after a scan in which no page declines (Train
// reaches the VMs only through ExtractPage).
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
		for i, vm := range e.vms {
			if vm != nil {
				t.Errorf("%s: strider %d built a VM with no page declined", schema, i)
			}
		}
		// A declined page is what builds one, on its own Strider only.
		pg, _ := rel.Page(0)
		short := append(storage.Page(nil), pg...)
		binary.LittleEndian.PutUint32(short[storage.PageHeaderSize:], 0)
		if err := e.ExtractPage(1, short, &results[1]); err == nil {
			t.Fatal("zeroed line pointer accepted")
		}
		if e.vms[0] != nil || e.vms[1] == nil || cap(e.vms[1].Out()) == 0 {
			t.Errorf("%s: VMs after one declined page on strider 1: %v, %v", schema, e.vms[0], e.vms[1])
		}
	}
}

// TestDeclinedPagesBuildOnlyTheirOwnVM (run under -race): two goroutines
// on distinct vmIdx share one engine, each walking the labelled seed
// pages of its schema into the one result it recycles, as a scan does. A
// goroutine handed only covered pages builds no VM; one handed the
// damaged pages builds exactly its own, and gets the VM path's result
// for every page.
func TestDeclinedPagesBuildOnlyTheirOwnVM(t *testing.T) {
	seeds := walkSeeds(t)
	for ei, ws := range walkSchemas {
		for _, damaged := range [][2]bool{{false, false}, {true, false}, {false, true}, {true, true}} {
			build := func() *Engine {
				e, err := New(strider.PostgresLayout(storage.PageSize8K), ws.schema, 3)
				if err != nil {
					t.Fatal(err)
				}
				return e
			}
			// The engine under test, and an oracle per goroutine (each runs
			// its pages on its own VM 0).
			e, oracles := build(), [2]*Engine{build(), build()}
			var wg sync.WaitGroup
			for g := 0; g < 2; g++ {
				wg.Add(1)
				go func(vmIdx int) {
					defer wg.Done()
					oracle := oracles[vmIdx]
					var got PageResult
					for _, s := range seeds {
						if s.engine != ei || (!s.accept && !damaged[vmIdx]) {
							continue
						}
						want := PageResult{PageNo: 7}
						got.PageNo = 7
						err := e.ExtractPage(vmIdx, s.page, &got)
						wantErr := oracle.extractVM(0, s.page, &want)
						if (err == nil) != (wantErr == nil) {
							t.Errorf("%s on strider %d: error %v, VM path %v", s.name, vmIdx, err, wantErr)
						} else if err == nil {
							if d := samePage(&got, &want, s.page); d != nil {
								t.Errorf("%s on strider %d: %v", s.name, vmIdx, d)
							}
						}
					}
				}(g)
			}
			wg.Wait()
			for i, vm := range e.vms {
				if want := i < 2 && damaged[i]; (vm != nil) != want {
					t.Errorf("%s, damaged pages on %v: strider %d VM built = %v, want %v", ws.name, damaged, i, vm != nil, want)
				}
			}
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

// TestMetaPackedViewFaultsCaught is the mutation meta-test of the packed
// rows under checkWalk: the direct pass with every row replaced by a view
// of the page four bytes late, or one value short, must fail on every
// packed seed page the direct pass accepts; the real view, planted the
// same way, must pass. A planted row is only ever pointed elsewhere,
// never written: it is the heap's page image.
func TestMetaPackedViewFaultsCaught(t *testing.T) {
	e := walkEngines(t)[0]
	w := &e.walk
	if w.conv != nil || !w.views {
		t.Fatal("the packed schema's walker has a convert list or takes no views")
	}
	// planted is the engine's direct pass with every accepted row made a
	// view of the page again, by at, from the start of its payload.
	planted := func(at func(page []byte, start int) []float32) func([]byte, *PageResult) bool {
		return func(page []byte, res *PageResult) bool {
			if !w.extract(page, res) {
				return false
			}
			for i := range res.Rows {
				start, _ := w.payload(page[w.first:], i, len(page))
				res.Rows[i] = at(page, start)
			}
			res.Data = res.Data[:0]
			return true
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
		if s.engine != 0 || !s.accept {
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
		t.Fatalf("only %d packed seed pages are accepted", pages)
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
	var vm PageResult
	if err := e.extractVM(0, src, &vm); err != nil {
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
