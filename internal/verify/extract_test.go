package verify

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"testing"

	"dana/internal/accessengine"
	"dana/internal/datagen"
	"dana/internal/fault"
	"dana/internal/storage"
	"dana/internal/strider"
)

// damaged returns copies of a clean page with two or more items that the
// Strider program traps on, walks with a stream that is not whole tuples,
// or walks with payloads that are not one tuple wide, so the oracle's
// error legs and the walk's general path run beside the clean pages.
func damaged(page storage.Page, width int) []storage.Page {
	lpLen := func(p storage.Page, i, delta int) {
		at := storage.PageHeaderSize + storage.ItemIDSize*i
		binary.LittleEndian.PutUint32(p[at:], uint32(int(binary.LittleEndian.Uint32(p[at:]))+delta<<17))
	}
	cp := func() storage.Page { return append(storage.Page(nil), page...) }
	cut := cp()[:len(page)-width/2-1]
	short := cp()
	lpLen(short, 0, -1)
	zero := cp()
	binary.LittleEndian.PutUint32(zero[storage.PageHeaderSize:], 0)
	// Item 1 ends where item 0's tuple starts, so both edits stay on the
	// page: a tuple split across the two items, and an empty payload
	// beside one two tuples wide.
	straddle := cp()
	lpLen(straddle, 0, -2)
	lpLen(straddle, 1, 2)
	doubled := cp()
	lpLen(doubled, 0, -width)
	lpLen(doubled, 1, width)
	return []storage.Page{cut, short, zero, straddle, doubled}
}

// TestExtractOracleStriderScenarios: ExtractPage against the VM oracle on
// every page of the differential suite's Strider scenarios, clean and
// damaged, two Striders at a time (CI runs this under -race).
func TestExtractOracleStriderScenarios(t *testing.T) {
	for i := 0; i < NumInstances; i++ {
		seed := int64(BaseSeed + i)
		g := NewGen(seed)
		sc, err := g.StriderScenario(g.PageSize(), 3, 40)
		if err != nil {
			t.Fatal(err)
		}
		sc.Pages = append(sc.Pages, damaged(sc.Pages[0], sc.Schema.DataWidth())...)
		if err := sc.CheckExtractOracle(); err != nil {
			t.Errorf("seed 0x%X: %v", seed, err)
		}
	}
}

// table3Scenario fills about two and a half pages with random rows of
// the workload's schema, or returns nil when a tuple does not fit the
// page size.
func table3Scenario(t *testing.T, g *Gen, wl datagen.Workload, pageSize int) *StriderScenario {
	t.Helper()
	schema := wl.Schema()
	rel := storage.NewRelation("t3", schema, pageSize)
	per := rel.TuplesPerPage()
	if per == 0 {
		return nil
	}
	for i := 0; i < 2*per+(per+1)/2; i++ {
		if _, err := rel.Insert(g.Row(schema)); err != nil {
			t.Fatal(err)
		}
	}
	sc := &StriderScenario{Schema: schema, PageSize: pageSize}
	for pn := 0; pn < rel.NumPages(); pn++ {
		pg, err := rel.Page(pn)
		if err != nil {
			t.Fatal(err)
		}
		sc.Pages = append(sc.Pages, pg)
	}
	return sc
}

// TestExtractOracleTable3: the same check on full and partial pages of
// every Table 3 schema at 8 KB and 32 KB pages.
func TestExtractOracleTable3(t *testing.T) {
	for _, pageSize := range []int{storage.PageSize8K, storage.PageSize32K} {
		seen := map[int]bool{}
		for _, wl := range datagen.Workloads {
			if seen[wl.Schema().NumCols()] {
				continue
			}
			seen[wl.Schema().NumCols()] = true
			sc := table3Scenario(t, NewGen(metaSeed+40), wl, pageSize)
			if sc == nil {
				continue
			}
			t.Run(fmt.Sprintf("%s@%dK", wl.TableName(), pageSize>>10), func(t *testing.T) {
				sc.Pages = append(sc.Pages, damaged(sc.Pages[0], sc.Schema.DataWidth())...)
				if err := sc.CheckExtractOracle(); err != nil {
					t.Error(err)
				}
			})
		}
	}
}

// plantedWalk is the access engine's walk reassembled from the exported
// pieces it is made of — the layout's fields, the program's bounds,
// strider.WalkCost, deformat's conversions — with one fault planted per
// flag. The meta-test hands it to CheckExtract in ExtractPage's place:
// unfaulted it must pass, and every fault must fail.
type plantedWalk struct {
	layout strider.PageLayout
	schema *storage.Schema

	stepOffByOne      bool // closed form counts one instruction too many
	boundFromLayout   bool // lp_off + header + width checked against the layout's page size, not the page
	shortSkip         bool // payload read 4 bytes into the tuple header
	swappedColumns    bool // convert list entries 0 and 1 exchanged
	copyLate          bool // packed float4 copy starts 4 bytes into the payload
	copyDropsLast     bool // packed float4 copy stops 4 bytes short
	straddleLosesTail bool // general path: a tuple split across items keeps only its first item's bytes
	emitFloor         bool // general path: an item's emit cycles charged as ⌊p/8⌋
}

// item returns line pointer i's lp_off and lp_len.
func (p plantedWalk) item(page storage.Page, i int) (off, ln int) {
	l := p.layout
	lp := uint64(binary.LittleEndian.Uint32(page[l.HeaderSize+l.ItemIDSize*i:]))
	return int(l.ItemOffField.Extract(lp)), int(l.ItemLenField.Extract(lp))
}

func (p plantedWalk) extract(_ int, page storage.Page, res *accessengine.PageResult) error {
	l, w, cols := p.layout, p.schema.DataWidth(), p.schema.NumCols()
	if len(page) < l.HeaderReadEnd() {
		return fmt.Errorf("planted walk: header: %w", fault.ErrVMTrap)
	}
	n := 1
	if lower := int(binary.LittleEndian.Uint16(page[l.LowerOffset:])); lower > l.HeaderSize+l.ItemIDSize {
		n = (lower - l.HeaderSize + l.ItemIDSize - 1) / l.ItemIDSize
	}
	if l.HeaderSize+l.ItemIDSize*n > len(page) {
		return fmt.Errorf("planted walk: pointer array: %w", fault.ErrVMTrap)
	}
	limit := len(page)
	if p.boundFromLayout {
		limit = l.PageSize
	}
	skip := l.TupleHeaderSize
	if p.shortSkip {
		skip -= 4
	}
	order := make([]int, cols)
	for j := range order {
		order[j] = j
	}
	if p.swappedColumns {
		order[0], order[1] = 1, 0
	}
	for i := 0; i < n; i++ {
		if off, ln := p.item(page, i); ln-l.TupleHeaderSize != w || off+l.TupleHeaderSize+w > limit {
			return p.general(page, n, res)
		}
	}
	res.Data, res.Rows = res.Data[:0], res.Rows[:0]
	for i := 0; i < n; i++ {
		off, _ := p.item(page, i)
		vals, err := deformat(p.schema, page[off+skip:off+skip+w], nil)
		if err != nil {
			return err
		}
		if p.copyLate || p.copyDropsLast {
			// A packed payload copied whole, with the bytes it copies cut
			// short at one end; the value left out keeps a fresh extent's 0.
			src := page[off+skip : off+skip+w]
			if p.copyLate {
				src = src[4:]
			} else {
				src = src[:w-4]
			}
			clear(vals)
			for j := 0; 4*j < len(src); j++ {
				vals[j] = math.Float32frombits(binary.LittleEndian.Uint32(src[4*j:]))
			}
		}
		for _, j := range order {
			res.Data = append(res.Data, vals[j])
		}
	}
	for at := 0; at < len(res.Data); at += cols {
		res.Rows = append(res.Rows, res.Data[at:at+cols])
	}
	res.Steps, res.Cycles, res.Bytes = strider.WalkCost(n, w)
	if p.stepOffByOne {
		res.Steps++
		res.Cycles++
	}
	return nil
}

// general is the walk of a page whose items are not all one payload
// wide: the payloads concatenated, as cln emits them, and cut into
// tuples.
func (p plantedWalk) general(page storage.Page, n int, res *accessengine.PageResult) error {
	skip, w := p.layout.TupleHeaderSize, p.schema.DataWidth()
	var stream []byte
	var starts []int
	emit := 0
	for i := 0; i < n; i++ {
		off, ln := p.item(page, i)
		if ln < skip || off+ln > len(page) {
			return fmt.Errorf("planted walk: item %d: %w", i, fault.ErrVMTrap)
		}
		starts = append(starts, len(stream))
		stream = append(stream, page[off+skip:off+ln]...)
		if p.emitFloor {
			emit += (ln - skip) / 8
		} else {
			emit += (ln - skip + 7) / 8
		}
	}
	if len(stream)%w != 0 {
		return errors.New("planted walk: a stream that is not whole tuples")
	}
	if p.straddleLosesTail {
		for _, at := range starts {
			if at%w != 0 {
				clear(stream[at : at-at%w+w])
			}
		}
	}
	res.Data, res.Rows = res.Data[:0], res.Rows[:0]
	for at := 0; at < len(stream); at += w {
		var err error
		if res.Data, err = deformat(p.schema, stream[at:at+w], res.Data); err != nil {
			return err
		}
	}
	for at, cols := 0, p.schema.NumCols(); at < len(res.Data); at += cols {
		res.Rows = append(res.Rows, res.Data[at:at+cols])
	}
	res.Steps, res.Cycles, _ = strider.WalkCost(n, 0)
	res.Cycles += int64(emit)
	res.Bytes = int64(len(stream))
	return nil
}

// TestExtractOracleDetectsPlantedFaults is the mutation meta-test of
// Oracle E: each fault a walk can have must fail CheckExtract on pages
// the unfaulted walk clears, on a convert-list schema (Netflix) and on a
// packed float4 one (Remote Sensing LR), whose faults include the
// copy's. The damaged pages send the general path's faults through it.
func TestExtractOracleDetectsPlantedFaults(t *testing.T) {
	const striders = 2
	faults := map[string]func(*plantedWalk){
		"closed form off by one step":                     func(p *plantedWalk) { p.stepOffByOne = true },
		"lp_off + header <= page bound taken from layout": func(p *plantedWalk) { p.boundFromLayout = true },
		"tuple-header skip four bytes short":              func(p *plantedWalk) { p.shortSkip = true },
		"columns 0 and 1 swapped in the convert list":     func(p *plantedWalk) { p.swappedColumns = true },
		"a tuple split across items loses its tail":       func(p *plantedWalk) { p.straddleLosesTail = true },
		"emit cycles charged from ⌊p/8⌋":                  func(p *plantedWalk) { p.emitFloor = true },
	}
	copyFaults := map[string]func(*plantedWalk){
		"packed copy four bytes late":      func(p *plantedWalk) { p.copyLate = true },
		"packed copy drops the last value": func(p *plantedWalk) { p.copyDropsLast = true },
	}
	for i, c := range []struct {
		workload string
		faults   []map[string]func(*plantedWalk)
	}{
		{"Netflix", []map[string]func(*plantedWalk){faults}},
		{"Remote Sensing LR", []map[string]func(*plantedWalk){faults, copyFaults}},
	} {
		wl, err := datagen.ByName(c.workload)
		if err != nil {
			t.Fatal(err)
		}
		sc := table3Scenario(t, NewGen(metaSeed+41+int64(i)), wl, storage.PageSize8K)
		sc.Pages = append(sc.Pages, damaged(sc.Pages[0], sc.Schema.DataWidth())...)
		layout := strider.PostgresLayout(sc.PageSize)
		clean := plantedWalk{layout: layout, schema: sc.Schema}
		check := func(p plantedWalk) error {
			return CheckExtract(p.extract, layout, sc.Schema, sc.Pages, striders)
		}
		if err := check(clean); err != nil {
			t.Fatalf("%s: unfaulted walk: %v", c.workload, err)
		}
		for _, fs := range c.faults {
			for name, plant := range fs {
				p := clean
				plant(&p)
				if err := check(p); err == nil {
					t.Errorf("%s: %s: oracle E did not fire", c.workload, name)
				} else {
					t.Logf("%s: %s: %v", c.workload, name, err)
				}
			}
		}
	}
}

func TestDeformatMixedTypes(t *testing.T) {
	schema := storage.RatingSchema() // int4, int4, float4
	buf := make([]byte, schema.DataWidth())
	if err := schema.EncodeValues(buf, []float64{42, 7, 3.5}); err != nil {
		t.Fatal(err)
	}
	rec, err := deformat(schema, buf, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rec[0] != 42 || rec[1] != 7 || rec[2] != 3.5 {
		t.Errorf("rec = %v", rec)
	}
}

func TestDeformatFloat64Narrowing(t *testing.T) {
	schema := storage.NewSchema(storage.Column{Name: "x", Type: storage.TFloat64})
	buf := make([]byte, schema.DataWidth())
	if err := schema.EncodeValues(buf, []float64{math.Pi}); err != nil {
		t.Fatal(err)
	}
	rec, err := deformat(schema, buf, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rec[0] != float32(math.Pi) {
		t.Errorf("rec = %v", rec)
	}
}

func TestDeformatShortPayload(t *testing.T) {
	schema := storage.NumericSchema(4)
	if _, err := deformat(schema, make([]byte, 3), nil); err == nil {
		t.Error("short payload accepted")
	}
}
