package verify

import (
	"encoding/binary"
	"fmt"
	"math"
	"testing"

	"dana/internal/accessengine"
	"dana/internal/datagen"
	"dana/internal/storage"
	"dana/internal/strider"
)

// damaged returns copies of a walker-clean page that the Strider program
// traps on or walks with an odd payload, so the oracle's error leg and
// the access engine's decline path run beside the clean pages.
func damaged(page storage.Page, width int) []storage.Page {
	cut := append(storage.Page(nil), page...)[:len(page)-width/2-1]
	short := append(storage.Page(nil), page...)
	lp := binary.LittleEndian.Uint32(short[storage.PageHeaderSize:])
	binary.LittleEndian.PutUint32(short[storage.PageHeaderSize:], lp-1<<17) // lp_len one byte short
	zero := append(storage.Page(nil), page...)
	binary.LittleEndian.PutUint32(zero[storage.PageHeaderSize:], 0)
	return []storage.Page{cut, short, zero}
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

// plantedWalk is the access engine's direct pass reassembled from the
// exported pieces it is made of — the layout's fields, the program's
// bounds, strider.WalkCost, Deformat's conversions — with one fault
// planted per flag. The meta-test hands it to CheckExtract in
// ExtractPage's place: unfaulted it must pass, and every fault must fail.
type plantedWalk struct {
	layout   strider.PageLayout
	schema   *storage.Schema
	fallback ExtractFunc // where a declined page goes: the VM

	stepOffByOne    bool // closed form counts one instruction too many
	boundFromLayout bool // lp_off + header + width checked against the layout's page size, not the page
	shortSkip       bool // payload read 4 bytes into the tuple header
	swappedColumns  bool // convert list entries 0 and 1 exchanged
	copyLate        bool // packed float4 copy starts 4 bytes into the payload
	copyDropsLast   bool // packed float4 copy stops 4 bytes short
}

func (p plantedWalk) extract(vmIdx int, page storage.Page, res *accessengine.PageResult) error {
	l, w, cols := p.layout, p.schema.DataWidth(), p.schema.NumCols()
	if len(page) < l.HeaderReadEnd() {
		return p.fallback(vmIdx, page, res)
	}
	n := 1
	if lower := int(binary.LittleEndian.Uint16(page[l.LowerOffset:])); lower > l.HeaderSize+l.ItemIDSize {
		n = (lower - l.HeaderSize + l.ItemIDSize - 1) / l.ItemIDSize
	}
	if l.HeaderSize+l.ItemIDSize*n > len(page) {
		return p.fallback(vmIdx, page, res)
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
	res.Data, res.Rows = res.Data[:0], res.Rows[:0]
	for i := 0; i < n; i++ {
		lp := uint64(binary.LittleEndian.Uint32(page[l.HeaderSize+l.ItemIDSize*i:]))
		off, ln := int(l.ItemOffField.Extract(lp)), int(l.ItemLenField.Extract(lp))
		if ln-l.TupleHeaderSize != w || off+l.TupleHeaderSize+w > limit {
			return p.fallback(vmIdx, page, res)
		}
		vals, err := accessengine.Deformat(p.schema, page[off+skip:off+skip+w], nil)
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

// TestExtractOracleDetectsPlantedFaults is the mutation meta-test of
// Oracle E: each fault a direct pass can have must fail CheckExtract on
// pages the unfaulted pass clears, on a convert-list schema (Netflix)
// and on a packed float4 one (Remote Sensing LR), whose faults include
// the copy's.
func TestExtractOracleDetectsPlantedFaults(t *testing.T) {
	const striders = 2
	faults := map[string]func(*plantedWalk){
		"closed form off by one step":                     func(p *plantedWalk) { p.stepOffByOne = true },
		"lp_off + header <= page bound taken from layout": func(p *plantedWalk) { p.boundFromLayout = true },
		"tuple-header skip four bytes short":              func(p *plantedWalk) { p.shortSkip = true },
		"columns 0 and 1 swapped in the convert list":     func(p *plantedWalk) { p.swappedColumns = true },
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
		prog, cfg, err := strider.Generate(layout)
		if err != nil {
			t.Fatal(err)
		}
		vms := make([]*strider.VM, striders)
		for i := range vms {
			vms[i] = strider.NewVM(prog, cfg)
		}
		clean := plantedWalk{layout: layout, schema: sc.Schema,
			fallback: func(vmIdx int, page storage.Page, res *accessengine.PageResult) error {
				return vmExtract(vms[vmIdx], sc.Schema, page, res)
			}}
		check := func(p plantedWalk) error {
			return CheckExtract(p.extract, prog, cfg, sc.Schema, sc.Pages, striders)
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
