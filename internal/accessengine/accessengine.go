// Package accessengine implements DAnA's multi-threaded access engine
// (paper §5.1, Figure 5): page buffers each served by a Strider that
// unpacks raw database pages, plus the conversion of extracted column
// bytes into the float32 values the execution engine consumes.
//
// Page-level parallelism is explicit: with S striders, S pages unpack
// concurrently, so the access-engine cycles for a page group are the
// maximum over its striders rather than the sum — the property that
// lets extraction interleave with execution (§5.1.1).
package accessengine

import (
	"encoding/binary"
	"fmt"
	"math"

	"dana/internal/fault"
	"dana/internal/obs"
	"dana/internal/storage"
	"dana/internal/strider"
)

// Engine is a configured access engine for one relation schema and page
// layout.
type Engine struct {
	Layout      strider.PageLayout
	Schema      *storage.Schema
	NumStriders int

	prog []strider.Instr
	cfg  strider.Config
	vms  []*strider.VM // vms[i] runs the pages walk declines on Strider i; nil until the first (see vm)

	// walk is the direct pass; direct is false for InnoDB engines and
	// layouts it does not cover.
	walk   walker
	direct bool

	faults *fault.Injector

	stats Stats

	// Observability handles (SetObs); nil handles are no-ops. Charged by
	// the Collector alongside stats, i.e. on the coordinating goroutine
	// in page order.
	obsPages  *obs.Counter
	obsTuples *obs.Counter
	obsBytes  *obs.Counter
	obsInstrs *obs.Counter
	obsCyc    *obs.Counter
	obsCycTot *obs.Counter
}

// Stats counts access-engine activity.
type Stats struct {
	Pages        int64
	Tuples       int64
	Bytes        int64 // payload bytes emitted to the execution engine
	Instructions int64 // strider VM instructions retired
	Cycles       int64 // strider cycles (max across concurrent striders per group)
	TotalCycles  int64 // sum of strider cycles across all striders (utilization)
}

// Utilization returns the mean fraction of the numStriders Striders
// kept busy under the group-max cycle model: total work over
// numStriders × the modeled (parallel) time.
func (s Stats) Utilization(numStriders int) float64 {
	if s.Cycles == 0 || numStriders < 1 {
		return 0
	}
	return float64(s.TotalCycles) / (float64(s.Cycles) * float64(numStriders))
}

// SetObs registers the engine's counters with an observability registry
// (obs.Noop disables).
func (e *Engine) SetObs(r *obs.Registry) {
	e.obsPages = r.Counter(obs.StriderPages)
	e.obsTuples = r.Counter(obs.StriderTuples)
	e.obsBytes = r.Counter(obs.StriderBytes)
	e.obsInstrs = r.Counter(obs.StriderInstrs)
	e.obsCyc = r.Counter(obs.StriderCycles)
	e.obsCycTot = r.Counter(obs.StriderCyclesTotal)
}

// SetFaults attaches a fault-injection schedule: ExtractPage then asks
// the injector whether the (strider, page) walk traps (nil detaches).
func (e *Engine) SetFaults(in *fault.Injector) { e.faults = in }

// New generates the Strider program for the page layout (the compiler
// step) and builds the engine around it: the form for callers with no
// catalog to load a verified program from (NewFor).
func New(layout strider.PageLayout, schema *storage.Schema, numStriders int) (*Engine, error) {
	prog, cfg, err := strider.Generate(layout)
	if err != nil {
		return nil, err
	}
	return NewFor(layout, schema, numStriders, prog, cfg)
}

// NewFor builds the engine around an already generated Strider program
// for the layout, which it keeps and never writes. Nothing runs prog
// until the walker declines a page: Strider i's VM is built by the first
// page ExtractPage(i, …) declines.
func NewFor(layout strider.PageLayout, schema *storage.Schema, numStriders int, prog []strider.Instr, cfg strider.Config) (*Engine, error) {
	if numStriders < 1 {
		return nil, fmt.Errorf("accessengine: need at least one strider, got %d", numStriders)
	}
	e := &Engine{
		Layout: layout, Schema: schema, NumStriders: numStriders,
		prog: prog, cfg: cfg, vms: make([]*strider.VM, numStriders),
	}
	e.walk, e.direct = newWalker(layout, schema)
	return e, nil
}

// NewInnoDB builds an access engine for MySQL/InnoDB-style pages: the
// Striders run the chain-walking program instead of the line-pointer
// walker, demonstrating the ISA's cross-engine portability (§5.1.2).
// Every page runs in the VM — the chain walk has no direct counterpart,
// and the bare layout resolves no walker — so the VMs are built here.
func NewInnoDB(pageSize int, schema *storage.Schema, numStriders int) (*Engine, error) {
	prog, cfg, err := strider.GenerateInnoDB(strider.InnoDBLayout(pageSize, schema))
	if err != nil {
		return nil, err
	}
	e, err := NewFor(strider.PageLayout{PageSize: pageSize}, schema, numStriders, prog, cfg)
	if err != nil {
		return nil, err
	}
	for i := range e.vms {
		e.vm(i)
	}
	return e, nil
}

// vm returns Strider i's VM, built on first use. Only the goroutine that
// owns index i calls vm(i) (ExtractPage's contract): no lock.
func (e *Engine) vm(i int) *strider.VM {
	if e.vms[i] == nil {
		e.vms[i] = strider.NewVM(e.prog, e.cfg)
		e.vms[i].Reserve(e.Layout.PageSize)
	}
	return e.vms[i]
}

// Program returns the Strider program the engine was built around.
func (e *Engine) Program() []strider.Instr { return e.prog }

// Config returns the Strider configuration the engine was built around.
func (e *Engine) Config() strider.Config { return e.cfg }

// Stats returns a snapshot of the counters.
func (e *Engine) Stats() Stats { return e.stats }

// Deformat converts one tuple's payload bytes into float32 values, one
// per column (ints converted to float; float8 narrowed). This is the
// "transform user data into a floating point format" step of §6.2.
//
//dana:hotpath
func Deformat(schema *storage.Schema, data []byte, dst []float32) ([]float32, error) {
	if len(data) < schema.DataWidth() {
		return dst, fmt.Errorf("accessengine: payload %d bytes, schema needs %d", len(data), schema.DataWidth())
	}
	for i, col := range schema.Cols {
		v, ok := colFloat(col.Type, data[schema.ColOffset(i):])
		if !ok {
			return dst, fmt.Errorf("accessengine: column %q has unsupported type", col.Name)
		}
		dst = append(dst, v)
	}
	return dst, nil
}

// colFloat converts one column's little-endian bytes to the engine's
// float32 (ints converted to float; float8 narrowed); ok is false for a
// type with no conversion.
func colFloat(t storage.ColType, b []byte) (v float32, ok bool) {
	switch t {
	case storage.TFloat32:
		return math.Float32frombits(binary.LittleEndian.Uint32(b)), true
	case storage.TFloat64:
		return float32(math.Float64frombits(binary.LittleEndian.Uint64(b))), true
	case storage.TInt32:
		return float32(int32(binary.LittleEndian.Uint32(b))), true
	case storage.TInt64:
		return float32(int64(binary.LittleEndian.Uint64(b))), true
	}
	return 0, false
}

// PageResult is one page's extraction output: the tuple values live in a
// single flat arena (Data) with one row view per tuple (Rows), avoiding
// a per-tuple allocation. Cycles and Bytes carry the modeled Strider
// counters so stats can be charged later — and deterministically — by a
// Collector, independent of which host goroutine ran the extraction.
//
// When Arena is set, Data extents that outgrow their current capacity
// are carved from that slab instead of the heap (the zero-copy
// path); Data capacity is still reused first, so a recycled
// PageResult touches the arena only when a page needs a larger extent.
type PageResult struct {
	PageNo int
	Rows   [][]float32
	Data   []float32
	Arena  *Arena // optional slab backing Data (nil = heap)
	Cycles int64
	Bytes  int64
	Steps  int64 // strider VM instructions retired on this page
}

// reserve empties res.Data and gives it room for total values: its own
// capacity reused first, then an extent carved from Arena, then the heap.
//
//dana:hotpath
func (res *PageResult) reserve(total int) {
	res.Data = res.Data[:0]
	if cap(res.Data) < total {
		if res.Arena != nil {
			res.Data = res.Arena.Alloc(total)
		} else {
			//danalint:ignore hotcall -- capacity-guarded growth for arena-less callers
			res.Data = make([]float32, 0, total)
		}
	}
}

// setRows rebuilds res.Rows as n views of cols values over res.Data,
// whose backing array must be final.
//
//dana:hotpath
func (res *PageResult) setRows(n, cols int) {
	rows := res.Rows[:0]
	if cap(rows) < n {
		//danalint:ignore hotcall -- capacity-guarded growth, reused once recycled
		rows = make([][]float32, 0, n)
	}
	for i := 0; i < n; i++ {
		rows = append(rows, res.Data[i*cols:(i+1)*cols:(i+1)*cols])
	}
	res.Rows = rows
}

// ExtractPage unpacks the page on Strider vmIdx into res, reusing
// res.Data/res.Rows capacity, and sets the modeled counters the Strider
// program charges for it. The walker decodes the page directly and
// charges the program's closed-form cost; a page it declines runs in
// the VM, which alone defines trap behaviour and error text. It does
// not touch the engine's stats (see Collector); calls are safe
// concurrently as long as each goroutine uses a distinct vmIdx — the
// host-parallel analogue of the S independent Striders.
//
//dana:hotpath
func (e *Engine) ExtractPage(vmIdx int, page storage.Page, res *PageResult) error {
	if err := e.faults.TrapFault(vmIdx, res.PageNo); err != nil {
		return err
	}
	if e.direct && e.walk.extract(page, res) {
		return nil
	}
	return e.extractVM(vmIdx, page, res)
}

// extractVM interprets the Strider program over the page and deformats
// the bytes it emits: the definition the walker is diffed against.
//
//dana:hotpath
func (e *Engine) extractVM(vmIdx int, page storage.Page, res *PageResult) error {
	//danalint:ignore hotcall -- one-time lazy VM build on a Strider's first declined page, reused afterwards
	vm := e.vm(vmIdx)
	if err := vm.Run(page); err != nil {
		return fmt.Errorf("accessengine: strider %d, page %d: %w", vmIdx, res.PageNo, err)
	}
	out := vm.Out()
	w := e.Schema.DataWidth()
	if len(out)%w != 0 {
		return fmt.Errorf("accessengine: strider emitted %d bytes, not a multiple of tuple width %d", len(out), w)
	}
	n := len(out) / w
	cols := e.Schema.NumCols()
	res.reserve(n * cols)
	for i := 0; i < n; i++ {
		var err error
		res.Data, err = Deformat(e.Schema, out[i*w:(i+1)*w], res.Data)
		if err != nil {
			return err
		}
	}
	res.setRows(n, cols)
	res.Cycles = vm.Cycles()
	res.Bytes = int64(len(out))
	res.Steps = vm.Steps()
	return nil
}

// Collector folds a page-ordered stream of PageResults into the engine's
// counters under the concurrent-strider cycle model: each consecutive
// group of NumStriders pages unpacks in parallel, so the group charges
// the maximum strider time in the group; per-page totals accumulate
// unconditionally. Feeding results in page order makes the charged
// cycles independent of host scheduling.
type Collector struct {
	e    *Engine
	fill int
	max  int64
}

// NewCollector starts a stats collection (one per page stream).
func (e *Engine) NewCollector() *Collector { return &Collector{e: e} }

// Reset re-arms the collector for a new page stream, discarding any
// group in flight (used when reusing one collector across epochs; a
// Flush already leaves the collector reset).
func (c *Collector) Reset() {
	c.fill = 0
	c.max = 0
}

// Add charges one page's counters, in page order.
func (c *Collector) Add(r *PageResult) {
	e := c.e
	st := &e.stats
	st.Pages++
	st.Tuples += int64(len(r.Rows))
	st.Bytes += r.Bytes
	st.Instructions += r.Steps
	st.TotalCycles += r.Cycles
	e.obsPages.Inc()
	e.obsTuples.Add(int64(len(r.Rows)))
	e.obsBytes.Add(r.Bytes)
	e.obsInstrs.Add(r.Steps)
	e.obsCycTot.Add(r.Cycles)
	if r.Cycles > c.max {
		c.max = r.Cycles
	}
	c.fill++
	if c.fill == c.e.NumStriders {
		c.flushGroup()
	}
}

func (c *Collector) flushGroup() {
	c.e.stats.Cycles += c.max
	c.e.obsCyc.Add(c.max)
	c.fill, c.max = 0, 0
}

// Flush charges a trailing partial group.
func (c *Collector) Flush() {
	if c.fill > 0 {
		c.flushGroup()
	}
}

// PageCycles returns the static Strider cycle cost of unpacking one page
// holding n tuples of the schema: the loop body is 7 instructions plus
// the emit cycles (1 per 8 payload bytes), plus the 4 header
// instructions. The cost model prices full-size workloads with it.
func PageCycles(schema *storage.Schema, tuplesPerPage int) int64 {
	emit := int64((schema.DataWidth() + 7) / 8)
	return 4 + int64(tuplesPerPage)*(7+emit)
}
