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
	"fmt"

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

	walk   walker // the Strider program's function for Layout and Schema
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
	Instructions int64 // Strider instructions the program retires (strider.WalkCost's Steps)
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

// New builds the engine for a page layout and schema around the walk,
// the function of the Strider program strider.Generate emits for the
// layout (the compiler step, §6.2). It refuses a layout or schema the
// walk does not cover.
func New(layout strider.PageLayout, schema *storage.Schema, numStriders int) (*Engine, error) {
	if numStriders < 1 {
		return nil, fmt.Errorf("accessengine: need at least one strider, got %d", numStriders)
	}
	w, err := newWalker(layout, schema)
	if err != nil {
		return nil, err
	}
	return &Engine{Layout: layout, Schema: schema, NumStriders: numStriders, walk: w}, nil
}

// Stats returns a snapshot of the counters.
func (e *Engine) Stats() Stats { return e.stats }

// PageResult is one page's extraction output: one row view per tuple
// (Rows), over a single flat extent (Data) or over the page image
// itself, avoiding a per-tuple allocation. Cycles and Bytes carry the
// modeled Strider counters so stats can be charged later — and
// deterministically — by a Collector, independent of which host
// goroutine ran the extraction.
//
// A fresh result (no Rows capacity yet) is always filled by copy, so
// its rows lie contiguous in Data: the form a caller that keeps the rows
// (the record cache) replays. A recycled result, one that already held
// a page's rows, gets rows that are views of the page when the walker
// can take them straight from the image (a packed float4 payload,
// 4-aligned, on a little-endian host); Data is then empty. Such rows
// alias the pinned page image, which is immutable — a mutation of the
// heap clones it first — and must never be written.
//
// When Arena is set, Data extents that outgrow their current capacity
// are carved from that slab instead of the heap; Data capacity is
// still reused first, so a recycled PageResult touches the arena only
// when a page needs a larger extent.
type PageResult struct {
	PageNo int
	Rows   [][]float32
	Data   []float32
	Arena  *Arena // optional slab backing Data (nil = heap)
	Cycles int64
	Bytes  int64
	Steps  int64 // Strider instructions the program retires on this page
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

// emptyRows returns res.Rows emptied, with room for n rows.
//
//dana:hotpath
func (res *PageResult) emptyRows(n int) [][]float32 {
	rows := res.Rows[:0]
	if cap(rows) < n {
		//danalint:ignore hotcall -- capacity-guarded growth, reused once recycled
		rows = make([][]float32, 0, n)
	}
	return rows
}

// setRows rebuilds res.Rows as n views of cols values over res.Data,
// whose backing array must be final.
//
//dana:hotpath
func (res *PageResult) setRows(n, cols int) {
	rows := res.emptyRows(n)
	for i := 0; i < n; i++ {
		rows = append(rows, res.Data[i*cols:(i+1)*cols:(i+1)*cols])
	}
	res.Rows = rows
}

// ExtractPage unpacks the page on Strider si into res, reusing
// res.Data/res.Rows capacity, and sets the modeled counters the Strider
// program charges for it. The walk returns what the program emits, as
// float32 rows, and an error wrapping fault.ErrVMTrap wherever the
// program traps; strider.VM, the program's interpreter, is the
// definition it is held to (Oracle E). It does not touch the engine's
// stats (see Collector). The walk keeps no state, so calls are safe
// concurrently; si keys the injected traps, one schedule per Strider.
//
//dana:hotpath
func (e *Engine) ExtractPage(si int, page storage.Page, res *PageResult) error {
	if err := e.faults.TrapFault(si, res.PageNo); err != nil {
		return err
	}
	if err := e.walk.extract(page, res); err != nil {
		return fmt.Errorf("accessengine: strider %d, page %d: %w", si, res.PageNo, err)
	}
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
