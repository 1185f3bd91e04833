package strider

import (
	"fmt"

	"dana/internal/storage"
)

// PageLayout describes the target RDBMS page organization the generated
// Strider program must parse. The defaults mirror PostgreSQL (and our
// internal/storage implementation); MySQL/InnoDB-style layouts differ
// only in these constants, which is exactly the flexibility the ISA is
// designed for (paper §5.1.2).
type PageLayout struct {
	PageSize        int // total page bytes
	HeaderSize      int // page header bytes (24 for PostgreSQL)
	LowerOffset     int // byte offset of pd_lower within the header
	UpperOffset     int // byte offset of pd_upper
	ItemIDSize      int // line pointer width (4)
	ItemOffField    FieldDesc
	ItemLenField    FieldDesc
	ItemFlagsField  FieldDesc
	TupleHeaderSize int // heap tuple header bytes to strip (24)
}

// PostgresLayout returns the layout of internal/storage pages.
func PostgresLayout(pageSize int) PageLayout {
	return PageLayout{
		PageSize:        pageSize,
		HeaderSize:      storage.PageHeaderSize,
		LowerOffset:     12,
		UpperOffset:     14,
		ItemIDSize:      storage.ItemIDSize,
		ItemOffField:    FieldDesc{Start: 0, Width: 15},
		ItemLenField:    FieldDesc{Start: 17, Width: 15},
		ItemFlagsField:  FieldDesc{Start: 15, Width: 2},
		TupleHeaderSize: storage.TupleHeaderSize,
	}
}

// Generate emits the Strider program and configuration that walk a page
// of the given layout and emit every tuple's user data (header
// stripped) to the output FIFO. This is the compiler step of paper §6.2
// that turns "the database page configuration into a set of Strider
// instructions".
//
// The generated loop is a do-while (bentr/bexit, as in the paper's
// sample): it assumes at least one tuple per page and all line pointers
// live, which holds for the append-only training heaps the storage
// layer produces.
func Generate(layout PageLayout) ([]Instr, Config, error) {
	if layout.HeaderSize > operandImmMax+1 || layout.TupleHeaderSize > operandImmMax {
		return nil, Config{}, fmt.Errorf("strider: header sizes %d/%d exceed immediate range; preload a config register",
			layout.HeaderSize, layout.TupleHeaderSize)
	}
	var cfg Config
	cfg.Fields[0] = layout.ItemOffField
	cfg.Fields[1] = layout.ItemLenField
	cfg.Fields[2] = layout.ItemFlagsField

	src := fmt.Sprintf(`
\\ Page header processing
readB %d, 2, %%cr0          \\ pd_lower: end of the line pointer array
readB %d, 2, %%cr1          \\ pd_upper: start of tuple data (free-space end)
readB %d, 2, %%cr2          \\ page size | layout version
ad %d, 0, %%t0              \\ t0 = address of first line pointer
\\ Tuple extraction and processing
bentr
readB %%t0, %d, %%t1        \\ load the line pointer
extrBi %%t1, 0, %%t2        \\ lp_off: tuple byte offset
extrBi %%t1, 1, %%t3        \\ lp_len: tuple length
sub %%t3, %d, %%t3          \\ payload length = lp_len - tuple header
cln %%t2, %d, %%t3          \\ emit cleaned payload to the engines
ad %%t0, %d, %%t0           \\ advance to the next line pointer
bexit 1, %%t0, %%cr0        \\ exit once the pointer reaches pd_lower
`,
		layout.LowerOffset, layout.UpperOffset, sizeVersionOffset, layout.HeaderSize,
		layout.ItemIDSize, layout.TupleHeaderSize, layout.TupleHeaderSize,
		layout.ItemIDSize)
	prog, err := Assemble(src)
	if err != nil {
		return nil, Config{}, fmt.Errorf("strider: generated program failed to assemble: %w", err)
	}
	if err := verifyGenerated(prog, cfg, layout.PageSize); err != nil {
		return nil, Config{}, err
	}
	return prog, cfg, nil
}

// verifyGenerated is the compiler's own gate: a generated walker with a
// definite trap is a code-generation bug, never a data problem, so it
// fails generation outright rather than trapping a Strider at dispatch.
func verifyGenerated(prog []Instr, cfg Config, pageSize int) error {
	rep := Verify(prog, cfg, VerifyOptions{PageSize: pageSize})
	if err := rep.Err(false); err != nil {
		return fmt.Errorf("strider: generated program failed verification: %w", err)
	}
	return nil
}

// sizeVersionOffset is pd_pagesize_version, the third header field the
// generated program loads.
const sizeVersionOffset = 18

// HeaderReadEnd returns how many page bytes the generated program's
// three 2-byte header readBs need; a shorter page traps the walk.
func (l PageLayout) HeaderReadEnd() int {
	return max(l.LowerOffset, l.UpperOffset, sizeVersionOffset) + 2
}

// WalkCost is the one statement of what the program Generate emits
// costs on a page it walks to completion, in the VM's own units: the
// three header readBs, the ad and bentr retire once, the seven-
// instruction loop body once per line pointer, and each cln adds one
// cycle per 8 payload bytes moved. In general Cycles = Steps +
// Σ⌈payloadᵢ/8⌉ and Bytes = Σ payloadᵢ; items of one payload width —
// the only pages a caller may charge without running the VM — close it.
// A do-while walk retires at least one item, and a 2-byte pd_lower
// bounds items far below the VM's step budget.
func WalkCost(items, payload int) (steps, cycles, bytes int64) {
	n := int64(items)
	steps = 5 + 7*n
	return steps, steps + n*int64((payload+7)/8), n * int64(payload)
}
