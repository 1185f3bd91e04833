package verify

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sync"
	"unsafe"

	"dana/internal/accessengine"
	"dana/internal/fault"
	"dana/internal/storage"
	"dana/internal/strider"
)

// Oracle E: extraction equivalence. The access engine walks a page in
// one pass and charges the Strider program's cost from a closed form;
// what it must return is defined by the program itself. The oracle here
// is that definition rebuilt from exported pieces — strider.VM running
// the program strider.Generate emits, every emitted tuple through
// deformat, counters read off the VM — so a fault in the walk's fast
// path, its general path or its closed form breaks the comparison.

// ExtractFunc is the shape of accessengine.Engine.ExtractPage.
type ExtractFunc func(strider int, page storage.Page, res *accessengine.PageResult) error

// deformat converts one tuple's payload bytes into float32 values, one
// per column, appended to dst: ints converted to float, float8 narrowed.
// It is the oracle's own statement of the "transform user data into a
// floating point format" step of §6.2, kept apart from the walk's.
func deformat(schema *storage.Schema, data []byte, dst []float32) ([]float32, error) {
	if len(data) < schema.DataWidth() {
		return dst, fmt.Errorf("oracle E: payload %d bytes, schema needs %d", len(data), schema.DataWidth())
	}
	for i, col := range schema.Cols {
		b := data[schema.ColOffset(i):]
		var v float32
		switch col.Type {
		case storage.TFloat32:
			v = math.Float32frombits(binary.LittleEndian.Uint32(b))
		case storage.TFloat64:
			v = float32(math.Float64frombits(binary.LittleEndian.Uint64(b)))
		case storage.TInt32:
			v = float32(int32(binary.LittleEndian.Uint32(b)))
		case storage.TInt64:
			v = float32(int64(binary.LittleEndian.Uint64(b)))
		default:
			return dst, fmt.Errorf("oracle E: column %q has unsupported type %v", col.Name, col.Type)
		}
		dst = append(dst, v)
	}
	return dst, nil
}

// vmExtract is the oracle for one page.
func vmExtract(vm *strider.VM, schema *storage.Schema, page storage.Page, res *accessengine.PageResult) error {
	if err := vm.Run(page); err != nil {
		return err
	}
	out, w := vm.Out(), schema.DataWidth()
	if len(out)%w != 0 {
		return fmt.Errorf("oracle E: VM emitted %d bytes, not a multiple of tuple width %d", len(out), w)
	}
	res.Data, res.Rows = res.Data[:0], res.Rows[:0]
	for ; len(out) > 0; out = out[w:] {
		var err error
		if res.Data, err = deformat(schema, out[:w], res.Data); err != nil {
			return err
		}
	}
	for at, cols := 0, schema.NumCols(); at < len(res.Data); at += cols {
		res.Rows = append(res.Rows, res.Data[at:at+cols])
	}
	res.Steps, res.Cycles, res.Bytes = vm.Steps(), vm.Cycles(), int64(len(vm.Out()))
	return nil
}

// CheckExtract runs every page through extract and through the oracle,
// the program strider.Generate emits for the layout, and requires the
// same outcome page by page: the same rows, value for value as bits, the
// same Steps, Cycles and Bytes, and an error exactly where the oracle has
// one, a Strider trap exactly where it traps. Each page is extracted
// twice, into a fresh result and into one recycled from the pages
// before, because the two may take different forms (see
// accessengine.PageResult): the rows must be views of the page with Data
// empty, or cover Data exactly. The pages are dealt pn mod striders to
// that many goroutines, each on its own Strider index — the executor's
// concurrency, so the race detector sees what production runs.
func CheckExtract(extract ExtractFunc, layout strider.PageLayout, schema *storage.Schema, pages []storage.Page, striders int) error {
	prog, cfg, err := strider.Generate(layout)
	if err != nil {
		return fmt.Errorf("oracle E: %w", err)
	}
	errs := make([]error, striders)
	var wg sync.WaitGroup
	for s := 0; s < striders; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			vm := strider.NewVM(prog, cfg)
			var recycled, want accessengine.PageResult
			for pn := s; pn < len(pages) && errs[s] == nil; pn += striders {
				wantErr := vmExtract(vm, schema, pages[pn], &want)
				recycled.PageNo = pn
				for _, got := range []*accessengine.PageResult{{PageNo: pn}, &recycled} {
					if err := sameExtract(extract(s, pages[pn], got), wantErr, got, &want, pages[pn]); err != nil {
						errs[s] = fmt.Errorf("oracle E: page %d (fresh result: %v): %w", pn, got != &recycled, err)
						break
					}
				}
			}
		}(s)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// sameExtract compares one extraction's outcome with the oracle's; errors
// match by class, a trap or not.
func sameExtract(gotErr, wantErr error, got, want *accessengine.PageResult, page storage.Page) error {
	switch {
	case gotErr != nil && wantErr != nil:
		if errors.Is(gotErr, fault.ErrVMTrap) != errors.Is(wantErr, fault.ErrVMTrap) {
			return fmt.Errorf("error %v, oracle %v", gotErr, wantErr)
		}
	case gotErr != nil || wantErr != nil:
		return fmt.Errorf("error %v, oracle %v", gotErr, wantErr)
	default:
		if d := diffExtract(got, want, page); d != "" {
			return errors.New(d)
		}
	}
	return nil
}

// diffExtract names the first difference between a result and the
// oracle's, or returns "".
func diffExtract(got, want *accessengine.PageResult, page storage.Page) string {
	if got.Steps != want.Steps || got.Cycles != want.Cycles || got.Bytes != want.Bytes {
		return fmt.Sprintf("steps/cycles/bytes %d/%d/%d, oracle %d/%d/%d",
			got.Steps, got.Cycles, got.Bytes, want.Steps, want.Cycles, want.Bytes)
	}
	if len(got.Rows) != len(want.Rows) {
		return fmt.Sprintf("%d rows, oracle %d", len(got.Rows), len(want.Rows))
	}
	for i, row := range want.Rows {
		if len(got.Rows[i]) != len(row) {
			return fmt.Sprintf("row %d has %d values, oracle %d", i, len(got.Rows[i]), len(row))
		}
		for j, v := range row {
			if math.Float32bits(got.Rows[i][j]) != math.Float32bits(v) {
				return fmt.Sprintf("row %d col %d = %v, oracle %v", i, j, got.Rows[i][j], v)
			}
		}
	}
	if !(len(got.Data) == 0 && rowsInside(got.Rows, page)) && !rowsCover(got.Rows, got.Data) {
		return fmt.Sprintf("%d rows are neither views of the page nor cover the %d values of Data", len(got.Rows), len(got.Data))
	}
	return ""
}

// rowsInside reports whether every row's values lie inside the page
// image's bytes.
func rowsInside(rows [][]float32, page []byte) bool {
	lo := uintptr(unsafe.Pointer(unsafe.SliceData(page)))
	for _, r := range rows {
		at := uintptr(unsafe.Pointer(unsafe.SliceData(r)))
		if at < lo || at+4*uintptr(len(r)) > lo+uintptr(len(page)) {
			return false
		}
	}
	return true
}

// rowsCover reports whether the rows lie end to end over the whole of
// data, in order.
func rowsCover(rows [][]float32, data []float32) bool {
	at := 0
	for _, r := range rows {
		if len(r) > len(data)-at || (len(r) > 0 && &r[0] != &data[at]) {
			return false
		}
		at += len(r)
	}
	return at == len(data)
}

// CheckExtractOracle checks a PostgreSQL-layout access engine over the
// scenario's pages on two concurrent Striders.
func (sc *StriderScenario) CheckExtractOracle() error {
	layout := strider.PostgresLayout(sc.PageSize)
	e, err := accessengine.New(layout, sc.Schema, 2)
	if err != nil {
		return fmt.Errorf("oracle E: %w", err)
	}
	return CheckExtract(e.ExtractPage, layout, sc.Schema, sc.Pages, e.NumStriders)
}
