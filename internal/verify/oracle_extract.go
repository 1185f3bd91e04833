package verify

import (
	"errors"
	"fmt"
	"math"
	"sync"

	"dana/internal/accessengine"
	"dana/internal/fault"
	"dana/internal/storage"
	"dana/internal/strider"
)

// Oracle E: extraction equivalence. The access engine decodes a page
// directly and charges the Strider program's cost from a closed form;
// what it must return is defined by the program itself. The oracle here
// is that definition rebuilt from exported pieces — strider.VM running
// the program, every emitted payload through accessengine.Deformat,
// counters read off the VM — so a fault in the direct pass, in its
// closed form, or in the engine's own VM fallback breaks the comparison.

// ExtractFunc is the shape of accessengine.Engine.ExtractPage.
type ExtractFunc func(strider int, page storage.Page, res *accessengine.PageResult) error

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
		if res.Data, err = accessengine.Deformat(schema, out[:w], res.Data); err != nil {
			return err
		}
	}
	for at, cols := 0, schema.NumCols(); at < len(res.Data); at += cols {
		res.Rows = append(res.Rows, res.Data[at:at+cols])
	}
	res.Steps, res.Cycles, res.Bytes = vm.Steps(), vm.Cycles(), int64(len(vm.Out()))
	return nil
}

// CheckExtract runs every page through extract and through the oracle
// and requires the same outcome page by page: the same rows, value for
// value as bits, the same Steps, Cycles and Bytes, and an error exactly
// where the oracle has one, a Strider trap where it traps. The pages are
// dealt pn mod striders to that many goroutines, each on its own Strider
// index with results it recycles — the executor's concurrency, so the
// race detector sees what production runs.
func CheckExtract(extract ExtractFunc, prog []strider.Instr, cfg strider.Config, schema *storage.Schema, pages []storage.Page, striders int) error {
	errs := make([]error, striders)
	var wg sync.WaitGroup
	for s := 0; s < striders; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			vm := strider.NewVM(prog, cfg)
			var got, want accessengine.PageResult
			for pn := s; pn < len(pages) && errs[s] == nil; pn += striders {
				got.PageNo = pn
				gotErr, wantErr := extract(s, pages[pn], &got), vmExtract(vm, schema, pages[pn], &want)
				switch {
				case gotErr != nil && wantErr != nil:
					if errors.Is(gotErr, fault.ErrVMTrap) != errors.Is(wantErr, fault.ErrVMTrap) {
						errs[s] = fmt.Errorf("oracle E: page %d: error %v, oracle %v", pn, gotErr, wantErr)
					}
				case gotErr != nil || wantErr != nil:
					errs[s] = fmt.Errorf("oracle E: page %d: error %v, oracle %v", pn, gotErr, wantErr)
				default:
					if d := diffExtract(&got, &want); d != "" {
						errs[s] = fmt.Errorf("oracle E: page %d: %s", pn, d)
					}
				}
			}
		}(s)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// diffExtract names the first difference between a result and the
// oracle's, or returns "".
func diffExtract(got, want *accessengine.PageResult) string {
	if got.Steps != want.Steps || got.Cycles != want.Cycles || got.Bytes != want.Bytes {
		return fmt.Sprintf("steps/cycles/bytes %d/%d/%d, oracle %d/%d/%d",
			got.Steps, got.Cycles, got.Bytes, want.Steps, want.Cycles, want.Bytes)
	}
	if len(got.Rows) != len(want.Rows) || len(got.Data) != len(want.Data) {
		return fmt.Sprintf("%d rows over %d values, oracle %d over %d", len(got.Rows), len(got.Data), len(want.Rows), len(want.Data))
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
	for i, v := range want.Data {
		if math.Float32bits(got.Data[i]) != math.Float32bits(v) {
			return fmt.Sprintf("data[%d] = %v, oracle %v", i, got.Data[i], v)
		}
	}
	return ""
}

// CheckExtractOracle checks a PostgreSQL-layout access engine over the
// scenario's pages on two concurrent Striders.
func (sc *StriderScenario) CheckExtractOracle() error {
	e, err := accessengine.New(strider.PostgresLayout(sc.PageSize), sc.Schema, 2)
	if err != nil {
		return fmt.Errorf("oracle E: %w", err)
	}
	return CheckExtract(e.ExtractPage, e.Program(), e.Config(), sc.Schema, sc.Pages, e.NumStriders)
}
