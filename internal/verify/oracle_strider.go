package verify

import (
	"bytes"
	"fmt"

	"dana/internal/storage"
	"dana/internal/strider"
)

// Oracle B: Strider equivalence. The record stream emitted by the
// compiled walker program running in the Strider VM must be
// byte-identical to (1) the direct storage decode of the live tuples in
// page order and (2) the generator's own encoding of the ground-truth
// rows. Comparing against both means a fault anywhere — walker program,
// VM, tuple codec, or page layout — breaks at least one leg.

// CheckStriderOracle compiles the PostgreSQL walker for the scenario's
// page size and checks it.
func (sc *StriderScenario) CheckStriderOracle() error {
	prog, cfg, err := strider.Generate(strider.PostgresLayout(sc.PageSize))
	if err != nil {
		return fmt.Errorf("oracle B: %w", err)
	}
	return sc.CheckProgram(prog, cfg)
}

// CheckProgram runs the given walker over every page and performs the
// three-way comparison. Split out so the mutation meta-test can inject
// a corrupted program.
func (sc *StriderScenario) CheckProgram(prog []strider.Instr, cfg strider.Config) error {
	vm := strider.NewVM(prog, cfg)
	var vmOut, direct, truth []byte

	for p, page := range sc.Pages {
		if err := vm.Run(page); err != nil {
			return fmt.Errorf("oracle B: page %d: %w", p, err)
		}
		vmOut = append(vmOut, vm.Out()...)
		for i := 0; i < page.NumItems(); i++ {
			raw, err := page.Item(i)
			if err != nil {
				return fmt.Errorf("oracle B: page %d item %d: %w", p, i, err)
			}
			m, err := storage.DecodeTupleMeta(raw)
			if err != nil {
				return fmt.Errorf("oracle B: page %d item %d: %w", p, i, err)
			}
			direct = append(direct, raw[m.Hoff:]...)
		}
	}

	buf := make([]byte, sc.Schema.DataWidth())
	for _, row := range sc.Rows {
		if err := sc.Schema.EncodeValues(buf, row); err != nil {
			return fmt.Errorf("oracle B: %w", err)
		}
		truth = append(truth, buf...)
	}

	if want := len(sc.Rows) * sc.Schema.DataWidth(); len(vmOut) != want {
		return fmt.Errorf("oracle B: VM emitted %d bytes, layout predicts %d", len(vmOut), want)
	}
	if !bytes.Equal(vmOut, direct) {
		return fmt.Errorf("oracle B: VM stream (%d bytes) != direct decode (%d bytes) at offset %d",
			len(vmOut), len(direct), firstDiff(vmOut, direct))
	}
	if !bytes.Equal(vmOut, truth) {
		return fmt.Errorf("oracle B: VM stream (%d bytes) != ground truth (%d bytes) at offset %d",
			len(vmOut), len(truth), firstDiff(vmOut, truth))
	}
	return nil
}

// CheckInnoStriderOracle compiles and checks the InnoDB walker.
func (sc *InnoStriderScenario) CheckInnoStriderOracle() error {
	prog, cfg, err := strider.GenerateInnoDB(strider.InnoDBLayout(sc.PageSize, sc.Schema))
	if err != nil {
		return fmt.Errorf("oracle B (inno): %w", err)
	}
	return sc.CheckInnoProgram(prog, cfg)
}

// CheckInnoProgram is the injectable-program variant for InnoDB pages.
func (sc *InnoStriderScenario) CheckInnoProgram(prog []strider.Instr, cfg strider.Config) error {
	vm := strider.NewVM(prog, cfg)
	var vmOut, direct, truth []byte

	for p := 0; p < sc.Rel.NumPages(); p++ {
		page, err := sc.Rel.Page(p)
		if err != nil {
			return fmt.Errorf("oracle B (inno): %w", err)
		}
		if err := vm.Run(page); err != nil {
			return fmt.Errorf("oracle B (inno): page %d: %w", p, err)
		}
		vmOut = append(vmOut, vm.Out()...)
		recs, err := page.Records(sc.Schema.DataWidth())
		if err != nil {
			return fmt.Errorf("oracle B (inno): page %d: %w", p, err)
		}
		for _, rec := range recs {
			direct = append(direct, rec...)
		}
	}

	buf := make([]byte, sc.Schema.DataWidth())
	for _, row := range sc.Rows {
		if err := sc.Schema.EncodeValues(buf, row); err != nil {
			return fmt.Errorf("oracle B (inno): %w", err)
		}
		truth = append(truth, buf...)
	}

	if !bytes.Equal(vmOut, direct) {
		return fmt.Errorf("oracle B (inno): VM stream (%d bytes) != direct decode (%d bytes) at offset %d",
			len(vmOut), len(direct), firstDiff(vmOut, direct))
	}
	if !bytes.Equal(vmOut, truth) {
		return fmt.Errorf("oracle B (inno): VM stream (%d bytes) != ground truth (%d bytes) at offset %d",
			len(vmOut), len(truth), firstDiff(vmOut, truth))
	}
	return nil
}

// firstDiff returns the first differing byte offset (or the shorter
// length when one stream is a prefix of the other).
func firstDiff(a, b []byte) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return i
		}
	}
	return n
}
