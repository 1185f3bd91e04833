package strider

import (
	"bytes"
	"math/rand"
	"testing"

	"dana/internal/storage"
)

func buildInnoPage(t *testing.T, schema *storage.Schema, n int, seed int64) (storage.InnoPage, []byte) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	page := storage.NewInnoPage(storage.PageSize8K)
	var want []byte
	buf := make([]byte, schema.DataWidth())
	for i := 0; i < n; i++ {
		vals := make([]float64, schema.NumCols())
		for j := range vals {
			vals[j] = float64(float32(rng.NormFloat64()))
		}
		if err := schema.EncodeValues(buf, vals); err != nil {
			t.Fatal(err)
		}
		if err := page.AddRecord(buf); err != nil {
			t.Fatal(err)
		}
		want = append(want, buf...)
	}
	return page, want
}

func TestInnoPageChain(t *testing.T) {
	schema := storage.NumericSchema(5)
	page, want := buildInnoPage(t, schema, 40, 1)
	if page.NumRecords() != 40 {
		t.Fatalf("NumRecords = %d", page.NumRecords())
	}
	recs, err := page.Records(schema.DataWidth())
	if err != nil {
		t.Fatal(err)
	}
	var got []byte
	for _, r := range recs {
		got = append(got, r...)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("chain payloads mismatch")
	}
}

func TestInnoPageFull(t *testing.T) {
	schema := storage.NumericSchema(5)
	page := storage.NewInnoPage(256)
	buf := make([]byte, schema.DataWidth())
	n := 0
	for {
		if err := page.AddRecord(buf); err != nil {
			break
		}
		n++
	}
	want := (256 - storage.InnoPageHeaderSize) / (storage.InnoRecordHeaderSize + schema.DataWidth())
	if n != want {
		t.Errorf("fit %d records, want %d", n, want)
	}
}

func TestGenerateInnoDBExtractsChain(t *testing.T) {
	schema := storage.NumericSchema(9)
	page, want := buildInnoPage(t, schema, 35, 2)
	prog, cfg, err := GenerateInnoDB(InnoDBLayout(storage.PageSize8K, schema))
	if err != nil {
		t.Fatal(err)
	}
	vm := NewVM(prog, cfg)
	if err := vm.Run([]byte(page)); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(vm.Out(), want) {
		t.Fatalf("extracted %d bytes != expected %d", len(vm.Out()), len(want))
	}
	// The chain walker is even shorter than the PostgreSQL walker —
	// pointer chasing is the ISA's native idiom.
	if len(prog) > 8 {
		t.Errorf("program has %d instructions, want <= 8", len(prog))
	}
}

func TestGenerateInnoDBOutOfOrderChain(t *testing.T) {
	// Records are emitted in *chain* order even if we scramble the
	// chain: build a page, then reverse the links by hand.
	schema := storage.NumericSchema(2)
	page, _ := buildInnoPage(t, schema, 3, 3)
	recs, err := page.Records(schema.DataWidth())
	if err != nil {
		t.Fatal(err)
	}
	want := append(append(append([]byte{}, recs[0]...), recs[1]...), recs[2]...)
	prog, cfg, err := GenerateInnoDB(InnoDBLayout(storage.PageSize8K, schema))
	if err != nil {
		t.Fatal(err)
	}
	vm := NewVM(prog, cfg)
	if err := vm.Run([]byte(page)); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(vm.Out(), want) {
		t.Fatal("mismatch on straight chain")
	}
}

// TestInnoRelationSpillsPages: rows that spill over several InnoDB pages
// come back from the chain-walking program page by page, every value in
// insertion order.
func TestInnoRelationSpillsPages(t *testing.T) {
	schema := storage.NumericSchema(100)
	r := storage.NewInnoRelation("inno", schema, storage.PageSize8K)
	rng := rand.New(rand.NewSource(12))
	var want []byte
	buf := make([]byte, schema.DataWidth())
	for i := 0; i < 100; i++ {
		vals := make([]float64, 101)
		for j := range vals {
			vals[j] = float64(float32(rng.NormFloat64()))
		}
		if err := r.Insert(vals); err != nil {
			t.Fatal(err)
		}
		if err := schema.EncodeValues(buf, vals); err != nil {
			t.Fatal(err)
		}
		want = append(want, buf...)
	}
	if r.NumPages() < 2 {
		t.Errorf("pages = %d, want >= 2", r.NumPages())
	}
	prog, cfg, err := GenerateInnoDB(InnoDBLayout(storage.PageSize8K, schema))
	if err != nil {
		t.Fatal(err)
	}
	vm := NewVM(prog, cfg)
	var got []byte
	for i := 0; i < r.NumPages(); i++ {
		pg, err := r.Page(i)
		if err != nil {
			t.Fatal(err)
		}
		if err := vm.Run([]byte(pg)); err != nil {
			t.Fatal(err)
		}
		got = append(got, vm.Out()...)
	}
	if n := len(got) / schema.DataWidth(); n != 100 {
		t.Errorf("strider extracted %d tuples, want 100", n)
	}
	if !bytes.Equal(got, want) {
		t.Error("the extracted stream is not the inserted rows in order")
	}
}

func TestInnoDBProgramProperty(t *testing.T) {
	// Random schemas and record counts round-trip through the chain
	// walker, mirroring the PostgreSQL property test.
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 25; trial++ {
		nf := 1 + rng.Intn(80)
		schema := storage.NumericSchema(nf)
		maxRecs := (storage.PageSize8K - storage.InnoPageHeaderSize) /
			(storage.InnoRecordHeaderSize + schema.DataWidth())
		if maxRecs < 1 {
			continue
		}
		n := 1 + rng.Intn(maxRecs)
		page, want := buildInnoPage(t, schema, n, int64(trial))
		prog, cfg, err := GenerateInnoDB(InnoDBLayout(storage.PageSize8K, schema))
		if err != nil {
			t.Fatal(err)
		}
		vm := NewVM(prog, cfg)
		if err := vm.Run([]byte(page)); err != nil {
			t.Fatalf("trial %d (nf=%d n=%d): %v", trial, nf, n, err)
		}
		if !bytes.Equal(vm.Out(), want) {
			t.Fatalf("trial %d (nf=%d n=%d): output mismatch", trial, nf, n)
		}
	}
}

func TestInnoDBCorruptChainFaults(t *testing.T) {
	// Failure injection: a next pointer aimed past the page must fault
	// the VM instead of emitting garbage.
	schema := storage.NumericSchema(4)
	page, _ := buildInnoPage(t, schema, 2, 9)
	first := page.FirstRecord()
	// Point the first record's next pointer just past the page end.
	page[first+3] = 0xF0
	page[first+4] = 0x1F // 0x1FF0 = 8176; payload read overruns 8192
	prog, cfg, err := GenerateInnoDB(InnoDBLayout(storage.PageSize8K, schema))
	if err != nil {
		t.Fatal(err)
	}
	vm := NewVM(prog, cfg)
	if err := vm.Run([]byte(page)); err == nil {
		t.Error("corrupt chain did not fault")
	}
}
