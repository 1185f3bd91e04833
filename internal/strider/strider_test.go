package strider

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"dana/internal/storage"
)

func TestInstrEncodeDecodeProperty(t *testing.T) {
	f := func(op, a, b, c uint8) bool {
		in := Instr{Op: Opcode(op % 11), A: Operand(a & 0x3F), B: Operand(b & 0x3F), C: Operand(c & 0x3F)}
		w := in.Encode()
		if w>>InstrBits != 0 {
			return false
		}
		got, err := Decode(w)
		return err == nil && got == in
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDecodeRejectsBadWords(t *testing.T) {
	if _, err := Decode(1 << 22); err == nil {
		t.Error("over-wide word accepted")
	}
	bad := Instr{Op: 15}.Encode()
	if _, err := Decode(bad); err == nil {
		t.Error("invalid opcode accepted")
	}
}

func TestOperandConstructors(t *testing.T) {
	if _, err := Imm(32); err == nil {
		t.Error("Imm(32) should fail")
	}
	if _, err := TReg(16); err == nil {
		t.Error("TReg(16) should fail")
	}
	if _, err := CReg(-1); err == nil {
		t.Error("CReg(-1) should fail")
	}
	o, _ := CReg(3)
	if o.String() != "%cr3" || !o.IsReg() || o.IsImm() {
		t.Errorf("CReg(3) = %v", o)
	}
	i, _ := Imm(7)
	if i.String() != "7" || !i.IsImm() {
		t.Errorf("Imm(7) = %v", i)
	}
}

func TestAssembleDisassembleRoundTrip(t *testing.T) {
	src := `
\\ header
readB 12, 2, %cr0
readB 14, 2, %cr1
ad 24, 0, %t0
bentr
readB %t0, 4, %t1
extrBi %t1, 0, %t2
extrBi %t1, 1, %t3
sub %t3, 24, %t3
cln %t2, 24, %t3
ins %t3, 4
ad %t0, 4, %t0
bexit 1, %t0, %cr0
writeB %t1, 4, %t2
mul %t1, 2, %t1
extrB %t1, 1, %t5
`
	prog, err := Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(prog) != 15 {
		t.Fatalf("assembled %d instructions", len(prog))
	}
	// Round trip through text.
	prog2, err := Assemble(Disassemble(prog))
	if err != nil {
		t.Fatal(err)
	}
	for i := range prog {
		if prog[i] != prog2[i] {
			t.Errorf("instr %d: %v != %v", i, prog[i], prog2[i])
		}
	}
	// Round trip through binary.
	prog3, err := DecodeProgram(EncodeProgram(prog))
	if err != nil {
		t.Fatal(err)
	}
	for i := range prog {
		if prog[i] != prog3[i] {
			t.Errorf("binary instr %d: %v != %v", i, prog[i], prog3[i])
		}
	}
}

func TestAssembleErrors(t *testing.T) {
	cases := []string{
		"frobnicate 1, 2, 3",
		"readB 1, 2",       // arity
		"readB 99, 2, %t0", // immediate range
		"readB 1, 2, %t99", // register range
		"readB 1, 2, %zz0", // bad operand
		"bentr 1",          // arity
	}
	for _, src := range cases {
		if _, err := Assemble(src); err == nil {
			t.Errorf("Assemble(%q) should fail", src)
		}
	}
}

func TestVMArithmeticAndExtract(t *testing.T) {
	src := `
ad 5, 7, %t0
mul %t0, 3, %t1
sub %t1, 6, %t2
extrB %t1, 0, %t3
`
	prog, err := Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	vm := NewVM(prog, Config{})
	if err := vm.Run(make([]byte, 64)); err != nil {
		t.Fatal(err)
	}
	if vm.t[0] != 12 || vm.t[1] != 36 || vm.t[2] != 30 || vm.t[3] != 36 {
		t.Errorf("regs = %v", vm.t[:4])
	}
}

func TestVMReadWritePage(t *testing.T) {
	src := `
readB 0, 4, %t0
ad %t0, 1, %t0
writeB %t0, 4, 8
`
	prog, err := Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	page := make([]byte, 16)
	page[0] = 0xFF
	page[1] = 0x01
	vm := NewVM(prog, Config{})
	if err := vm.Run(page); err != nil {
		t.Fatal(err)
	}
	if got := uint32(page[8]) | uint32(page[9])<<8; got != 0x0200 {
		t.Errorf("written value = %#x", got)
	}
}

func TestVMInsertEmits(t *testing.T) {
	prog, err := Assemble("ins 5, 2\nins %cr0, 4")
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{}
	cfg.CR[0] = 0xDDCCBBAA
	vm := NewVM(prog, cfg)
	if err := vm.Run(nil); err != nil {
		t.Fatal(err)
	}
	want := []byte{5, 0, 0xAA, 0xBB, 0xCC, 0xDD}
	if !bytes.Equal(vm.Out(), want) {
		t.Errorf("out = %x, want %x", vm.Out(), want)
	}
}

func TestVMFaults(t *testing.T) {
	cases := []struct{ name, src string }{
		{"read oob", "readB 30, 8, %t0"},
		{"read too wide", "ad 9, 0, %t1\nreadB 0, %t1, %t0"},
		{"write oob", "writeB %t0, 4, 30"},
		{"imm dest", "ad 1, 2, 3"},
		{"bexit no loop", "bexit 1, %t0, %t1"},
		{"cln oob", "ad 31, 31, %t0\ncln %t0, 0, %t0"},
		{"extrB off", "extrB %t0, 9, %t1"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			prog, err := Assemble(c.src)
			if err != nil {
				t.Fatal(err)
			}
			vm := NewVM(prog, Config{})
			if err := vm.Run(make([]byte, 32)); err == nil {
				t.Errorf("Run(%q) should fault", c.src)
			}
		})
	}
}

func TestVMRunawayLoopBounded(t *testing.T) {
	// A loop whose exit condition never holds must hit the step budget.
	prog, err := Assemble("bentr\nad %t0, 0, %t0\nbexit 2, %t0, %t0") // t0 > t0 never
	if err != nil {
		t.Fatal(err)
	}
	vm := NewVM(prog, Config{})
	vm.MaxSteps = 10000
	err = vm.Run(make([]byte, 8))
	if err == nil || !strings.Contains(err.Error(), "step budget") {
		t.Errorf("err = %v, want runaway", err)
	}
}

func TestVMLoopCountdown(t *testing.T) {
	// Sum 1..5 via a loop: t0 counter, t1 accumulator.
	src := `
ad 5, 0, %t0
bentr
ad %t1, %t0, %t1
sub %t0, 1, %t0
bexit 0, %t0, 0
`
	prog, err := Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	vm := NewVM(prog, Config{})
	if err := vm.Run(nil); err != nil {
		t.Fatal(err)
	}
	if vm.t[1] != 15 {
		t.Errorf("sum = %d, want 15", vm.t[1])
	}
}

func TestFieldDescExtract(t *testing.T) {
	fd := FieldDesc{Start: 17, Width: 15}
	v := uint64(1234)<<17 | 0x1FFFF
	if got := fd.Extract(v); got != 1234 {
		t.Errorf("Extract = %d", got)
	}
	if (FieldDesc{Width: 0}).Extract(5) != 0 {
		t.Error("zero-width field should extract 0")
	}
}

// buildPage creates a heap page with n tuples of the schema, returning
// the page and the concatenated expected payload bytes.
func buildPage(t *testing.T, schema *storage.Schema, n int, seed int64) (storage.Page, []byte) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	page := storage.NewPage(storage.PageSize8K, 0)
	var want []byte
	for i := 0; i < n; i++ {
		vals := make([]float64, schema.NumCols())
		for j := range vals {
			vals[j] = float64(float32(rng.NormFloat64()))
		}
		raw, err := storage.EncodeTuple(schema, vals, 1, storage.TID{Item: uint16(i)})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := page.AddItem(raw); err != nil {
			t.Fatal(err)
		}
		want = append(want, raw[storage.TupleHeaderSize:]...)
	}
	return page, want
}

func TestGeneratedProgramExtractsTuples(t *testing.T) {
	schema := storage.NumericSchema(9)
	page, want := buildPage(t, schema, 25, 11)
	prog, cfg, err := Generate(PostgresLayout(storage.PageSize8K))
	if err != nil {
		t.Fatal(err)
	}
	vm := NewVM(prog, cfg)
	if err := vm.Run(page); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(vm.Out(), want) {
		t.Fatalf("extracted %d bytes != expected %d bytes", len(vm.Out()), len(want))
	}
	if got := ExpectedOutputBytes(schema, 25); got != len(want) {
		t.Errorf("ExpectedOutputBytes = %d, want %d", got, len(want))
	}
	if vm.Cycles() <= 0 {
		t.Error("no cycles counted")
	}
}

func TestGeneratedProgramFullPageProperty(t *testing.T) {
	// For random schemas and page fill levels, strider output must equal
	// the schema-packed payloads exactly.
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 30; trial++ {
		nf := 1 + rng.Intn(60)
		schema := storage.NumericSchema(nf)
		maxTup := (storage.PageSize8K - storage.PageHeaderSize) /
			(storage.TupleHeaderSize + schema.DataWidth() + storage.ItemIDSize)
		if maxTup < 1 {
			continue
		}
		n := 1 + rng.Intn(maxTup)
		page, want := buildPage(t, schema, n, int64(trial))
		prog, cfg, err := Generate(PostgresLayout(storage.PageSize8K))
		if err != nil {
			t.Fatal(err)
		}
		vm := NewVM(prog, cfg)
		if err := vm.Run(page); err != nil {
			t.Fatalf("trial %d (nf=%d n=%d): %v", trial, nf, n, err)
		}
		if !bytes.Equal(vm.Out(), want) {
			t.Fatalf("trial %d (nf=%d n=%d): output mismatch", trial, nf, n)
		}
		if steps, cycles, emitted := WalkCost(n, schema.DataWidth()); steps != vm.Steps() || cycles != vm.Cycles() || emitted != int64(len(want)) {
			t.Fatalf("trial %d (nf=%d n=%d): WalkCost %d/%d/%d, VM retired %d steps, %d cycles, %d bytes",
				trial, nf, n, steps, cycles, emitted, vm.Steps(), vm.Cycles(), len(want))
		}
	}
}

func TestGeneratedProgramMatchesPaperShape(t *testing.T) {
	// The paper's example program is ~14 instructions; ours should be in
	// the same ballpark, demonstrating the compact instruction footprint
	// branches give (§5.1.2).
	prog, _, err := Generate(PostgresLayout(storage.PageSize32K))
	if err != nil {
		t.Fatal(err)
	}
	if len(prog) > 16 {
		t.Errorf("generated %d instructions, want <= 16", len(prog))
	}
	// It must contain exactly one loop.
	entries, exits := 0, 0
	for _, in := range prog {
		switch in.Op {
		case OpBentr:
			entries++
		case OpBexit:
			exits++
		}
	}
	if entries != 1 || exits != 1 {
		t.Errorf("loop structure: %d bentr, %d bexit", entries, exits)
	}
}

func TestVMReuseAcrossPages(t *testing.T) {
	schema := storage.NumericSchema(3)
	prog, cfg, err := Generate(PostgresLayout(storage.PageSize8K))
	if err != nil {
		t.Fatal(err)
	}
	vm := NewVM(prog, cfg)
	for i := 0; i < 3; i++ {
		page, want := buildPage(t, schema, 10+i, int64(100+i))
		if err := vm.Run(page); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(vm.Out(), want) {
			t.Fatalf("page %d: mismatch", i)
		}
	}
}

// TestVMEncodedRoundTripExecution executes a program after a full
// binary encode/decode round trip and checks identical behaviour.
func TestVMEncodedRoundTripExecution(t *testing.T) {
	schema := storage.NumericSchema(7)
	page, want := buildPage(t, schema, 20, 77)
	prog, cfg, err := Generate(PostgresLayout(storage.PageSize8K))
	if err != nil {
		t.Fatal(err)
	}
	decoded, err := DecodeProgram(EncodeProgram(prog))
	if err != nil {
		t.Fatal(err)
	}
	vm := NewVM(decoded, cfg)
	if err := vm.Run(page); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(vm.Out(), want) {
		t.Fatal("decoded program produced different output")
	}
}

// TestGeneratedProgramDeadTuplesNeedVacuum documents the generated
// walker's contract: it assumes all line pointers live (training heaps
// are append-only snapshots). Deleted tuples corrupt extraction until
// VACUUM restores the invariant.
func TestGeneratedProgramDeadTuplesNeedVacuum(t *testing.T) {
	schema := storage.NumericSchema(3)
	rel := storage.NewRelation("dead", schema, storage.PageSize8K)
	var want int
	for i := 0; i < 50; i++ {
		if _, err := rel.Insert([]float64{1, 2, 3, 4}); err != nil {
			t.Fatal(err)
		}
	}
	if err := rel.Delete(storage.TID{Page: 0, Item: 10}); err != nil {
		t.Fatal(err)
	}
	want = rel.NumTuples()
	prog, cfg, err := Generate(PostgresLayout(storage.PageSize8K))
	if err != nil {
		t.Fatal(err)
	}
	vm := NewVM(prog, cfg)
	pg, _ := rel.Page(0)
	if err := vm.Run(pg); err == nil {
		// The walker either faults or emits the wrong tuple count on a
		// heap with dead line pointers.
		if len(vm.Out()) == want*schema.DataWidth() {
			t.Fatal("dead tuple went unnoticed")
		}
	}
	// VACUUM restores the contract.
	if err := rel.Vacuum(); err != nil {
		t.Fatal(err)
	}
	pg, _ = rel.Page(0)
	if err := vm.Run(pg); err != nil {
		t.Fatal(err)
	}
	if len(vm.Out()) != want*schema.DataWidth() {
		t.Fatalf("post-vacuum extraction: %d bytes, want %d", len(vm.Out()), want*schema.DataWidth())
	}
}
