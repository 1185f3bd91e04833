package strider

import (
	"errors"
	"strings"
	"testing"

	"dana/internal/fault"
	"dana/internal/storage"
)

func mustAssemble(t *testing.T, src string) []Instr {
	t.Helper()
	prog, err := Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

func verifySrc(t *testing.T, src string, cfg Config, pageSize int) *Report {
	t.Helper()
	return Verify(mustAssemble(t, src), cfg, VerifyOptions{PageSize: pageSize})
}

func TestVerifyGeneratedPostgresProvesTermination(t *testing.T) {
	prog, cfg, err := Generate(PostgresLayout(storage.PageSize8K))
	if err != nil {
		t.Fatal(err)
	}
	r := Verify(prog, cfg, VerifyOptions{PageSize: storage.PageSize8K})
	if errs := r.Errors(); len(errs) != 0 {
		t.Fatalf("generated walker has definite traps: %v", errs)
	}
	if !r.TerminationProved {
		t.Error("line-pointer walk has a monotone induction register; termination should be proved")
	}
	if !r.OK(false) {
		t.Error("generated program must be admissible in non-strict mode")
	}
}

func TestVerifyGeneratedInnoDBWarnsOnTermination(t *testing.T) {
	s := storage.NumericSchema(9)
	prog, cfg, err := GenerateInnoDB(InnoDBLayout(storage.PageSize8K, s))
	if err != nil {
		t.Fatal(err)
	}
	r := Verify(prog, cfg, VerifyOptions{PageSize: storage.PageSize8K})
	if errs := r.Errors(); len(errs) != 0 {
		t.Fatalf("generated walker has definite traps: %v", errs)
	}
	if r.TerminationProved {
		t.Error("a pointer chase terminated by next==0 has no induction argument; proof should fail")
	}
	found := false
	for _, d := range warnings(r) {
		if strings.Contains(d.Msg, "cannot prove loop") {
			found = true
		}
	}
	if !found {
		t.Errorf("want a termination warning, got %v", r.Diags)
	}
}

// The historical gap this verifier closes: Assemble happily accepted a
// program whose cln address is a compile-time constant far beyond any
// page, and the bug only surfaced as a VM trap at dispatch time.
func TestVerifyRejectsOutOfBoundsCln(t *testing.T) {
	src := `
mul 31, 31, %t0     \\ t0 = 961
mul %t0, %t0, %t0   \\ t0 = 923521, beyond any page
cln %t0, 0, 8
`
	prog := mustAssemble(t, src) // the assembler alone still accepts it
	r := Verify(prog, Config{}, VerifyOptions{PageSize: storage.PageSize8K})
	errs := r.Errors()
	if len(errs) != 1 || errs[0].PC != 2 {
		t.Fatalf("want exactly one definite trap at pc=2, got %v", r.Diags)
	}
	if !strings.Contains(errs[0].Msg, "on every execution") {
		t.Errorf("error should state the trap is unconditional: %s", errs[0].Msg)
	}
	if err := r.Err(false); !errors.Is(err, fault.ErrVerifyReject) {
		t.Errorf("Err must wrap fault.ErrVerifyReject, got %v", err)
	}
}

func TestVerifyErrVersusWarningSeverity(t *testing.T) {
	// readB into %t0 is bounded only by the page content: a cln at that
	// address is unprovable (warning), not a definite trap (error).
	r := verifySrc(t, "readB 0, 2, %t0\ncln %t0, 0, 4\n", Config{}, 128)
	if len(r.Errors()) != 0 {
		t.Fatalf("content-dependent access must not be a definite trap: %v", r.Diags)
	}
	if len(warnings(r)) == 0 {
		t.Fatal("content-dependent access beyond the page must warn")
	}
	if r.OK(false) != true || r.OK(true) != false {
		t.Error("warnings must pass non-strict and fail strict")
	}
}

func TestVerifyInitBeforeUse(t *testing.T) {
	r := verifySrc(t, "ad %t5, 1, %t1\n", Config{}, 128)
	var hit bool
	for _, d := range warnings(r) {
		if strings.Contains(d.Msg, "read before") && strings.Contains(d.Msg, "%t5") {
			hit = true
		}
	}
	if !hit {
		t.Errorf("reading never-written %%t5 should warn, got %v", r.Diags)
	}
	// After a write the same read is clean.
	r = verifySrc(t, "ad 1, 2, %t5\nad %t5, 1, %t1\n", Config{}, 128)
	if len(r.Diags) != 0 {
		t.Errorf("initialized read should be clean, got %v", r.Diags)
	}
}

func TestVerifyLoopWellFormedness(t *testing.T) {
	r := verifySrc(t, "bexit 0, %t0, 0\n", Config{}, 128)
	if len(r.Errors()) != 1 || !strings.Contains(r.Errors()[0].Msg, "without a matching bentr") {
		t.Errorf("dangling bexit is a definite trap, got %v", r.Diags)
	}
	r = verifySrc(t, "bentr\nad %t0, 1, %t0\n", Config{}, 128)
	if len(warnings(r)) == 0 {
		t.Errorf("dangling bentr should warn, got %v", r.Diags)
	}
}

func TestVerifyImmediateDestinationTraps(t *testing.T) {
	r := verifySrc(t, "ad 1, 2, 3\n", Config{}, 128)
	if len(r.Errors()) != 1 || !strings.Contains(r.Errors()[0].Msg, "immediate") {
		t.Errorf("immediate destination is a definite trap, got %v", r.Diags)
	}
}

func TestVerifyBadBexitCondition(t *testing.T) {
	// Condition operand is the raw 6-bit field: a register encoding
	// (%t0 = 32) is an invalid condition code and traps the VM.
	prog := []Instr{
		{Op: OpBentr},
		{Op: OpAdd, A: mustT(0), B: Operand(1), C: mustT(0)},
		{Op: OpBexit, A: mustT(0), B: mustT(0), C: Operand(5)},
	}
	r := Verify(prog, Config{}, VerifyOptions{PageSize: 128})
	if len(r.Errors()) != 1 || !strings.Contains(r.Errors()[0].Msg, "condition") {
		t.Errorf("non-condition-code bexit operand is a definite trap, got %v", r.Diags)
	}
}

func mustT(i int) Operand {
	o, err := TReg(i)
	if err != nil {
		panic(err)
	}
	return o
}

func TestVerifyTerminationNeedsMonotoneIncrement(t *testing.T) {
	cases := []struct {
		name, src string
		proved    bool
	}{
		{"increasing-ad", `
ad 0, 0, %t0
bentr
ad %t0, 4, %t0
bexit 1, %t0, 31
`, true},
		{"sub-update", `
ad 20, 0, %t0
bentr
sub %t0, 1, %t0
bexit 1, %t0, 31
`, false},
		{"zero-step", `
ad 0, 0, %t0
bentr
ad %t0, 0, %t0
bexit 1, %t0, 31
`, false},
		{"bound-written-in-body", `
ad 0, 0, %t0
ad 31, 0, %t1
bentr
ad %t0, 1, %t0
ad %t1, 1, %t1
bexit 1, %t0, %t1
`, false},
		{"never-advanced", `
ad 0, 0, %t0
bentr
ad %t1, 1, %t1
bexit 1, %t0, 31
`, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := verifySrc(t, tc.src, Config{}, 128)
			if r.TerminationProved != tc.proved {
				t.Errorf("TerminationProved = %v, want %v (diags: %v)", r.TerminationProved, tc.proved, r.Diags)
			}
		})
	}
}

func TestVerifyOutputBound(t *testing.T) {
	// Straight-line: one ins of 4 bytes.
	r := verifySrc(t, "ins 7, 4\n", Config{}, 128)
	if r.OutputBound != 4 {
		t.Errorf("OutputBound = %d, want 4", r.OutputBound)
	}
	// Proved loop with constant trip count and per-iteration emission:
	// 8 iterations (t0: 0,4,...,28 then exit at 32... do-while bound).
	r = verifySrc(t, `
ad 0, 0, %t0
bentr
ins 7, 2
ad %t0, 4, %t0
bexit 1, %t0, 31
`, Config{}, 128)
	if r.OutputBound == OutputUnbounded || r.OutputBound < 16 {
		t.Errorf("looped OutputBound = %d, want a finite bound covering 8 iterations", r.OutputBound)
	}
	// Unproved loop: bound unknown.
	r = verifySrc(t, `
bentr
ins 7, 2
readB 0, 2, %t0
bexit 0, %t0, 0
`, Config{}, 128)
	if r.OutputBound != OutputUnbounded {
		t.Errorf("unproved loop must give OutputUnbounded, got %d", r.OutputBound)
	}
}

// Strict acceptance is the fuzz invariant: a program with zero
// diagnostics can never trap the VM on a page of the verified size.
func TestVerifyStrictAcceptedProgramRunsClean(t *testing.T) {
	clean := `
ad 8, 0, %t0
bentr
cln %t0, 0, 8
ad %t0, 8, %t0
bexit 1, %t0, 31
ins %t0, 4
`
	prog := mustAssemble(t, clean)
	r := Verify(prog, Config{}, VerifyOptions{PageSize: 128})
	if !r.OK(true) {
		t.Fatalf("expected strict acceptance, got %v", r.Diags)
	}
	vm := NewVM(prog, Config{})
	if err := vm.Run(make([]byte, 128)); err != nil {
		t.Fatalf("strict-accepted program trapped: %v", err)
	}
}

func TestVerifyRequiresPageSize(t *testing.T) {
	r := Verify(nil, Config{}, VerifyOptions{})
	if len(r.Errors()) == 0 {
		t.Error("zero page size must be rejected")
	}
}

// Nested loops: the outer proof must survive an inner loop that writes
// unrelated registers, and fail if the inner loop writes the induction
// register through a non-increment.
func TestVerifyNestedLoops(t *testing.T) {
	r := verifySrc(t, `
ad 0, 0, %t0
bentr
ad 0, 0, %t1
bentr
ad %t1, 1, %t1
bexit 1, %t1, 4
ad %t0, 1, %t0
bexit 1, %t0, 8
`, Config{}, 128)
	if !r.TerminationProved {
		t.Errorf("both loops have induction registers, got %v", r.Diags)
	}
}

// warnings returns only the report's unproven-property diagnostics.
func warnings(r *Report) []Diag {
	var out []Diag
	for _, d := range r.Diags {
		if d.Sev == SevWarning {
			out = append(out, d)
		}
	}
	return out
}
