package strider

// FuzzVerifierSoundness is the verifier's core soundness contract as a
// fuzz invariant: any program the verifier STRICT-accepts (no errors,
// no warnings — a full proof) must execute on a conforming page of the
// verified size without a single VM trap. The fuzzer decodes arbitrary
// byte strings into instruction words, so it explores programs no
// human or compiler would write; whenever one slips past the strict
// verifier, running it is the oracle.

import (
	"encoding/binary"
	"testing"
)

// fuzzWords reinterprets fuzz bytes as 22-bit instruction words.
func fuzzWords(data []byte) []uint32 {
	var words []uint32
	for i := 0; i+4 <= len(data) && len(words) < 64; i += 4 {
		words = append(words, binary.LittleEndian.Uint32(data[i:])&0x3FFFFF)
	}
	return words
}

func FuzzVerifierSoundness(f *testing.F) {
	const pageSize = 128

	// Seed with known strict-accepted programs (the proven loop from the
	// unit suite and simple straight-line walks) plus a known trap, so
	// the corpus starts on both sides of the accept boundary.
	seeds := []string{
		`
ad 8, 0, %t0
bentr
cln %t0, 0, 8
ad %t0, 8, %t0
bexit 1, %t0, 31
ins %t0, 4
`,
		`
cln 0, 0, 8
ins %t0, 4
`,
		`
mul 31, 31, %t0
mul %t0, %t0, %t0
cln %t0, 0, 8
`,
	}
	for _, src := range seeds {
		prog, err := Assemble(src)
		if err != nil {
			f.Fatal(err)
		}
		var raw []byte
		for _, w := range EncodeProgram(prog) {
			raw = binary.LittleEndian.AppendUint32(raw, w)
		}
		f.Add(raw)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		prog, err := DecodeProgram(fuzzWords(data))
		if err != nil || len(prog) == 0 {
			return // not a decodable program; nothing to verify
		}
		rep := Verify(prog, Config{}, VerifyOptions{PageSize: pageSize})
		if !rep.OK(true) {
			return // rejected or unproven: the VM's dynamic guards own it
		}
		vm := NewVM(prog, Config{})
		if err := vm.Run(make([]byte, pageSize)); err != nil {
			t.Fatalf("strict-verified program trapped on a conforming page: %v\n%s",
				err, Disassemble(prog))
		}
	})
}
