// Command striderasm assembles, disassembles, and executes Strider ISA
// programs (paper §5.1.2, Table 2).
//
//	striderasm -asm prog.s                # assemble, print 22-bit words
//	striderasm -dis words.hex             # disassemble hex words
//	striderasm -gen -page 32768           # emit the page-walker program
//	striderasm -run prog.s -page 8192 -tuples 10 -features 4
//	striderasm -verify prog.s -page 8192  # static verification only
//
// Assembled programs (-asm, -run, -verify) are statically verified
// against the page size; diagnostics print as file:line:col with the
// verifier's severity, and definite traps (or, under -strict, any
// diagnostic) exit non-zero.
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"strconv"
	"strings"

	"dana/internal/storage"
	"dana/internal/strider"
)

func main() {
	var (
		asmFile    = flag.String("asm", "", "assemble a Strider assembly file")
		disFile    = flag.String("dis", "", "disassemble a file of hex instruction words")
		gen        = flag.Bool("gen", false, "generate the PostgreSQL page-walker program")
		runFile    = flag.String("run", "", "assemble and execute a program against a synthetic page")
		verifyFile = flag.String("verify", "", "statically verify a Strider assembly file")
		pageSize   = flag.Int("page", 8192, "page size in bytes")
		tuples     = flag.Int("tuples", 10, "tuples on the synthetic page (-run)")
		features   = flag.Int("features", 4, "feature columns on the synthetic page (-run)")
		strict     = flag.Bool("strict", false, "treat verifier warnings as rejections")
	)
	flag.Parse()

	switch {
	case *asmFile != "":
		src, err := os.ReadFile(*asmFile)
		check(err)
		prog := verifySource(*asmFile, string(src), nil, *pageSize, *strict)
		for _, w := range strider.EncodeProgram(prog) {
			fmt.Printf("%06x\n", w)
		}
	case *verifyFile != "":
		src, err := os.ReadFile(*verifyFile)
		check(err)
		prog := verifySource(*verifyFile, string(src), nil, *pageSize, *strict)
		fmt.Printf("%s: %d instructions verified for %d-byte pages\n", *verifyFile, len(prog), *pageSize)
	case *disFile != "":
		src, err := os.ReadFile(*disFile)
		check(err)
		var words []uint32
		for _, line := range strings.Fields(string(src)) {
			v, err := strconv.ParseUint(line, 16, 32)
			check(err)
			words = append(words, uint32(v))
		}
		prog, err := strider.DecodeProgram(words)
		check(err)
		fmt.Print(strider.Disassemble(prog))
	case *gen:
		prog, cfg, err := strider.Generate(strider.PostgresLayout(*pageSize))
		check(err)
		fmt.Print(strider.Disassemble(prog))
		fmt.Printf("\\\\ field table: off=%v len=%v flags=%v\n",
			cfg.Fields[0], cfg.Fields[1], cfg.Fields[2])
	case *runFile != "":
		src, err := os.ReadFile(*runFile)
		check(err)
		_, cfg, err := strider.Generate(strider.PostgresLayout(*pageSize))
		check(err)
		prog := verifySource(*runFile, string(src), &cfg, *pageSize, *strict)
		page := buildPage(*pageSize, *tuples, *features)
		vm := strider.NewVM(prog, cfg)
		check(vm.Run(page))
		fmt.Printf("emitted %d bytes in %d cycles\n", len(vm.Out()), vm.Cycles())
		for i := 0; i < len(vm.Out()) && i < 64; i += 16 {
			end := i + 16
			if end > len(vm.Out()) {
				end = len(vm.Out())
			}
			fmt.Printf("  %04x: % x\n", i, vm.Out()[i:end])
		}
	default:
		flag.Usage()
		os.Exit(2)
	}
}

func buildPage(pageSize, tuples, features int) storage.Page {
	schema := storage.NumericSchema(features)
	page := storage.NewPage(pageSize, 0)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < tuples; i++ {
		vals := make([]float64, features+1)
		for j := range vals {
			vals[j] = float64(float32(rng.NormFloat64()))
		}
		raw, err := storage.EncodeTuple(schema, vals, 1, storage.TID{Item: uint16(i)})
		check(err)
		if _, err := page.AddItem(raw); err != nil {
			break
		}
	}
	return page
}

// verifySource assembles src and runs the static verifier, printing
// every diagnostic as file:line:col. A nil cfg verifies the program for
// all possible configurations (the CLI usually has no config channel to
// inspect); a concrete cfg gives the stronger exact-value proof.
// Definite traps — or any diagnostic under strict — exit non-zero.
func verifySource(name, src string, cfg *strider.Config, pageSize int, strict bool) []strider.Instr {
	opts := strider.VerifyOptions{PageSize: pageSize}
	var conf strider.Config
	if cfg != nil {
		conf = *cfg
	} else {
		opts.UnknownConfig = true
	}
	prog, pos, rep, err := strider.AssembleVerified(src, conf, opts)
	check(err)
	for _, d := range rep.Diags {
		p := strider.Pos{Line: 1, Col: 1}
		if d.PC < len(pos) {
			p = pos[d.PC]
		}
		fmt.Fprintf(os.Stderr, "%s:%d:%d: %s: %s\n", name, p.Line, p.Col, d.Sev, d.Msg)
	}
	if !rep.OK(strict) {
		fmt.Fprintf(os.Stderr, "striderasm: %s: program rejected by verifier\n", name)
		os.Exit(1)
	}
	return prog
}

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "striderasm:", err)
		os.Exit(1)
	}
}
