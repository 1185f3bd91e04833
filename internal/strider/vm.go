package strider

import (
	"fmt"

	"dana/internal/fault"
)

// VM executes a Strider program against one page buffer, emitting
// cleaned tuple bytes to an output buffer. It also counts cycles: one
// cycle per instruction plus one cycle per 8 bytes moved by cln/ins,
// modeling the Strider's sequential byte path.
type VM struct {
	Prog   []Instr
	Config Config

	// MaxSteps bounds execution to catch runaway loops (0 = default).
	MaxSteps int

	t       [NumTempRegs]uint64
	cr      [NumConfigRegs]uint64
	page    []byte
	out     []byte
	reserve int   // Reserve hint, applied at next Run
	loops   []int // bentr return stack, reused across Runs
	cycles  int64
	steps   int64 // instructions retired
}

// Default step bound: generous for a 32 KB page walk.
const defaultMaxSteps = 1 << 20

// ErrRunaway is returned when execution exceeds MaxSteps. It wraps
// fault.ErrVMTrap: a runaway walk is a Strider trap, so the executor's
// retry/quarantine recovery applies to it.
var ErrRunaway = fmt.Errorf("strider: step budget exhausted (runaway loop?): %w", fault.ErrVMTrap)

// NewVM builds a VM for the program and configuration.
func NewVM(prog []Instr, cfg Config) *VM {
	return &VM{Prog: prog, Config: cfg}
}

// Out returns the emitted output bytes of the last Run.
func (vm *VM) Out() []byte { return vm.out }

// Reserve records an output-buffer capacity hint honored by the next
// Run: a page walk emits at most the page's own payload bytes, so
// reserving the page size removes the append-doubling churn from the
// first walks of every fresh VM (one VM set is built per Train call).
// The buffer is allocated lazily on first use — a VM that never runs
// (e.g. every epoch replays the record cache) costs nothing.
func (vm *VM) Reserve(outBytes int) { vm.reserve = outBytes }

// Cycles returns the cycle count of the last Run.
func (vm *VM) Cycles() int64 { return vm.cycles }

// Steps returns how many instructions the last Run retired (cycles
// minus the extra byte-move cycles of cln/ins).
func (vm *VM) Steps() int64 { return vm.steps }

// Run executes the program over the page, appending emitted bytes to an
// internal buffer (retrievable via Out).
func (vm *VM) Run(page []byte) error {
	vm.page = page
	if cap(vm.out) < vm.reserve {
		vm.out = make([]byte, 0, vm.reserve)
	}
	vm.out = vm.out[:0]
	vm.cycles = 0
	vm.steps = 0
	vm.t = [NumTempRegs]uint64{}
	vm.cr = vm.Config.CR

	maxSteps := vm.MaxSteps
	if maxSteps <= 0 {
		maxSteps = defaultMaxSteps
	}
	loopStack := vm.loops[:0]
	pc := 0
	for steps := 0; pc < len(vm.Prog); steps++ {
		if steps >= maxSteps {
			return fmt.Errorf("%w at pc=%d", ErrRunaway, pc)
		}
		in := vm.Prog[pc]
		vm.cycles++
		vm.steps++
		switch in.Op {
		case OpReadB:
			addr, n := vm.val(in.A), vm.val(in.B)
			if n > 8 {
				return vm.fault(pc, "readB length %d > 8", n)
			}
			v, err := vm.load(pc, addr, n)
			if err != nil {
				return err
			}
			if err := vm.store(pc, in.C, v); err != nil {
				return err
			}
		case OpExtrB:
			src, off := vm.val(in.A), vm.val(in.B)
			if off > 7 {
				return vm.fault(pc, "extrB byte offset %d > 7", off)
			}
			if err := vm.store(pc, in.C, src>>(8*off)&0xFF); err != nil {
				return err
			}
		case OpWriteB:
			src, n, addr := vm.val(in.A), vm.val(in.B), vm.val(in.C)
			if n > 8 {
				return vm.fault(pc, "writeB length %d > 8", n)
			}
			if addr > uint64(len(vm.page)) || n > uint64(len(vm.page))-addr {
				return vm.fault(pc, "writeB %d bytes at %d beyond page of %d bytes", n, addr, len(vm.page))
			}
			for i := uint64(0); i < n; i++ {
				vm.page[addr+i] = byte(src >> (8 * i))
			}
		case OpExtrBi:
			src := vm.val(in.A)
			fdIdx := vm.val(in.B)
			if fdIdx >= NumConfigRegs {
				return vm.fault(pc, "extrBi field index %d out of range", fdIdx)
			}
			fd := vm.Config.Fields[fdIdx]
			if err := vm.store(pc, in.C, fd.Extract(src)); err != nil {
				return err
			}
		case OpClean:
			addr, skip, n := vm.val(in.A), vm.val(in.B), vm.val(in.C)
			// Bound each term before summing: register values are untrusted
			// uint64s, and addr+skip+n can wrap around zero.
			plen := uint64(len(vm.page))
			if addr > plen || skip > plen-addr || n > plen-addr-skip {
				return vm.fault(pc, "cln %d bytes at %d+%d beyond page of %d bytes", n, addr, skip, len(vm.page))
			}
			start := addr + skip
			vm.out = append(vm.out, vm.page[start:start+n]...)
			vm.cycles += int64(n+7) / 8
		case OpInsert:
			v, n := vm.val(in.A), vm.val(in.B)
			if n > 8 {
				return vm.fault(pc, "ins length %d > 8", n)
			}
			for i := uint64(0); i < n; i++ {
				vm.out = append(vm.out, byte(v>>(8*i)))
			}
			vm.cycles++
		case OpAdd:
			if err := vm.store(pc, in.C, vm.val(in.A)+vm.val(in.B)); err != nil {
				return err
			}
		case OpSub:
			if err := vm.store(pc, in.C, vm.val(in.A)-vm.val(in.B)); err != nil {
				return err
			}
		case OpMul:
			if err := vm.store(pc, in.C, vm.val(in.A)*vm.val(in.B)); err != nil {
				return err
			}
		case OpBentr:
			loopStack = append(loopStack, pc)
		case OpBexit:
			if len(loopStack) == 0 {
				return vm.fault(pc, "bexit without bentr")
			}
			cond := int(in.A)
			a, b := vm.val(in.B), vm.val(in.C)
			exit := false
			switch cond {
			case CondEQ:
				exit = a == b
			case CondGE:
				exit = a >= b
			case CondGT:
				exit = a > b
			case CondNE:
				exit = a != b
			default:
				return vm.fault(pc, "bexit condition %d invalid", cond)
			}
			if exit {
				loopStack = loopStack[:len(loopStack)-1]
			} else {
				pc = loopStack[len(loopStack)-1]
			}
		default:
			return vm.fault(pc, "invalid opcode %d", in.Op)
		}
		pc++
	}
	vm.loops = loopStack
	return nil
}

// val resolves an operand to its value.
func (vm *VM) val(o Operand) uint64 {
	switch {
	case o <= operandImmMax:
		return uint64(o)
	case o < operandCRBase:
		return vm.t[o-operandTBase]
	default:
		return vm.cr[o-operandCRBase]
	}
}

// store writes v to a register operand.
func (vm *VM) store(pc int, o Operand, v uint64) error {
	switch {
	case o <= operandImmMax:
		return vm.fault(pc, "destination operand %s is an immediate", o)
	case o < operandCRBase:
		vm.t[o-operandTBase] = v
	default:
		vm.cr[o-operandCRBase] = v
	}
	return nil
}

// load reads an n-byte little-endian value from the page.
func (vm *VM) load(pc int, addr, n uint64) (uint64, error) {
	if addr > uint64(len(vm.page)) || n > uint64(len(vm.page))-addr {
		return 0, vm.fault(pc, "readB %d bytes at %d beyond page of %d bytes", n, addr, len(vm.page))
	}
	var v uint64
	for i := uint64(0); i < n; i++ {
		v |= uint64(vm.page[addr+i]) << (8 * i)
	}
	return v, nil
}

// fault builds a VM trap error. Every trap wraps fault.ErrVMTrap so
// callers across package boundaries can discriminate with errors.Is.
func (vm *VM) fault(pc int, format string, args ...interface{}) error {
	return fmt.Errorf("strider: pc=%d %s: %s: %w", pc, vm.Prog[pc], fmt.Sprintf(format, args...), fault.ErrVMTrap)
}
