package strider

import (
	"fmt"
	"math/bits"

	"dana/internal/fault"
)

// This file implements a static verifier for Strider programs: an
// abstract interpreter over the Table-2 ISA using an interval domain
// for register values. Dispatching a buggy walker to a Strider costs a
// trap, a retry, and eventually a quarantined worker (fault.go), so the
// runtime proves what it can *before* the program ever touches a page:
//
//   - register init-before-use (temp registers are zeroed by hardware,
//     but a read of a never-written register is almost always a
//     compiler bug),
//   - page accesses (readB/writeB/cln) stay inside a page of the
//     configured size,
//   - bentr/bexit loops are well formed and — where a monotone
//     induction register exists — provably terminating,
//   - the output FIFO emit volume is bounded when the loop trip count
//     is bounded.
//
// Diagnostics come in two severities. An Error means every concrete
// execution reaching that instruction traps (the abstract state is an
// over-approximation, so a violation by the interval's *minimum* is a
// violation by all values). A Warning means the verifier cannot prove
// safety: some value in the interval could trap, or a loop has no
// termination argument. Strict mode (Report.OK(true)) promotes
// warnings to rejections; a program accepted under strict can never
// trap the VM on a page of the configured size, which is the invariant
// the fuzz harness drives.

// Severity classifies a verifier diagnostic.
type Severity uint8

const (
	// SevWarning marks a property the verifier could not prove.
	SevWarning Severity = iota
	// SevError marks a definite trap: every execution reaching the
	// instruction faults.
	SevError
)

func (s Severity) String() string {
	if s == SevError {
		return "error"
	}
	return "warning"
}

// Diag is one verifier diagnostic, anchored to a program counter.
type Diag struct {
	PC  int
	Sev Severity
	Msg string
}

func (d Diag) String() string {
	return fmt.Sprintf("pc=%d: %s: %s", d.PC, d.Sev, d.Msg)
}

// VerifyOptions configures a verification run.
type VerifyOptions struct {
	// PageSize is the page buffer size the program will run against.
	// Required: page-bounds proofs are relative to it.
	PageSize int
	// UnknownConfig verifies the program for *every* possible
	// configuration: CR registers and the extrBi field table start
	// unconstrained instead of at cfg's exact values. Used by tooling
	// that sees assembly without its runtime configuration; proofs are
	// weaker but hold for any config load.
	UnknownConfig bool
}

// OutputUnbounded is Report.OutputBound's value when no finite bound on
// emitted bytes could be established.
const OutputUnbounded = ^uint64(0)

// Report is the outcome of verifying one program.
type Report struct {
	Diags []Diag
	// TerminationProved is true when every loop in the program has a
	// monotone induction argument.
	TerminationProved bool
	// OutputBound is the proven worst-case number of bytes the program
	// can emit to the output FIFO, or OutputUnbounded.
	OutputBound uint64
}

// Errors returns only the definite-trap diagnostics.
func (r *Report) Errors() []Diag {
	var out []Diag
	for _, d := range r.Diags {
		if d.Sev == SevError {
			out = append(out, d)
		}
	}
	return out
}

// OK reports whether the program is admissible: free of definite traps,
// and with strict set free of any diagnostic at all.
func (r *Report) OK(strict bool) bool {
	if strict {
		return len(r.Diags) == 0
	}
	return len(r.Errors()) == 0
}

// Err folds the report into a single error (nil when OK). The error
// wraps fault.ErrVerifyReject so runtime callers can discriminate a
// verifier rejection from a dynamic trap with errors.Is.
func (r *Report) Err(strict bool) error {
	if r.OK(strict) {
		return nil
	}
	rejecting := r.Errors()
	if strict && len(rejecting) == 0 {
		rejecting = r.Diags
	}
	return fmt.Errorf("strider: verifier rejected program (%d diagnostics, first: %s): %w",
		len(rejecting), rejecting[0], fault.ErrVerifyReject)
}

// Verify abstractly interprets prog against cfg and returns everything
// it could and could not prove. It never executes the program.
func Verify(prog []Instr, cfg Config, opts VerifyOptions) *Report {
	v := &verifier{
		prog:       prog,
		cfg:        cfg,
		pageSize:   uint64(opts.PageSize),
		unknownCfg: opts.UnknownConfig,
		report:     &Report{TerminationProved: true},
	}
	if opts.PageSize <= 0 {
		v.report.TerminationProved = false
		v.reportf(0, SevError, "verification requires a positive page size, got %d", opts.PageSize)
		return v.report
	}
	v.matchLoops()

	st := newAbsState(cfg, opts.UnknownConfig)
	v.report.OutputBound = v.runRange(0, len(prog), &st, true)
	return v.report
}

// ---------------------------------------------------------------------------
// Abstract domain: intervals over uint64 plus an initialized bit.

// interval is a closed interval [lo, hi] of uint64 values. It is convex:
// operations whose concrete result set could wrap around 2^64 widen to
// top rather than produce an unsound non-convex set.
type interval struct{ lo, hi uint64 }

func ivConst(v uint64) interval { return interval{v, v} }
func ivTop() interval           { return interval{0, ^uint64(0)} }

func (a interval) join(b interval) interval {
	if b.lo < a.lo {
		a.lo = b.lo
	}
	if b.hi > a.hi {
		a.hi = b.hi
	}
	return a
}

func (a interval) add(b interval) interval {
	lo, c1 := bits.Add64(a.lo, b.lo, 0)
	hi, c2 := bits.Add64(a.hi, b.hi, 0)
	if c1 != 0 || c2 != 0 {
		return ivTop()
	}
	return interval{lo, hi}
}

func (a interval) sub(b interval) interval {
	// Sound only when no value pair can wrap: min(a) must cover max(b).
	if a.lo < b.hi {
		return ivTop()
	}
	return interval{a.lo - b.hi, a.hi - b.lo}
}

func (a interval) mul(b interval) interval {
	if over, _ := bits.Mul64(a.hi, b.hi); over != 0 {
		return ivTop()
	}
	return interval{a.lo * b.lo, a.hi * b.hi}
}

// absReg is one register's abstract value.
type absReg struct {
	iv   interval
	init bool
}

// absState is the abstract machine state: every register's interval.
// The page itself is not modeled (readB results are bounded only by
// their byte width), which keeps the domain small and the fixpoint
// fast while still proving the accesses the generated walkers make.
type absState struct {
	t  [NumTempRegs]absReg
	cr [NumConfigRegs]absReg
}

func newAbsState(cfg Config, unknownCfg bool) absState {
	var st absState
	for i := range st.t {
		// Hardware zeroes temp registers; the value is sound, the
		// init bit drives the read-before-write warning.
		st.t[i] = absReg{iv: ivConst(0)}
	}
	for i := range st.cr {
		// Configuration registers are loaded through the config
		// channel before execution: exact and initialized — unless the
		// caller asked for a config-independent proof.
		iv := ivConst(cfg.CR[i])
		if unknownCfg {
			iv = ivTop()
		}
		st.cr[i] = absReg{iv: iv, init: true}
	}
	return st
}

func (st *absState) join(o *absState) (changed bool) {
	for i := range st.t {
		changed = joinReg(&st.t[i], o.t[i]) || changed
	}
	for i := range st.cr {
		changed = joinReg(&st.cr[i], o.cr[i]) || changed
	}
	return changed
}

func joinReg(a *absReg, b absReg) bool {
	j := a.iv.join(b.iv)
	init := a.init && b.init
	changed := j != a.iv || init != a.init
	a.iv, a.init = j, init
	return changed
}

// widen pushes every register that changed between prev and st to top,
// guaranteeing the loop fixpoint converges in a bounded number of
// passes regardless of the increment pattern.
func (st *absState) widen(prev *absState) {
	for i := range st.t {
		if st.t[i].iv != prev.t[i].iv {
			st.t[i].iv = ivTop()
		}
	}
	for i := range st.cr {
		if st.cr[i].iv != prev.cr[i].iv {
			st.cr[i].iv = ivTop()
		}
	}
}

// ---------------------------------------------------------------------------
// The interpreter.

type verifier struct {
	prog       []Instr
	cfg        Config
	pageSize   uint64
	unknownCfg bool
	report     *Report

	// loopExit maps a bentr PC to its matching bexit PC. Unmatched
	// bexits are diagnosed in matchLoops and skipped by the
	// interpreter (the VM traps on them; the trap is the diagnosis).
	loopExit map[int]int
}

func (v *verifier) reportf(pc int, sev Severity, format string, args ...interface{}) {
	if pc < 0 {
		pc = 0
	}
	v.report.Diags = append(v.report.Diags, Diag{PC: pc, Sev: sev, Msg: fmt.Sprintf(format, args...)})
}

// matchLoops pairs bentr/bexit like parentheses, mirroring the VM's
// dynamic loop stack, and diagnoses the statically malformed cases.
func (v *verifier) matchLoops() {
	v.loopExit = make(map[int]int)
	var stack []int
	for pc, in := range v.prog {
		switch in.Op {
		case OpBentr:
			stack = append(stack, pc)
		case OpBexit:
			if len(stack) == 0 {
				v.reportf(pc, SevError, "bexit without a matching bentr: the VM traps here")
				continue
			}
			v.loopExit[stack[len(stack)-1]] = pc
			stack = stack[:len(stack)-1]
		}
	}
	for _, pc := range stack {
		v.reportf(pc, SevWarning, "bentr without a matching bexit: the loop body never repeats")
	}
}

// runRange interprets prog[from:to) over st, recursing into loops, and
// returns the worst-case bytes emitted to the output FIFO by the range
// (OutputUnbounded when a loop has no trip bound). Diagnostics are
// emitted only when emit is true, so loop fixpoint passes stay silent
// and the final pass reports each site exactly once against the
// loop-invariant state (which over-approximates every iteration,
// including the first).
func (v *verifier) runRange(from, to int, st *absState, emit bool) uint64 {
	var emitted uint64
	addEmit := func(n uint64) {
		if emitted == OutputUnbounded || n == OutputUnbounded {
			emitted = OutputUnbounded
			return
		}
		s, carry := bits.Add64(emitted, n, 0)
		if carry != 0 {
			s = OutputUnbounded
		}
		emitted = s
	}

	for pc := from; pc < to; pc++ {
		in := v.prog[pc]
		if in.Op == OpBentr {
			if exit, ok := v.loopExit[pc]; ok && exit < to {
				addEmit(v.runLoop(pc, exit, st, emit))
				pc = exit
				continue
			}
			// Unmatched bentr: fall through and interpret the body
			// once, which is exactly what the VM does.
			continue
		}
		addEmit(v.step(pc, st, emit))
	}
	return emitted
}

// runLoop analyzes one bentr..bexit loop: computes the loop-invariant
// state by fixpoint with widening, re-runs the body once over the
// invariant to emit diagnostics, proves termination when it can, and
// returns the loop's worst-case FIFO emission.
func (v *verifier) runLoop(entry, exit int, st *absState, emit bool) uint64 {
	entryState := *st // state on first entering the body (do-while: runs at least once)

	// Fixpoint: find inv such that inv ⊒ entryState and inv ⊒ body(inv).
	inv := entryState
	const maxPasses = 8
	for pass := 0; ; pass++ {
		work := inv
		v.runRange(entry+1, exit, &work, false)
		v.stepBexitState(exit, &work)
		v.refineBackEdge(exit, &work)
		prev := inv
		if !inv.join(&work) {
			break
		}
		if pass >= 2 {
			inv.widen(&prev)
		}
		if pass >= maxPasses {
			// Widening guarantees convergence long before this; the
			// bound is a belt against a domain bug, not a real path.
			break
		}
	}
	// Narrowing: widening may have blown a register to top that the
	// back-edge condition actually bounds (the looping path of
	// `bexit GE r, b` implies r < b). Re-solving the loop-head
	// equation from the post-fixpoint recovers those bounds.
	for i := 0; i < 2; i++ {
		work := inv
		v.runRange(entry+1, exit, &work, false)
		v.stepBexitState(exit, &work)
		v.refineBackEdge(exit, &work)
		next := entryState
		next.join(&work)
		inv = next
	}

	// Diagnostic pass over the invariant: one report per site, valid
	// for every iteration.
	final := inv
	bodyEmit := v.runRange(entry+1, exit, &final, emit)
	v.checkBexit(exit, &final, emit)

	trip := v.proveTermination(entry, exit, &entryState, &inv, emit)
	*st = final

	if bodyEmit == 0 {
		return 0
	}
	if trip == OutputUnbounded || bodyEmit == OutputUnbounded {
		return OutputUnbounded
	}
	if over, total := bits.Mul64(bodyEmit, trip); over == 0 {
		return total
	}
	return OutputUnbounded
}

// proveTermination looks for a monotone induction argument on the
// loop's bexit and returns a bound on the trip count (OutputUnbounded
// when none exists). The supported shape is the paper's walker idiom:
//
//	bexit GE|GT, r, bound
//
// where r is a register whose only writes inside the body are
// `ad r, c, r` (or `ad c, r, r`) with a strictly positive increment,
// and bound is not written inside the body. r then strictly increases
// every iteration, so it eventually reaches any fixed bound. (A wrap
// around 2^64 would need ~2^64/c iterations — the VM's step budget
// traps long before that, so the proof holds for every run the VM
// completes.)
func (v *verifier) proveTermination(entry, exit int, entryState, inv *absState, emit bool) uint64 {
	in := v.prog[exit]
	cond := int(in.A)
	fail := func(format string, args ...interface{}) uint64 {
		v.report.TerminationProved = false
		if emit {
			v.reportf(exit, SevWarning, "cannot prove loop at pc=%d terminates: %s",
				entry, fmt.Sprintf(format, args...))
		}
		return OutputUnbounded
	}
	if !in.A.IsImm() || cond > CondNE {
		// checkBexit already reported the definite trap.
		v.report.TerminationProved = false
		return OutputUnbounded
	}
	if cond != CondGE && cond != CondGT {
		return fail("exit condition %s is an equality test, not an ordering", condName(cond))
	}
	r := in.B
	if !r.IsReg() {
		return fail("exit comparison %s has an immediate on the induction side", condName(cond))
	}

	// Every write to r inside the body must be a strictly positive
	// self-increment.
	step := interval{^uint64(0), ^uint64(0)} // min over all increments matters; start at +inf
	sawInc := false
	for pc := entry + 1; pc < exit; pc++ {
		b := v.prog[pc]
		dst, writes := destReg(b)
		if !writes || dst != r {
			continue
		}
		if b.Op != OpAdd {
			return fail("%%%s is written by %s at pc=%d, not a monotone increment", r, b.Op, pc)
		}
		var inc Operand
		switch {
		case b.A == r:
			inc = b.B
		case b.B == r:
			inc = b.A
		default:
			return fail("ad at pc=%d overwrites %s without reading it", pc, r)
		}
		incIv := v.peek(inv, inc)
		if incIv.lo == 0 {
			return fail("increment of %s at pc=%d is not provably positive", r, pc)
		}
		if incIv.lo < step.lo {
			step.lo = incIv.lo
		}
		sawInc = true
	}
	if !sawInc {
		return fail("%s is never advanced inside the body", r)
	}

	// The bound side must be loop-invariant.
	bound := in.C
	if bound.IsReg() {
		for pc := entry + 1; pc < exit; pc++ {
			if dst, writes := destReg(v.prog[pc]); writes && dst == bound {
				return fail("exit bound %s is written inside the body at pc=%d", bound, pc)
			}
		}
	}

	// Trip bound: r starts at entryState(r).lo and gains ≥ step.lo per
	// iteration until it reaches bound's maximum.
	boundHi := v.peek(inv, bound).hi
	startLo := v.peek(entryState, r).lo
	if boundHi == ^uint64(0) {
		return OutputUnbounded // terminating, but with no computable trip bound
	}
	var span uint64
	if boundHi > startLo {
		span = boundHi - startLo
	}
	return span/step.lo + 1
}

// destReg returns the register an instruction writes, if any.
func destReg(in Instr) (Operand, bool) {
	switch in.Op {
	case OpReadB, OpExtrB, OpExtrBi, OpAdd, OpSub, OpMul:
		if in.C.IsReg() {
			return in.C, true
		}
	}
	return 0, false
}

func condName(c int) string {
	switch c {
	case CondEQ:
		return "EQ"
	case CondGE:
		return "GE"
	case CondGT:
		return "GT"
	case CondNE:
		return "NE"
	}
	return fmt.Sprintf("cond%d", c)
}

// ---------------------------------------------------------------------------
// Per-instruction transfer functions. Each mirrors the corresponding
// dynamic check in vm.go; the comments there are authoritative for the
// trap conditions.

// step interprets one non-control instruction and returns its
// worst-case FIFO emission.
func (v *verifier) step(pc int, st *absState, emit bool) uint64 {
	in := v.prog[pc]
	switch in.Op {
	case OpReadB:
		addr := v.read(pc, st, in.A, emit)
		n := v.read(pc, st, in.B, emit)
		v.checkLen(pc, "readB", n, 8, emit)
		v.checkAccess(pc, "readB", emit, addr, n)
		v.write(pc, st, in.C, absReg{iv: byteWidthInterval(n), init: true}, emit)
	case OpExtrB:
		v.read(pc, st, in.A, emit)
		off := v.read(pc, st, in.B, emit)
		v.checkLen(pc, "extrB byte offset", off, 7, emit)
		v.write(pc, st, in.C, absReg{iv: interval{0, 0xFF}, init: true}, emit)
	case OpWriteB:
		v.read(pc, st, in.A, emit)
		n := v.read(pc, st, in.B, emit)
		addr := v.read(pc, st, in.C, emit)
		v.checkLen(pc, "writeB", n, 8, emit)
		v.checkAccess(pc, "writeB", emit, addr, n)
	case OpExtrBi:
		v.read(pc, st, in.A, emit)
		idx := v.read(pc, st, in.B, emit)
		out := interval{0, 0xFFFFFFFF}
		switch {
		case idx.lo >= NumConfigRegs:
			if emit {
				v.reportf(pc, SevError, "extrBi field index %d out of range [0,%d): the VM traps here", idx.lo, NumConfigRegs)
			}
		case idx.hi >= NumConfigRegs:
			if emit {
				v.reportf(pc, SevWarning, "extrBi field index in [%d,%d] may exceed %d", idx.lo, idx.hi, NumConfigRegs-1)
			}
		case idx.lo == idx.hi && !v.unknownCfg:
			fd := v.cfg.Fields[idx.lo]
			if fd.Width == 0 || fd.Width > 32 {
				out = ivConst(0) // FieldDesc.Extract returns 0 for degenerate widths
			} else {
				out = interval{0, 1<<fd.Width - 1}
			}
		}
		v.write(pc, st, in.C, absReg{iv: out, init: true}, emit)
	case OpClean:
		addr := v.read(pc, st, in.A, emit)
		skip := v.read(pc, st, in.B, emit)
		n := v.read(pc, st, in.C, emit)
		v.checkAccess(pc, "cln", emit, addr, skip, n)
		return n.hi
	case OpInsert:
		v.read(pc, st, in.A, emit)
		n := v.read(pc, st, in.B, emit)
		v.checkLen(pc, "ins", n, 8, emit)
		if n.hi > 8 {
			return 8
		}
		return n.hi
	case OpAdd:
		a, b := v.read(pc, st, in.A, emit), v.read(pc, st, in.B, emit)
		v.write(pc, st, in.C, absReg{iv: a.add(b), init: true}, emit)
	case OpSub:
		a, b := v.read(pc, st, in.A, emit), v.read(pc, st, in.B, emit)
		v.write(pc, st, in.C, absReg{iv: a.sub(b), init: true}, emit)
	case OpMul:
		a, b := v.read(pc, st, in.A, emit), v.read(pc, st, in.B, emit)
		v.write(pc, st, in.C, absReg{iv: a.mul(b), init: true}, emit)
	case OpBexit:
		// Reached only when unmatched (matchLoops reported it) — the
		// matched case is consumed by runLoop.
	}
	return 0
}

// refineBackEdge narrows the state that flows back to the loop head:
// the looping path of `bexit GE a, b` implies a < b and of
// `bexit GT a, b` implies a <= b, so a's upper bound is capped by b's.
func (v *verifier) refineBackEdge(pc int, st *absState) {
	in := v.prog[pc]
	if !in.A.IsImm() {
		return
	}
	cond := int(in.A)
	if (cond != CondGE && cond != CondGT) || !in.B.IsReg() {
		return
	}
	b := v.peek(st, in.C)
	cap := b.hi
	if cond == CondGE {
		if cap == 0 {
			return // a < 0 is impossible; the back edge is infeasible
		}
		cap--
	}
	var r *absReg
	if in.B < operandCRBase {
		r = &st.t[in.B-operandTBase]
	} else {
		r = &st.cr[in.B-operandCRBase]
	}
	if cap < r.iv.hi {
		r.iv.hi = cap
		if r.iv.lo > r.iv.hi {
			r.iv.lo = r.iv.hi
		}
	}
}

// stepBexitState applies a bexit's register reads to the fixpoint
// state without emitting diagnostics (the reads can mark init bits in
// future domains; today it is a no-op kept for symmetry with
// checkBexit).
func (v *verifier) stepBexitState(pc int, st *absState) {
	in := v.prog[pc]
	_ = v.peek(st, in.B)
	_ = v.peek(st, in.C)
}

// checkBexit validates a matched bexit against the invariant state.
func (v *verifier) checkBexit(pc int, st *absState, emit bool) {
	in := v.prog[pc]
	if !in.A.IsImm() || int(in.A) > CondNE {
		if emit {
			v.reportf(pc, SevError, "bexit condition operand %s is not a condition code 0..3: the VM traps here", in.A)
		}
		return
	}
	v.read(pc, st, in.B, emit)
	v.read(pc, st, in.C, emit)
}

// read resolves an operand to its interval, diagnosing reads of
// never-initialized temp registers.
func (v *verifier) read(pc int, st *absState, o Operand, emit bool) interval {
	switch {
	case o.IsImm():
		return ivConst(uint64(o))
	case o < operandCRBase:
		r := &st.t[o-operandTBase]
		if !r.init && emit {
			v.reportf(pc, SevWarning, "%s is read before any instruction writes it (hardware zeroes it, but this is almost always a compiler bug)", o)
		}
		return r.iv
	default:
		return st.cr[o-operandCRBase].iv
	}
}

// peek resolves an operand without init diagnostics.
func (v *verifier) peek(st *absState, o Operand) interval {
	if o.IsImm() {
		return ivConst(uint64(o))
	}
	if o < operandCRBase {
		return st.t[o-operandTBase].iv
	}
	return st.cr[o-operandCRBase].iv
}

// write stores an abstract value to a register destination, diagnosing
// the immediate-destination definite trap.
func (v *verifier) write(pc int, st *absState, o Operand, r absReg, emit bool) {
	switch {
	case o.IsImm():
		if emit {
			v.reportf(pc, SevError, "destination operand %s is an immediate: the VM traps here", o)
		}
	case o < operandCRBase:
		st.t[o-operandTBase] = r
	default:
		st.cr[o-operandCRBase] = r
	}
}

// checkLen diagnoses a width/offset operand against its ISA maximum.
func (v *verifier) checkLen(pc int, what string, n interval, max uint64, emit bool) {
	if !emit {
		return
	}
	switch {
	case n.lo > max:
		v.reportf(pc, SevError, "%s length %d > %d: the VM traps here", what, n.lo, max)
	case n.hi > max:
		v.reportf(pc, SevWarning, "%s length in [%d,%d] may exceed %d", what, n.lo, n.hi, max)
	}
}

// checkAccess proves a page access: the sum of the parts must stay
// within the configured page size. Sums saturate, matching the VM's
// wrap-proof bound checks in vm.go.
func (v *verifier) checkAccess(pc int, what string, emit bool, parts ...interval) {
	if !emit {
		return
	}
	var loSum, hiSum uint64
	for _, p := range parts {
		loSum = satAdd(loSum, p.lo)
		hiSum = satAdd(hiSum, p.hi)
	}
	switch {
	case loSum > v.pageSize:
		v.reportf(pc, SevError, "%s access reaches byte %d of a %d-byte page on every execution: the VM traps here",
			what, loSum, v.pageSize)
	case hiSum == ^uint64(0):
		v.reportf(pc, SevWarning, "%s address is not provably bounded; the access may leave the %d-byte page", what, v.pageSize)
	case hiSum > v.pageSize:
		v.reportf(pc, SevWarning, "%s access may reach byte %d of a %d-byte page", what, hiSum, v.pageSize)
	}
}

func satAdd(a, b uint64) uint64 {
	s, carry := bits.Add64(a, b, 0)
	if carry != 0 {
		return ^uint64(0)
	}
	return s
}

// byteWidthInterval bounds an n-byte little-endian load: n bytes can
// encode at most 2^(8n)-1.
func byteWidthInterval(n interval) interval {
	w := n.hi
	if w >= 8 {
		return ivTop()
	}
	return interval{0, 1<<(8*w) - 1}
}
