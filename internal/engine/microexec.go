package engine

import "fmt"

// Micro-instruction layer: the per-AC selective-SIMD programs the
// compiler "generates the micro-instructions for both ACs and AUs"
// step (§6.2) produces. A macro Program lowers (Lower) to streams of
// MicroInstr, each an AC-level instruction carrying an 8-bit AU enable
// mask — the collective-instruction technique of §5.2 where "the AC
// controller processes the instruction and sends control signals to
// all the AUs".
//
// The canonical layout maps scratchpad word w to
// (AC (w/8) mod ACs, AU w mod 8, local address w/(8*ACs)); a lowered
// instruction addresses the same local word on every enabled AU.
// Operand patterns that stay lane-aligned lower to wide SIMD steps;
// everything else falls back to serialized bus transfers, exactly the
// locality/communication trade the paper's scheduler optimizes.
//
// The tests' MicroMachine (micromachine_test.go) executes lowered
// programs functionally and holds them to the macro Machine, proving the
// lowering preserves semantics.

// MRKind discriminates micro operand sources.
type MRKind uint8

const (
	MRNone  MRKind = iota
	MRLocal        // this AU's local scratch word
	MRBus          // the value latched on the shared bus
	MRImm          // an immediate float32 (identity constants)
)

// MicroRef is one micro operand.
type MicroRef struct {
	Kind  MRKind
	Local int     // MRLocal
	Imm   float32 // MRImm
}

func (r MicroRef) String() string {
	switch r.Kind {
	case MRLocal:
		return fmt.Sprintf("m[%d]", r.Local)
	case MRBus:
		return "bus"
	case MRImm:
		return fmt.Sprintf("#%g", r.Imm)
	default:
		return "_"
	}
}

// MicroKind discriminates micro instruction classes.
type MicroKind uint8

const (
	MCompute MicroKind = iota // AC-level selective-SIMD ALU op
	MBusLoad                  // latch word (AC, AU, local) onto the bus
	MGather                   // memory-controller row gather (macro passthrough)
	MScatter                  // memory-controller row scatter
)

// MicroInstr is one AC-level instruction.
type MicroInstr struct {
	Kind MicroKind

	// MCompute:
	AC   int   // target analytic cluster
	Op   AluOp //
	Mask uint8 // enabled AUs
	Dst  int   // local destination word
	A, B MicroRef

	// MBusLoad:
	SrcAC, SrcAU, SrcLocal int

	// MGather/MScatter (copied from the macro instruction):
	Macro Instr
}

func (mi MicroInstr) String() string {
	switch mi.Kind {
	case MCompute:
		return fmt.Sprintf("ac%d.%s mask=%08b m[%d] <- %s, %s", mi.AC, mi.Op, mi.Mask, mi.Dst, mi.A, mi.B)
	case MBusLoad:
		return fmt.Sprintf("bus <- ac%d/au%d m[%d]", mi.SrcAC, mi.SrcAU, mi.SrcLocal)
	case MGather:
		return fmt.Sprintf("mc.%s", mi.Macro)
	case MScatter:
		return fmt.Sprintf("mc.%s", mi.Macro)
	default:
		return "?"
	}
}

// MicroProgram is the lowered form of a Program for one configuration.
type MicroProgram struct {
	Cfg   Config
	Prog  *Program // the ALIGNED macro program (slot map, merge metadata)
	Slots int      // scratch words including lowering temporaries

	// MapSlot translates a slot of the original (pre-alignment)
	// program into the aligned address space.
	MapSlot func(Slot) Slot

	PerTuple    []MicroInstr
	PostMerge   []MicroInstr
	RowUpdates  []MicroInstr
	Convergence []MicroInstr
}

// lowering context
type microLower struct {
	cfg   Config
	prog  *Program
	extra int // next temporary word (appended after prog.Slots)
	out   *MicroProgram
}

// Lower compiles a macro program into per-AC micro-instruction streams
// for the configuration.
func Lower(p *Program, cfg Config) (*MicroProgram, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	// Re-base the slot space so every region starts on a lane boundary:
	// the physical layout step the paper's compiler performs when it
	// "maps ... operations to the accelerator architecture". Aligned
	// regions lower to wide selective-SIMD steps instead of serialized
	// bus transfers.
	p, remap := alignProgram(p, cfg.Lanes())
	ml := &microLower{cfg: cfg, prog: p, extra: p.Slots}
	ml.out = &MicroProgram{Cfg: cfg, Prog: p, MapSlot: remap}
	lists := []struct {
		src []Instr
		dst *[]MicroInstr
	}{
		{p.PerTuple, &ml.out.PerTuple},
		{p.PostMerge, &ml.out.PostMerge},
		{p.RowUpdates, &ml.out.RowUpdates},
		{p.Convergence, &ml.out.Convergence},
	}
	for _, l := range lists {
		for _, in := range l.src {
			ops, err := ml.lowerInstr(in)
			if err != nil {
				return nil, err
			}
			*l.dst = append(*l.dst, ops...)
		}
	}
	ml.out.Slots = ml.extra
	return ml.out, nil
}

// alignProgram rewrites the program's slot space so every maximal
// region (a run of overlapping slots — e.g. the input block and the
// per-input sub-slices inside it) starts at a multiple of the lane
// count, preserving all intra-region offsets. The result is an
// equivalent program over a padded scratchpad, returned with the slot
// translation that produced it.
func alignProgram(p *Program, lanes int) (*Program, func(Slot) Slot) {
	// 1. Collect every referenced interval.
	type iv struct{ lo, hi int }
	var ivs []iv
	add := func(s Slot) {
		if s.Len > 0 {
			ivs = append(ivs, iv{s.Base, s.Base + s.Len})
		}
	}
	addInstr := func(in Instr) {
		add(in.Dst)
		add(in.A)
		add(in.B)
		if in.Kind == KReduce {
			hi := in.A.Base + (in.Dst.Len-1)*in.GStride + (in.GroupSize-1)*in.EStride + 1
			ivs = append(ivs, iv{in.A.Base, hi})
		}
	}
	for _, s := range []Slot{p.ModelSlot, p.InputSlot, p.ConstSlot, p.MergeSrc, p.MergeDst, p.UpdatedSlot, p.ConvSlot} {
		add(s)
	}
	for _, list := range [][]Instr{p.PerTuple, p.PostMerge, p.RowUpdates, p.Convergence} {
		for _, in := range list {
			addInstr(in)
		}
	}
	if len(ivs) == 0 {
		return p, func(s Slot) Slot { return s }
	}
	// 2. Merge overlapping intervals into maximal regions.
	for i := 1; i < len(ivs); i++ {
		for j := i; j > 0 && ivs[j].lo < ivs[j-1].lo; j-- {
			ivs[j], ivs[j-1] = ivs[j-1], ivs[j]
		}
	}
	var regions []iv
	cur := ivs[0]
	for _, v := range ivs[1:] {
		if v.lo < cur.hi { // true overlap extends the region; merely
			// adjacent regions stay separate so each can align
			if v.hi > cur.hi {
				cur.hi = v.hi
			}
			continue
		}
		regions = append(regions, cur)
		cur = v
	}
	regions = append(regions, cur)
	// 3. Assign aligned bases.
	delta := make(map[int]int, len(regions)) // region lo -> shift
	next := 0
	for _, r := range regions {
		base := ceilDiv(next, lanes) * lanes
		delta[r.lo] = base - r.lo
		next = base + (r.hi - r.lo)
	}
	shift := func(addr int) int {
		// Find the region containing addr (regions are sorted, few).
		for _, r := range regions {
			if addr >= r.lo && addr < r.hi {
				return addr + delta[r.lo]
			}
		}
		return addr
	}
	remap := func(s Slot) Slot {
		if s.Len == 0 {
			return s
		}
		return Slot{Base: shift(s.Base), Len: s.Len}
	}
	remapInstr := func(in Instr) Instr {
		in.Dst = remap(in.Dst)
		in.A = remap(in.A)
		in.B = remap(in.B)
		return in
	}
	out := &Program{
		Slots:       next,
		ModelSlot:   remap(p.ModelSlot),
		InputSlot:   remap(p.InputSlot),
		ConstSlot:   remap(p.ConstSlot),
		Consts:      p.Consts,
		MergeSrc:    remap(p.MergeSrc),
		MergeOp:     p.MergeOp,
		MergeDst:    remap(p.MergeDst),
		UpdatedSlot: remap(p.UpdatedSlot),
		ConvSlot:    remap(p.ConvSlot),
	}
	for _, in := range p.PerTuple {
		out.PerTuple = append(out.PerTuple, remapInstr(in))
	}
	for _, in := range p.PostMerge {
		out.PostMerge = append(out.PostMerge, remapInstr(in))
	}
	for _, in := range p.RowUpdates {
		out.RowUpdates = append(out.RowUpdates, remapInstr(in))
	}
	for _, in := range p.Convergence {
		out.Convergence = append(out.Convergence, remapInstr(in))
	}
	return out, remap
}

// lanes per thread.
func (ml *microLower) lanes() int { return ml.cfg.Lanes() }

// place decomposes word w into (ac, au, local).
func (ml *microLower) place(w int) (ac, au, local int) {
	au = w % ml.cfg.AUsPerAC
	ac = (w / ml.cfg.AUsPerAC) % ml.cfg.ACsPerThread
	local = w / ml.lanes()
	return
}

// alignedRef returns the wave-local reference for operand s feeding a
// destination wave starting at dst element index w*lanes, or ok=false
// when the access pattern is not lane-aligned.
func (ml *microLower) alignedRef(s Slot, dstLen, wave int) (MicroRef, bool) {
	lanes := ml.lanes()
	if s.Len == dstLen && s.Base%lanes == 0 {
		return MicroRef{Kind: MRLocal, Local: s.Base/lanes + wave}, true
	}
	if s.Len%lanes == 0 && s.Base%lanes == 0 && s.Len > 0 {
		// Wrapped but aligned: element i reads s[i mod s.Len], which is
		// the same lane when s.Len is a multiple of the lane count.
		return MicroRef{Kind: MRLocal, Local: s.Base/lanes + wave%(s.Len/lanes)}, true
	}
	return MicroRef{}, false
}

func (ml *microLower) lowerInstr(in Instr) ([]MicroInstr, error) {
	switch in.Kind {
	case KEW:
		return ml.lowerEW(in)
	case KReduce:
		return ml.lowerReduce(in)
	case KGather:
		return []MicroInstr{{Kind: MGather, Macro: in}}, nil
	case KScatter:
		return []MicroInstr{{Kind: MScatter, Macro: in}}, nil
	default:
		return nil, fmt.Errorf("engine: cannot lower %v", in)
	}
}

// busLoadWord emits a bus load of scratch word w.
func (ml *microLower) busLoadWord(w int) MicroInstr {
	ac, au, local := ml.place(w)
	return MicroInstr{Kind: MBusLoad, SrcAC: ac, SrcAU: au, SrcLocal: local}
}

// computeAt emits a single-AU compute at word w.
func (ml *microLower) computeAt(w int, op AluOp, a, b MicroRef) MicroInstr {
	ac, au, local := ml.place(w)
	return MicroInstr{Kind: MCompute, AC: ac, Op: op, Mask: 1 << au, Dst: local, A: a, B: b}
}

func (ml *microLower) lowerEW(in Instr) ([]MicroInstr, error) {
	lanes := ml.lanes()
	unary := in.Op.IsUnary()
	var ops []MicroInstr

	// Scalar operands broadcast once over the bus and stay latched.
	aScalar := in.A.Len == 1
	bScalar := !unary && in.B.Len == 1
	if aScalar {
		ops = append(ops, ml.busLoadWord(in.A.Base))
	}
	// (If both are scalar the bus holds A; B reloads per element below.)

	dstAligned := in.Dst.Base%lanes == 0
	waves := ceilDiv(in.Dst.Len, lanes)
	for w := 0; w < waves; w++ {
		aRef, aOK := ml.alignedRef(in.A, in.Dst.Len, w)
		if aScalar {
			aRef, aOK = MicroRef{Kind: MRBus}, true
		}
		var bRef MicroRef
		bOK := true
		if !unary {
			bRef, bOK = ml.alignedRef(in.B, in.Dst.Len, w)
			if bScalar && !aScalar {
				// B rides the bus instead; latch it once on the first wave.
				if w == 0 {
					ops = append(ops, ml.busLoadWord(in.B.Base))
				}
				bRef, bOK = MicroRef{Kind: MRBus}, true
			}
		}
		if dstAligned && aOK && bOK && !(aScalar && bScalar) {
			// Fast path: one selective-SIMD step per AC in the wave.
			start := w * lanes
			count := in.Dst.Len - start
			if count > lanes {
				count = lanes
			}
			for ac := 0; ac < ml.cfg.ACsPerThread; ac++ {
				var mask uint8
				for au := 0; au < ml.cfg.AUsPerAC; au++ {
					if ac*ml.cfg.AUsPerAC+au < count {
						mask |= 1 << au
					}
				}
				if mask == 0 {
					continue
				}
				ops = append(ops, MicroInstr{
					Kind: MCompute, AC: ac, Op: in.Op, Mask: mask,
					Dst: in.Dst.Base/lanes + w, A: aRef, B: bRef,
				})
			}
			continue
		}
		// Slow path: element-serial bus transfers (misaligned layout).
		start := w * lanes
		end := start + lanes
		if end > in.Dst.Len {
			end = in.Dst.Len
		}
		for i := start; i < end; i++ {
			dstW := in.Dst.Base + i
			var a, b MicroRef
			switch {
			case aScalar:
				a = MicroRef{Kind: MRBus}
				ops = append(ops, ml.busLoadWord(in.A.Base)) // re-latch (bus may have moved)
			default:
				ops = append(ops, ml.busLoadWord(in.A.Base+i%in.A.Len))
				a = MicroRef{Kind: MRBus}
			}
			if unary {
				ops = append(ops, ml.computeAt(dstW, in.Op, a, MicroRef{}))
				continue
			}
			// Stage A into the destination, then combine with B.
			ops = append(ops, ml.computeAt(dstW, AMov, a, MicroRef{}))
			ops = append(ops, ml.busLoadWord(in.B.Base+i%in.B.Len))
			b = MicroRef{Kind: MRBus}
			_, _, local := ml.place(dstW)
			ops = append(ops, ml.computeAt(dstW, in.Op, MicroRef{Kind: MRLocal, Local: local}, b))
		}
	}
	return ops, nil
}

func (ml *microLower) lowerReduce(in Instr) ([]MicroInstr, error) {
	var ops []MicroInstr
	identity := float32(0)
	if in.Op == AMul {
		identity = 1
	}
	lanes := ml.lanes()

	// Fast path: a full contiguous reduction (the dot products at the
	// heart of every GLM update rule). Each AU accumulates a strided
	// partial in parallel, then the bus folds the lane partials into
	// the destination — the per-AU-partials + tree/bus combine shape of
	// §5.2's group-operation mapping.
	if in.Dst.Len == 1 && in.EStride == 1 && in.A.Base%lanes == 0 {
		// Lane-aligned accumulator row (one word per AU).
		accBase := ceilDiv(ml.extra, lanes) * lanes
		ml.extra = accBase + lanes
		accLocal := accBase / lanes
		accRef := MicroRef{Kind: MRLocal, Local: accLocal}
		for ac := 0; ac < ml.cfg.ACsPerThread; ac++ {
			ops = append(ops, MicroInstr{
				Kind: MCompute, AC: ac, Op: AMov, Mask: 0xFF, Dst: accLocal,
				A: MicroRef{Kind: MRImm, Imm: identity},
			})
		}
		waves := ceilDiv(in.GroupSize, lanes)
		for w := 0; w < waves; w++ {
			start := w * lanes
			count := in.GroupSize - start
			if count > lanes {
				count = lanes
			}
			for ac := 0; ac < ml.cfg.ACsPerThread; ac++ {
				var mask uint8
				for au := 0; au < ml.cfg.AUsPerAC; au++ {
					if ac*ml.cfg.AUsPerAC+au < count {
						mask |= 1 << au
					}
				}
				if mask == 0 {
					continue
				}
				ops = append(ops, MicroInstr{
					Kind: MCompute, AC: ac, Op: in.Op, Mask: mask, Dst: accLocal,
					A: accRef, B: MicroRef{Kind: MRLocal, Local: in.A.Base/lanes + w},
				})
			}
		}
		// Fold the lane partials into the destination over the bus.
		dstW := in.Dst.Base
		_, _, dstLocal := ml.place(dstW)
		ops = append(ops, ml.busLoadWord(accBase))
		ops = append(ops, ml.computeAt(dstW, AMov, MicroRef{Kind: MRBus}, MicroRef{}))
		for lane := 1; lane < lanes; lane++ {
			ops = append(ops, ml.busLoadWord(accBase+lane))
			ops = append(ops, ml.computeAt(dstW, in.Op,
				MicroRef{Kind: MRLocal, Local: dstLocal}, MicroRef{Kind: MRBus}))
		}
		return ops, nil
	}

	// Group-serial lowering through the bus: initialize each group's
	// destination to the identity, then fold every element in. (The
	// macro cycle model separately accounts the parallel-tree timing;
	// the micro form is the semantics-bearing schedule.)
	for g := 0; g < in.Dst.Len; g++ {
		dstW := in.Dst.Base + g
		ops = append(ops, ml.computeAt(dstW, AMov, MicroRef{Kind: MRImm, Imm: identity}, MicroRef{}))
		_, _, dstLocal := ml.place(dstW)
		for e := 0; e < in.GroupSize; e++ {
			src := in.A.Base + g*in.GStride + e*in.EStride
			ops = append(ops, ml.busLoadWord(src))
			ops = append(ops, ml.computeAt(dstW, in.Op,
				MicroRef{Kind: MRLocal, Local: dstLocal}, MicroRef{Kind: MRBus}))
		}
	}
	return ops, nil
}

// Count returns the total micro-instruction count per stage.
func (mp *MicroProgram) Count() (perTuple, postMerge, conv int) {
	return len(mp.PerTuple) + len(mp.RowUpdates), len(mp.PostMerge), len(mp.Convergence)
}
