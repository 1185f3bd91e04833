package engine

// The functional plan. NewMachine lowers a Program once into pre-decoded
// ops — operand memory, offsets, shape and kernel all resolved — and
// RunBatch/Converged execute nothing else. Modeled cycles never come
// from here: they are closed forms of the batch size over the program's
// CycleEstimate (micro.go), which is what lets the plan skip work the
// hardware is *charged* for (the per-thread tuple load, the 64-way model
// broadcast, a scratchpad for every thread) whenever it carries no
// information.
//
// Five rules keep the plan bit-identical to the reference executor
// (reference_test.go), which tests and internal/verify diff it against:
//
//   - order: every kernel performs the interpreter's float32 operations
//     in the interpreter's order, element by element — and where a merge
//     batch runs an op for a whole lane group at once (runDirect,
//     runPartition), a lane's own chain keeps its order and the merged
//     vector meets the lanes' sums in lane order, which is thread order;
//     where one kernel stands for several ops (kRowSGD), it is their
//     kernels inlined in their order, each word written and each scalar
//     read where its own op would, so it needs no proof they did not
//     already have;
//   - rounding: a fused product is written float32(x*y) before it meets
//     an add or a subtract — the Go spec lets a compiler fuse x*y+z into
//     one rounding (it does on arm64, ppc64le, s390x, riscv64) and only
//     an explicit conversion forbids it;
//   - liveness: a temporary is elided only when dead() proves no
//     instruction reads it before it is rewritten;
//   - aliasing: a gathered row is read where it lies in the model only
//     when viewable() proves every read of it falls before the tuple's
//     next model write, and no kernel reads a view while writing the
//     model under it;
//   - privacy: a tuple runs on its host lane's scratchpad rather than its
//     model thread's only when padShareable() proves the per-tuple stage
//     hands no word of it from one tuple to the next.

// space names the memory an operand is read from.
type space uint8

const (
	spThread  space = iota // the executing thread's scratchpad
	spRow                  // the caller's tuple, read in place
	spModel                // thread 0's scratchpad: the one model copy a merge batch reads
	spView                 // spView+r: the model row index register r's gather selected, read in place
	numSpaces = spView + maxIdxRegs
)

// operand is a resolved read: n words at off of a frame's base[sp].
type operand struct {
	sp  space
	off int
	n   int
}

// maxIdxRegs bounds the index registers of a tuple: each holds the row
// index a gather rounded, for its paired scatter and, when the gather is
// a view, for the row base[spView+r] selects (LRMF uses two).
const maxIdxRegs = 4

// frame is what a kernel runs against: the memories of one model thread
// for one tuple.
type frame struct {
	base  [numSpaces][]float32 // base[spView+r] is set by register r's viewing gather
	acc   []float32            // merge accumulator a fused accumulate adds into
	first bool                 // acc holds nothing yet: store, do not add
	idx   [maxIdxRegs]int      // row indexes rounded by this tuple's gathers
}

// kernel executes one op.
type kernel func(o *op, f *frame) error

// laneKernel executes one op for the dotLanes frames of a full lane group
// at once. It cannot fail.
type laneKernel func(o *op, fs *[dotLanes]frame)

// opKind names what lowering decided an op is; kernels maps it to code.
type opKind uint8

const (
	opFail          opKind = iota // the instruction's run-time error (empty EW source, invalid kind)
	opScalar                      // Len-1 elementwise: no slicing
	opEW1                         // unary, full-width source
	opEWvv                        // vector ∘ vector
	opEWvs                        // vector ∘ hoisted scalar
	opEWsv                        // hoisted scalar ∘ vector
	opEWwrap                      // the generic i mod Len form
	opReduce                      // grouped strided reduction
	opDot                         // ew.mul + red.add, product vector elided
	opGather                      // model row -> scratch, index rounded and checked
	opGatherView                  // model row -> view register, index rounded and checked, nothing copied
	opScatter                     // scratch -> model row, index rounded and checked
	opScatterPaired               // scatter reusing its gather's index register
	opAccMulSV                    // acc += scalar × vector (MergeSrc elided)
	opAccVV                       // acc += vector ∘ vector
	opStep                        // dst = a − s1·(s2·b): two ew.mul by a scalar and the ew.sub, both temps elided
	opRowSGD                      // LRMF's whole tuple: the rowSGDOps ops of parts, inlined in order
	numOpKinds
)

var kernels = [numOpKinds]kernel{
	opFail: kFail, opScalar: kScalar, opEW1: kEW1, opEWvv: kEWvv, opEWvs: kEWvs, opEWsv: kEWsv,
	opEWwrap: kEWwrap, opReduce: kReduce, opDot: kDot, opGather: kGather, opScatter: kScatter,
	opScatterPaired: kScatterPaired, opAccMulSV: kAccMulSV, opAccVV: kAccVV,
	opGatherView: kGatherView, opStep: kStep, opRowSGD: kRowSGD,
}

// laneKernels holds the lane kernel of each kind that has one. runDirect
// and runPartition look the kind up as they run: an op carries nothing for
// it. A partition group whose lanes keep spares accumulates through
// spareAdd and spareFold instead.
var laneKernels = [numOpKinds]laneKernel{opDot: dotN, opScalar: scalarN, opAccMulSV: accMulSVN}

// op is one pre-decoded step of the plan.
type op struct {
	run    kernel // kernels[kind], resolved once so the run loop is one indirect call
	kind   opKind
	alu    AluOp
	reg    int8 // index register a gather fills and its paired scatter reads (a view: its row too); -1 = none
	dst    int  // destination words [dst, dst+n) of the thread's scratchpad
	n      int
	a, b   operand
	s1, s2 operand // step: the outer and the inner scalar

	group, gstride, estride int // reduce: element (g, e) is a[g*gstride+e*estride]

	rowLen, rows int // gather/scatter row geometry

	parts *[rowSGDOps]op // rowSGD: the ops it stands for, where lowering left them in the slab

	src *Instr // the macro instruction (error text)
}

// plan is a lowered Program.
type plan struct {
	perTuple, postMerge, rowUpdates, convergence []op

	copyInput  bool // tuples are copied into the input region: some read could not be served from the row
	shareModel bool // per-tuple model reads go to thread 0; the broadcast is charged, not copied
	sharePads  bool // a tuple runs on its host lane's scratchpad, not its model thread's: the machine holds a pad per lane
	fusedAcc   bool // perTuple's last op adds the merge value straight into frame.acc
}

// pads is how many scratchpads a machine running the plan starts with: one
// where tuple-at-a-time SGD never leaves thread 0, one per lane of a lane
// group where tuples may share them, one per model thread otherwise.
func (pl *plan) pads(p *Program, cfg Config) int {
	switch {
	case !p.HasMerge():
		return 1
	case pl.sharePads:
		return min(dotLanes, cfg.Threads)
	}
	return cfg.Threads
}

func overlaps(a, b Slot) bool {
	return a.Len > 0 && b.Len > 0 && a.Base < b.Base+b.Len && b.Base < a.Base+a.Len
}

func within(a, b Slot) bool {
	return a.Len > 0 && a.Base >= b.Base && a.Base+a.Len <= b.Base+b.Len
}

// access returns the scratchpad words a macro instruction reads and the
// words it writes; total reports that every written word is overwritten
// unconditionally (a scatter picks its row at run time, so it is not).
func (p *Program) access(in *Instr) (reads [3]Slot, write Slot, total bool) {
	switch in.Kind {
	case KEW:
		if in.A.Len <= 0 || (!in.Op.IsUnary() && in.B.Len <= 0) {
			return reads, Slot{}, false // fails before touching memory
		}
		reads[0] = in.A
		if !in.Op.IsUnary() {
			reads[1] = in.B
		}
		return reads, in.Dst, true
	case KReduce:
		reads[0] = Slot{in.A.Base, (in.Dst.Len-1)*in.GStride + (in.GroupSize-1)*in.EStride + 1}
		return reads, in.Dst, true
	case KGather:
		reads[0], reads[1] = Slot{in.A.Base, 1}, p.ModelSlot
		return reads, Slot{in.Dst.Base, in.RowLen}, true
	case KScatter:
		reads[0], reads[1] = Slot{in.A.Base, in.RowLen}, Slot{in.B.Base, 1}
		return reads, p.ModelSlot, false
	}
	return reads, Slot{}, false
}

// inputInPlace reports whether every read of an input word can be served
// from the caller's row: all such reads sit in the per-tuple stage (or,
// without a merge, the row updates that follow it tuple by tuple), lie
// wholly inside the input region, and nothing ever writes there.
func (p *Program) inputInPlace() bool {
	in := p.InputSlot
	for _, s := range [...]Slot{p.ModelSlot, p.MergeSrc, p.MergeDst, p.UpdatedSlot, p.ConvSlot} {
		if overlaps(s, in) {
			return false
		}
	}
	for li, list := range [...][]Instr{p.PerTuple, p.RowUpdates, p.PostMerge, p.Convergence} {
		rowAtHand := li == 0 || (li == 1 && !p.HasMerge())
		for i := range list {
			reads, write, _ := p.access(&list[i])
			if overlaps(write, in) {
				return false
			}
			for _, r := range reads {
				if overlaps(r, in) && !(rowAtHand && within(r, in)) {
					return false
				}
			}
		}
	}
	return true
}

// modelShareable reports whether the per-tuple stage of a merge program
// may read thread 0's model instead of a per-thread copy: every batch
// ends by re-syncing the whole model from thread 0, and until then no
// thread writes its copy (the tuple load included) or reads across its
// edge.
func (p *Program) modelShareable() bool {
	mdl := p.ModelSlot
	if !p.HasMerge() || overlaps(p.MergeSrc, mdl) || overlaps(p.InputSlot, mdl) {
		return false
	}
	if p.UpdatedSlot.Len == 0 && len(p.RowUpdates) == 0 {
		return false
	}
	if p.UpdatedSlot.Len > 0 && p.UpdatedSlot.Len < mdl.Len {
		return false
	}
	for i := range p.PerTuple {
		reads, write, _ := p.access(&p.PerTuple[i])
		if overlaps(write, mdl) {
			return false
		}
		for _, r := range reads {
			if overlaps(r, mdl) && !within(r, mdl) {
				return false
			}
		}
	}
	for i := range p.Convergence {
		if _, write, _ := p.access(&p.Convergence[i]); overlaps(write, mdl) {
			return false
		}
	}
	return true
}

// liveness walks one straight-line continuation looking for a read of
// temp before a write that covers it.
type liveness struct {
	p      *Program
	temp   Slot
	killed bool
	live   bool
}

func (l *liveness) read(s Slot) {
	if !l.killed && overlaps(s, l.temp) {
		l.live = true
	}
}

func (l *liveness) write(s Slot) {
	if within(l.temp, s) {
		l.killed = true
	}
}

func (l *liveness) list(list []Instr) {
	for i := range list {
		reads, write, total := l.p.access(&list[i])
		for _, r := range reads {
			l.read(r)
		}
		if total {
			l.write(write)
		}
	}
}

// afterTuple walks what a thread can run between the end of one tuple's
// per-tuple stage and PerTuple[prod] of its next: nothing (path 0); or,
// on thread 0, the merge landing, PostMerge, RowUpdates and the model
// write-back first (path 1); or Convergence as well (path 2).
func (l *liveness) afterTuple(path, prod int) {
	p := l.p
	if path > 0 {
		if p.HasMerge() {
			l.write(p.MergeDst)
			l.list(p.PostMerge)
		}
		l.list(p.RowUpdates)
		l.read(p.UpdatedSlot)
	}
	if path > 1 {
		l.list(p.Convergence)
		l.read(p.ConvSlot)
	}
	l.list(p.PerTuple[:prod])
}

// dead reports whether the words of temp — written in full by
// PerTuple[prod] and consumed only by the fusion that ends at
// PerTuple[cons] — are never read again before prod rewrites them.
// Every continuation a thread can take from cons is walked to that
// rewrite: straight into its next tuple; or, on thread 0, through the
// merge landing, PostMerge, RowUpdates and the model write-back first;
// or through Convergence as well. mergeFused says the fusion itself is
// the merge's read of MergeSrc. The model is never dead (Model() may
// read it between any two batches), and neither is the output of a
// producer that reads it: an elementwise loop over overlapping regions
// feeds on the elements it has just written.
func (p *Program) dead(temp Slot, prod, cons int, mergeFused bool) bool {
	if overlaps(temp, p.ModelSlot) {
		return false
	}
	reads, _, _ := p.access(&p.PerTuple[prod])
	for _, r := range reads {
		if overlaps(r, temp) {
			return false
		}
	}
	for path := 0; path < 3; path++ {
		l := liveness{p: p, temp: temp}
		l.list(p.PerTuple[cons+1:])
		if p.HasMerge() && !mergeFused {
			l.read(p.MergeSrc)
		}
		l.afterTuple(path, prod)
		if l.live {
			return false
		}
	}
	return true
}

// padShareable reports whether the per-tuple stage of a merge program
// carries no thread-private word from one tuple to the next, so that a
// tuple may run on whichever scratchpad its host lane owns. It is asked
// only under inputInPlace and modelShareable, which send row and model
// reads past the pad altogether. Of the rest, every read — the merge's
// read of MergeSrc included — must lie inside a constant nothing in the
// program overwrites, or inside words one per-tuple instruction writes in
// full; and no such written word may be read, on any continuation a
// thread can take (afterTuple), before the same tuple has rewritten it:
// not by the next tuple, which under sharing is another thread's, nor by
// thread 0's once-a-batch stages, which find on pad 0 whatever tuple ran
// there last. The merge value reaches them through the accumulators.
func (p *Program) padShareable() bool {
	writes := func(r Slot) bool { // does anything, at any stage, write into r
		for _, list := range [...][]Instr{p.PerTuple, p.PostMerge, p.RowUpdates, p.Convergence} {
			for i := range list {
				if _, write, _ := p.access(&list[i]); overlaps(write, r) {
					return true
				}
			}
		}
		return overlaps(p.MergeDst, r)
	}
	onPad := func(r Slot) bool { // is r a read the pad serves, and safely
		if r.Len <= 0 || within(r, p.InputSlot) || within(r, p.ModelSlot) {
			return true
		}
		if within(r, p.ConstSlot) && !writes(r) {
			return true
		}
		for i := range p.PerTuple { // no scatter under a shared model: every write here is total
			if _, write, _ := p.access(&p.PerTuple[i]); within(r, write) {
				return true
			}
		}
		return false
	}
	if !onPad(p.MergeSrc) {
		return false
	}
	for i := range p.PerTuple {
		reads, write, _ := p.access(&p.PerTuple[i])
		for _, r := range reads {
			if !onPad(r) {
				return false
			}
		}
		for path := 0; path < 3 && write.Len > 0; path++ {
			l := liveness{p: p, temp: write}
			l.afterTuple(path, i)
			for _, r := range reads {
				l.read(r)
			}
			if l.live {
				return false
			}
		}
	}
	return true
}

// viewable reports whether the row PerTuple[g] gathers may be read where
// it lies in the model instead of being copied out. Without a merge a
// tuple runs PerTuple then RowUpdates back to back on thread 0, and the
// copy would go stale at the first model write after the gather; so
// every read of the row's scratch words must lie wholly inside them and
// strictly between the gather and that write — none before the gather
// (on the wrap it would see the last tuple's row), none by the writing
// instruction itself, none in Convergence (PostMerge never runs without
// a merge) — and nothing but the gather may write those words or name
// them.
func (p *Program) viewable(g int) bool {
	row := Slot{p.PerTuple[g].Dst.Base, p.PerTuple[g].RowLen}
	if p.HasMerge() {
		return false
	}
	for _, s := range [...]Slot{p.ModelSlot, p.InputSlot, p.ConstSlot, p.UpdatedSlot, p.ConvSlot} {
		if overlaps(s, row) {
			return false
		}
	}
	open := false // between the gather and the tuple's next model write
	n, u := len(p.PerTuple), len(p.PerTuple)+len(p.RowUpdates)
	for i := 0; i < u+len(p.Convergence); i++ {
		var in *Instr
		switch {
		case i < n:
			in = &p.PerTuple[i]
		case i < u:
			in = &p.RowUpdates[i-n]
		default:
			in = &p.Convergence[i-u]
		}
		reads, write, _ := p.access(in)
		if i == g {
			if overlaps(reads[0], row) { // its index word
				return false
			}
			open = true
			continue
		}
		if overlaps(write, row) {
			return false
		}
		if overlaps(write, p.ModelSlot) || i >= u {
			open = false
		}
		for _, r := range reads {
			if overlaps(r, row) && !(open && within(r, row)) {
				return false
			}
		}
	}
	return true
}

// lowerer carries what resolving an operand needs.
type lowerer struct {
	p        *Program
	inPlace  bool // input reads resolve to the row
	share    bool // per-tuple model reads resolve to thread 0
	perTuple bool // lowering the per-tuple stage
	rowHere  bool // the tuple's row is at hand in this stage

	// The gathers viewable() passed, in program order: views[r] fills
	// index register r, and a read inside its row resolves to spView+r.
	views  [maxIdxRegs]*Instr
	nviews int
}

// findViews takes a register for every gather of the per-tuple stage
// whose row can be read in place, while registers last.
func (lw *lowerer) findViews() {
	list := lw.p.PerTuple
	for g := range list {
		if list[g].Kind == KGather && lw.nviews < maxIdxRegs && lw.p.viewable(g) {
			lw.views[lw.nviews] = &list[g]
			lw.nviews++
		}
	}
}

// operand resolves a read of s to the memory that holds it. A read that
// touches a viewed row lies wholly inside it (viewable), and the row's
// scratch words overlap no other region.
func (lw *lowerer) operand(s Slot) operand {
	for r, g := range lw.views[:lw.nviews] {
		if within(s, Slot{g.Dst.Base, g.RowLen}) {
			return operand{spView + space(r), s.Base - g.Dst.Base, s.Len}
		}
	}
	switch {
	case lw.inPlace && lw.rowHere && within(s, lw.p.InputSlot):
		return operand{spRow, s.Base - lw.p.InputSlot.Base, s.Len}
	case lw.share && lw.perTuple && within(s, lw.p.ModelSlot):
		return operand{spModel, s.Base, s.Len}
	}
	return operand{spThread, s.Base, s.Len}
}

// lower builds the plan of p for cfg. The ops of all four lists share
// one slab; fusions only ever shrink a list, so the macro instruction
// count is its capacity — and a row kernel, which stands for at least
// thirteen instructions with eight ops, finds room past them.
func lower(p *Program, cfg Config) plan {
	lw := lowerer{p: p, inPlace: p.inputInPlace(), share: cfg.Threads > 1 && p.modelShareable()}
	lw.findViews()
	pl := plan{copyInput: !lw.inPlace, shareModel: lw.share, sharePads: lw.inPlace && lw.share && p.padShareable()}
	slab := make([]op, 0, len(p.PerTuple)+len(p.PostMerge)+len(p.RowUpdates)+len(p.Convergence))

	lw.perTuple, lw.rowHere = true, true
	slab, pl.perTuple, pl.fusedAcc = lw.lowerPerTuple(slab)
	lw.perTuple, lw.rowHere = false, !p.HasMerge()
	slab, pl.rowUpdates = lw.lowerList(slab, p.RowUpdates)
	lw.rowHere = false
	slab, pl.postMerge = lw.lowerList(slab, p.PostMerge)
	slab, pl.convergence = lw.lowerList(slab, p.Convergence)

	if !p.HasMerge() {
		pairIndexes(p, pl.perTuple, pl.rowUpdates, lw.nviews)
		slab = pl.fuseRowSGD(slab)
	}
	for i := range slab {
		slab[i].run = kernels[slab[i].kind]
	}
	return pl
}

// lowerList decodes a list with no fusion: the once-a-batch stages.
func (lw *lowerer) lowerList(slab []op, list []Instr) ([]op, []op) {
	start := len(slab)
	for i := range list {
		if o, ok := lw.decode(&list[i]); ok {
			slab = append(slab, o)
		}
	}
	return slab, slab[start:len(slab):len(slab)]
}

// lowerPerTuple decodes the per-tuple stage, fusing what the compiled
// update rules contain: ew.mul feeding a full red.add becomes a dot, two
// scalings feeding an ew.sub become a step, and the instruction
// producing MergeSrc accumulates straight into the merge accumulator —
// each only when dead() lets the temps between go.
func (lw *lowerer) lowerPerTuple(slab []op) ([]op, []op, bool) {
	p := lw.p
	list := p.PerTuple
	start := len(slab)
	fusedAcc := false
	for i := 0; i < len(list); i++ {
		in := &list[i]
		if i+1 < len(list) && isDot(in, &list[i+1]) && p.dead(in.Dst, i, i+1, false) {
			slab = append(slab, lw.dotOp(in, &list[i+1]))
			i++
			continue
		}
		if i+2 < len(list) {
			if o, ok := lw.stepOp(i); ok {
				slab = append(slab, o)
				i += 2
				continue
			}
		}
		if i == len(list)-1 && p.HasMerge() && p.MergeOp == AAdd && in.Kind == KEW && in.Dst == p.MergeSrc {
			if o, ok := lw.decode(in); ok && accKernel(&o) && p.dead(in.Dst, i, i, true) {
				slab = append(slab, o)
				fusedAcc = true
				continue
			}
		}
		if o, ok := lw.decode(in); ok {
			slab = append(slab, o)
		}
	}
	return slab, slab[start:len(slab):len(slab)], fusedAcc
}

// isDot matches a full-width ew.mul whose product vector is exactly what
// a single-group unit-stride red.add sums.
func isDot(mul, red *Instr) bool {
	return mul.Kind == KEW && mul.Op == AMul && red.Kind == KReduce && red.Op == AAdd &&
		mul.Dst.Len > 1 && mul.A.Len >= mul.Dst.Len && mul.B.Len >= mul.Dst.Len &&
		red.Dst.Len == 1 && red.EStride == 1 && red.A.Base == mul.Dst.Base && red.GroupSize == mul.Dst.Len
}

func (lw *lowerer) dotOp(mul, red *Instr) op {
	n := mul.Dst.Len
	return op{
		kind: opDot, alu: AAdd, dst: red.Dst.Base, n: 1, reg: -1, src: red,
		a: lw.operand(Slot{mul.A.Base, n}), b: lw.operand(Slot{mul.B.Base, n}),
	}
}

// scaling matches ew.mul of n > 1 words by a scalar, in either operand
// order (the compiler commutes a float multiply as it likes), and
// returns the scalar and the vector's first n words.
func scaling(in *Instr, n int) (s, v Slot, ok bool) {
	if in.Kind != KEW || in.Op != AMul || in.Dst.Len != n || n < 2 {
		return s, v, false
	}
	s, v = in.A, in.B
	if v.Len == 1 {
		s, v = v, s
	}
	return s, Slot{v.Base, n}, s.Len == 1 && v.Len >= n
}

// isStep matches the SGD step that ends a merge-free update rule,
// t1 = s2·b; t2 = s1·t1; dst = a − t2, and returns its four sources.
func isStep(m1, m2, sub *Instr) (a, b, s1, s2 Slot, ok bool) {
	n := sub.Dst.Len
	s2, b, ok1 := scaling(m1, n)
	s1, t1, ok2 := scaling(m2, n)
	ok = ok1 && ok2 && t1 == m1.Dst && sub.Kind == KEW && sub.Op == ASub && sub.B == m2.Dst && sub.A.Len >= n
	return Slot{sub.A.Base, n}, b, s1, s2, ok
}

// stepOp fuses the step at PerTuple[i..i+2] into one loop that reads
// a[j] and b[j] and writes dst[j]. That is the interpreter's arithmetic
// when both temporaries are dead and the loop cannot read what it, or
// either store it skips, wrote: no source in t1 or t2, dst clear of t2,
// and only a — which the interpreter's ew.sub reads as it writes dst,
// element by element, too — on dst; nor may a view be read while dst is
// in the model under it. The merge value is left to the accumulating
// kernels: an ew.sub that produces it lowers as it always has.
func (lw *lowerer) stepOp(i int) (op, bool) {
	p := lw.p
	m1, m2, sub := &p.PerTuple[i], &p.PerTuple[i+1], &p.PerTuple[i+2]
	a, b, s1, s2, ok := isStep(m1, m2, sub)
	t1, t2, dst := m1.Dst, m2.Dst, sub.Dst
	if !ok || overlaps(dst, t2) || overlaps(dst, p.MergeSrc) {
		return op{}, false
	}
	for k, r := range [...]Slot{a, b, s1, s2} {
		if overlaps(r, t1) || overlaps(r, t2) || (k > 0 && overlaps(r, dst)) {
			return op{}, false
		}
	}
	if !p.dead(t1, i, i+2, false) || !p.dead(t2, i+1, i+2, false) {
		return op{}, false
	}
	o := op{
		kind: opStep, alu: ASub, dst: dst.Base, n: dst.Len, reg: -1, src: sub,
		a: lw.operand(a), b: lw.operand(b), s1: lw.operand(s1), s2: lw.operand(s2),
	}
	if overlaps(dst, p.ModelSlot) && (o.a.sp >= spView || o.b.sp >= spView) {
		return op{}, false
	}
	return o, true
}

// accKernel swaps a decoded elementwise op's kernel for its accumulating
// twin, when it has one.
func accKernel(o *op) bool {
	switch {
	case o.kind == opEWsv && o.alu == AMul:
		o.kind = opAccMulSV
	case o.kind == opEWvs && o.alu == AMul: // the compiler commutes a float multiply as it likes
		o.kind, o.a, o.b = opAccMulSV, o.b, o.a
	case o.kind == opEWvv && (o.alu == AAdd || o.alu == ASub || o.alu == AMul):
		o.kind = opAccVV
	default:
		return false
	}
	return true
}

// decode pre-decodes one macro instruction; ok is false for an
// elementwise instruction with nothing to write.
func (lw *lowerer) decode(in *Instr) (op, bool) {
	o := op{alu: in.Op, reg: -1, src: in}
	switch in.Kind {
	case KEW:
		unary := in.Op.IsUnary()
		if in.A.Len <= 0 || (!unary && in.B.Len <= 0) {
			return o, true // opFail
		}
		n := in.Dst.Len
		if n <= 0 {
			return o, false
		}
		o.dst, o.n = in.Dst.Base, n
		a, b := in.A, in.B
		if unary {
			b = a // never read; keeps the operand in range
		}
		aFull, bFull := a.Len >= n, b.Len >= n
		switch {
		case n == 1:
			o.kind, o.a, o.b = opScalar, lw.operand(Slot{a.Base, 1}), lw.operand(Slot{b.Base, 1})
		case unary && aFull:
			o.kind, o.a = opEW1, lw.operand(Slot{a.Base, n})
		case unary:
			o.kind, o.a, o.b = opEWwrap, lw.operand(a), lw.operand(b)
		case aFull && bFull:
			o.kind, o.a, o.b = opEWvv, lw.operand(Slot{a.Base, n}), lw.operand(Slot{b.Base, n})
		// A scalar operand is hoisted out of the loop only when the loop
		// cannot overwrite it; otherwise the wrapped kernel reloads it
		// per element, as the interpreter does.
		case aFull && b.Len == 1 && !overlaps(b, in.Dst):
			o.kind, o.a, o.b = opEWvs, lw.operand(Slot{a.Base, n}), lw.operand(b)
		case a.Len == 1 && bFull && !overlaps(a, in.Dst):
			o.kind, o.a, o.b = opEWsv, lw.operand(a), lw.operand(Slot{b.Base, n})
		default:
			o.kind, o.a, o.b = opEWwrap, lw.operand(a), lw.operand(b)
		}
	case KReduce:
		o.kind, o.dst, o.n = opReduce, in.Dst.Base, in.Dst.Len
		reads, _, _ := lw.p.access(in)
		o.a = lw.operand(reads[0])
		o.group, o.gstride, o.estride = in.GroupSize, in.GStride, in.EStride
	case KGather:
		o.kind, o.dst, o.rowLen, o.rows = opGather, in.Dst.Base, in.RowLen, lw.p.ModelSlot.Len/in.RowLen
		o.a, o.b = lw.operand(Slot{in.A.Base, 1}), lw.operand(lw.p.ModelSlot)
		for r, g := range lw.views[:lw.nviews] {
			if g == in {
				o.kind, o.reg = opGatherView, int8(r)
			}
		}
	case KScatter:
		o.kind, o.dst, o.rowLen, o.rows = opScatter, lw.p.ModelSlot.Base, in.RowLen, lw.p.ModelSlot.Len/in.RowLen
		o.a, o.b = lw.operand(Slot{in.A.Base, in.RowLen}), lw.operand(Slot{in.B.Base, 1})
	}
	return o, true // an unknown Kind stays opFail
}

// pairIndexes lets a scatter reuse the row index its tuple's gather
// already rounded and bounds-checked: same index word, same row length,
// and nothing in between that could rewrite the word. Without a merge
// the two lists run back to back for each tuple, so they pair across.
// Registers below regs belong to the viewing gathers already.
func pairIndexes(p *Program, perTuple, rowUpdates []op, regs int) {
	at := func(i int) *op {
		if i < len(perTuple) {
			return &perTuple[i]
		}
		return &rowUpdates[i-len(perTuple)]
	}
	total := len(perTuple) + len(rowUpdates)
	for si := 0; si < total; si++ {
		sc := at(si)
		if sc.kind != opScatter {
			continue
		}
		word := Slot{sc.src.B.Base, 1}
		for gi := si - 1; gi >= 0; gi-- {
			g := at(gi)
			if _, write, _ := p.access(g.src); overlaps(write, word) {
				break
			}
			// A fused dot or step stands for two or three instructions;
			// the temporaries it elided were dead, and its last
			// instruction's is the write checked above.
			if (g.kind != opGather && g.kind != opGatherView) || g.src.A.Base != word.Base || g.rowLen != sc.rowLen {
				continue
			}
			if g.reg < 0 && regs < maxIdxRegs {
				g.reg = int8(regs)
				regs++
			}
			if g.reg >= 0 {
				sc.kind, sc.reg = opScatterPaired, g.reg
			}
			break
		}
	}
}

// rowSGDOps is how many ops LRMF's row kernel stands for.
const rowSGDOps = 8

// isRowSGD matches a merge-free plan that lowered to exactly LRMF's row
// kernel: view r0, view r1, the dot of the two rows, a scalar, the step
// r0 − s1·(s2·r1), the step r1 − s1′·(s2′·r0), then the paired scatters of
// the first step's destination to r0 and the second's to r1, every vector
// a whole row and every scalar read from memory other than a view (the
// kernel holds the views in locals, so none may be read through the frame).
func isRowSGD(perTuple, rowUpdates []op) bool {
	if len(perTuple) != 6 || len(rowUpdates) != 2 {
		return false
	}
	g0, g1, d, sc, st0, st1 := &perTuple[0], &perTuple[1], &perTuple[2], &perTuple[3], &perTuple[4], &perTuple[5]
	w0, w1 := &rowUpdates[0], &rowUpdates[1]
	n, mdl := g0.rowLen, g0.b
	v0, v1 := operand{spView, 0, n}, operand{spView + 1, 0, n}
	rows := g0.kind == opGatherView && g0.reg == 0 && g1.kind == opGatherView && g1.reg == 1 &&
		g1.rowLen == n && g1.b == mdl && mdl.sp == spThread
	arith := d.kind == opDot && d.a == v0 && d.b == v1 && sc.kind == opScalar &&
		st0.kind == opStep && st0.n == n && st0.a == v0 && st0.b == v1 &&
		st1.kind == opStep && st1.n == n && st1.a == v1 && st1.b == v0
	writes := w0.kind == opScatterPaired && w0.reg == 0 && w0.rowLen == n && w0.dst == mdl.off && w0.a == (operand{spThread, st0.dst, n}) &&
		w1.kind == opScatterPaired && w1.reg == 1 && w1.rowLen == n && w1.dst == mdl.off && w1.a == (operand{spThread, st1.dst, n})
	for _, s := range [...]operand{g0.a, g1.a, sc.a, sc.b, st0.s1, st0.s2, st1.s1, st1.s2} {
		if s.sp >= spView {
			return false
		}
	}
	return rows && arith && writes
}

// fuseRowSGD replaces a plan that is exactly LRMF's row kernel with one op
// standing for its eight: every proof those ops stood on holds for the op
// that does what they did, in their order. The eight stay where lowering
// put them — slab[:8], the per-tuple list first and the row updates
// straight after — and the new op goes past the last list, so the slab
// needs no second allocation. No later op reads a view or an index
// register: the row-update list is empty, Convergence may not read a view.
func (pl *plan) fuseRowSGD(slab []op) []op {
	if !isRowSGD(pl.perTuple, pl.rowUpdates) {
		return slab
	}
	slab = append(slab, op{kind: opRowSGD, reg: -1, parts: (*[rowSGDOps]op)(slab[:rowSGDOps])})
	pl.perTuple, pl.rowUpdates = slab[len(slab)-1:], nil
	return slab
}
