package backend

import (
	"fmt"

	"dana/internal/cost"
	"dana/internal/obs"
	"dana/internal/storage"
	"dana/internal/weaving"
)

// NewWeaveAccel builds the accelerator under the MLWeaving
// any-precision window: tuples are routed through the vertical
// bit-plane layout (internal/storage's WeavePage) and decoded at k bits
// per feature by the internal/weaving extraction engine before feeding
// the same execution-engine simulator. Reading fewer planes streams
// proportionally fewer bytes over the link — the precision-for-bandwidth
// tradeoff the cost model charges through Workload.WeaveBits — at the
// price of quantized features. It is not a second code path: the
// window only switches Accel's requantisation stage on.
//
// Reference semantics: the golden float64 trainer over the *rewoven*
// tuples (backendtest.WeaveReference reweaves them through the same
// weaving.ReweaveRows), so the declared ModelTolerance covers only the
// float32-datapath divergence, at every precision — quantization error
// lives in the reference, not the tolerance.
func NewWeaveAccel(env Env) *Accel {
	return &Accel{env: env, caps: Capabilities{
		Name: NameWeave,
		// LRMF is excluded: the rating schema's integer row/column ids
		// are indices, not magnitudes — quantizing them is meaningless,
		// and storage.CheckWeaveSchema rejects the layout anyway.
		Classes:               []Class{ClassLinear, ClassLogistic, ClassSVM},
		Precision:             PrecisionFloat32,
		DeterministicCounters: true,
		ModelTolerance:        5e-3, // float32 datapath vs float64 golden on rewoven tuples
		MinBits:               1,
		MaxBits:               storage.WeaveMaxBits,
		Streaming:             true,
		Accelerated:           true,
	}}
}

// jobBits resolves a job's effective read precision (0 = full width).
func jobBits(bits int) int {
	if bits == 0 {
		return storage.WeaveMaxBits
	}
	return bits
}

// chargeWeave swaps w's heap-page stream for the job's vertical layout
// — FixedBytes + k×BitBytes a pass, from the exact page geometry — and
// its Strider unpack for the k-bit plane-gather model. EstimateCost and
// ModeledSeconds both price the link through here.
func chargeWeave(w *cost.Workload, job Job) {
	bits := jobBits(job.Bits)
	nfeat := max1(job.Columns - 1)
	pageSize := job.PageSize
	if pageSize <= 0 {
		pageSize = storage.PageSize8K
	}
	g := weaving.RelationGeometry(job.Tuples, nfeat, pageSize)
	w.WeaveBits = bits
	w.WeaveFixedBytes = g.FixedBytes
	w.WeaveBitBytes = g.BitBytes
	w.Pages = g.Pages
	w.StriderPageCycles = weaving.PageDecodeCycles(nfeat, g.PageRows, bits)
}

// weaveBlockRows is the stage's functional page: two plane words of
// rows, whatever the job's modeled geometry. Paging never changes
// decoded values (weaving.ReweaveRows), and the link bytes and decode
// cycles are charged by chargeWeave from weaving.RelationGeometry, never
// from the pages the host happens to build — so the host builds pages
// the 64-row block kernels are efficient on, where the modeled budget
// degenerates to one row a page on wide tables.
const weaveBlockRows = 128

// weaveStage is Accel's requantisation stage: the read precision, the
// quantization ranges (pinned by the program, or derived from the first
// epoch's tuples) and the reweaver whose buffers every epoch without a
// holder reuses — built by the first such epoch, dropped by Accel.Close.
type weaveStage struct {
	bits   int
	ranges []storage.WeaveRange
	rw     *weaving.Reweaver

	// Read-only observability: weaves done (each ends in the one decode
	// pass that fills its rows), and the bytes of decoded rows published
	// into lent holders.
	builds, heldBytes *obs.Counter
}

func newWeaveStage(caps Capabilities, p Program) (weaveStage, error) {
	bits := jobBits(p.Bits)
	if bits < caps.MinBits || bits > caps.MaxBits {
		return weaveStage{}, fmt.Errorf("%w: weave precision %d outside [%d,%d]",
			ErrUnsupported, p.Bits, caps.MinBits, caps.MaxBits)
	}
	ws := weaveStage{bits: bits}
	if len(p.Ranges) > 0 {
		ws.ranges = append([]storage.WeaveRange(nil), p.Ranges...)
	}
	return ws, nil
}

// SetObs resolves the stage's counters.
func (ws *weaveStage) SetObs(r *obs.Registry) {
	ws.builds = r.Counter(obs.WeaveBuilds)
	ws.heldBytes = r.Counter(obs.WeaveHeldBytes)
}

// requantise returns one epoch's rows rewoven at the configured
// precision. Rows that come with a holder are woven and decoded once for
// as long as the holder lives — by whichever Train gets there first — and
// every later epoch, of this Train or another, with the same request gets
// the holder's decoded rows back as they are (read-only: the engine never
// writes its input rows). Rows without one are rewoven every epoch into
// the stage's buffers, valid until the next epoch's call. Derived ranges
// are per-column min/max — delivery-order independent — so every legal
// stream form of the same epoch produces bit-identical rewoven rows, and
// therefore bit-identical model state and counters.
func (ws *weaveStage) requantise(rows [][]float32, held *Held) ([][]float32, error) {
	if held != nil {
		if wv := held.Lookup(ws.bits, ws.ranges); wv != nil {
			ws.ranges = wv.Ranges()
			return wv.Rows(), nil
		}
	}
	if ws.rw == nil {
		rw, err := weaving.NewReweaver(ws.bits, weaveBlockRows)
		if err != nil {
			return nil, err
		}
		ws.rw = rw
	}
	wv, err := ws.rw.Weave(rows, ws.ranges, held)
	if err != nil || wv == nil {
		return nil, err
	}
	ws.builds.Inc()
	if held != nil {
		ws.heldBytes.Add(int64(wv.Bytes()))
	}
	ws.ranges = wv.Ranges()
	return wv.Rows(), nil
}
