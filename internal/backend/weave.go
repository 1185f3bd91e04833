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
// tuples (weaving.ReweaveRows is shared between RunEpoch and
// WeaveReference), so the declared ModelTolerance covers only the
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
// epoch's tuples), the reweaver whose buffers every epoch of the
// configured backend reuses, and the last epoch's decoded rows with the
// holder they were decoded under. The buffers are built by the first
// epoch and dropped by Accel.Close.
type weaveStage struct {
	bits   int
	ranges []storage.WeaveRange
	rw     *weaving.Reweaver
	// rows are rw's decoded rows and from the holder that came with the
	// rows they were decoded from (nil = none lent). The same holder again
	// means the same rows again, so rows are returned as they are.
	rows [][]float32
	from *Held

	// Read-only observability: weaves done, decode passes done, and the
	// bytes of woven form published into lent holders.
	builds, decodes, heldBytes *obs.Counter
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
	ws.decodes = r.Counter(obs.WeaveDecodes)
	ws.heldBytes = r.Counter(obs.WeaveHeldBytes)
}

// requantise returns one epoch's rows rewoven at the configured
// precision; the result is the stage's, valid until the next epoch's
// call. Rows that come with a holder are woven once for as long as the
// holder lives — by whichever Train gets there first — and decoded once
// per configured backend; rows without one are rewoven every epoch.
// Derived ranges are per-column min/max — delivery-order independent — so
// every legal stream form of the same epoch produces bit-identical
// rewoven rows, and therefore bit-identical model state and counters.
func (ws *weaveStage) requantise(rows [][]float32, held *Held) ([][]float32, error) {
	if held != nil && held == ws.from {
		return ws.rows, nil
	}
	if ws.rw == nil {
		rw, err := weaving.NewReweaver(ws.bits, weaveBlockRows)
		if err != nil {
			return nil, err
		}
		ws.rw = rw
	}
	wv, built, err := ws.rw.Weave(rows, ws.ranges, held)
	if err != nil || wv == nil {
		return nil, err
	}
	if built {
		ws.builds.Inc()
		if held != nil {
			ws.heldBytes.Add(int64(wv.Bytes()))
		}
	}
	ws.decodes.Inc()
	ws.ranges = wv.Ranges()
	ws.rows, ws.from = ws.rw.Decode(wv), held
	return ws.rows, nil
}

// drop releases the stage's buffers: the reweaver, the decoded rows and
// the note of where they came from go together, so nothing stale is ever
// returned for a holder seen before.
func (ws *weaveStage) drop() {
	ws.rw, ws.rows, ws.from = nil, nil, nil
}

// WeaveReference is the weave registration's declared reference
// semantics: the golden float64 trainer over the scenario's tuples
// rewoven at the scenario's precision — the same ReweaveRows call
// RunEpoch makes, so backend and reference see identical feature
// values and only datapath width separates them.
func WeaveReference(env Env, sc Scenario) ([]float64, error) {
	rewoven, _, err := weaving.ReweaveRows(sc.Rows32, nil, jobBits(sc.Bits), 0)
	if err != nil {
		return nil, err
	}
	tuples := make([][]float64, len(rewoven))
	for i, r := range rewoven {
		tuples[i] = widen64(r)
	}
	model := append([]float64(nil), sc.Init...)
	if err := sc.Spec.Train(model, tuples); err != nil {
		return nil, err
	}
	return model, nil
}
