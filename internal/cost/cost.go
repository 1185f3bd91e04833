// Package cost is the unified timing model that converts workload
// parameters, measured accelerator cycle counts, and system constants
// into simulated end-to-end seconds for every system the paper
// evaluates: MADlib+PostgreSQL, MADlib+Greenplum, DAnA (with and
// without Striders), TABLA, and the external libraries (Liblinear,
// DimmWitted).
//
// Absolute times are modeled, not host wall-clock (DESIGN.md); the
// constants below are calibrated so the baseline geomeans land near the
// paper's Table 5, and every figure's *shape* — who wins, by what
// factor, where crossovers fall — derives from the same model the
// simulators feed.
package cost

import "math"

// Params are the environment constants shared by all systems.
type Params struct {
	// CPU (paper: 4-core Intel i7-6700 @ 3.40 GHz).
	CPUClockHz       float64
	CPUFlopsPerCycle float64 // effective MADlib inner-loop throughput

	// MADlib/PostgreSQL per-tuple costs: UDF-call overhead plus
	// per-column tuple deforming, and a small per-page processing cost
	// (buffer lookup, header checks) that the page-size sweep exercises.
	TupleBaseSec    float64
	ColumnDeformSec float64
	PageProcessSec  float64

	// CPU-side tuple extraction for the no-Strider path (raw deform
	// without the UDF aggregate machinery).
	ExtractFraction float64 // fraction of the MADlib per-tuple overhead

	// Storage: the disk the buffer pool reads pages from, and the pool's
	// size, which bufpool.NewSized builds a System's pool from.
	Disk      DiskModel
	PoolBytes int64

	// FPGA link and clock. The link is Channels independent channels
	// (see ChannelModel); BandwidthScale is the Figure 14 multiplier
	// applied to the *per-channel* bandwidth, so the aggregate link rate
	// is Channels × per-channel × scale. The zero-value Link is the
	// legacy single PCIe/AXI channel.
	PCIeBytesPerSec  float64
	BandwidthScale   float64 // Figure 14 multiplier (per channel)
	Link             ChannelModel
	FPGAClockHz      float64
	SetupSec         float64 // bitstream/config/queue setup per query
	EpochDispatchSec float64 // per-epoch scan re-issue/handshake on the DAnA paths

	// Multi-tenant server reconfiguration pricing (reconfig.go):
	// switching an accelerator instance to a different hDFG/Strider
	// configuration costs ReconfigureSec (partial-reconfiguration region
	// load plus Strider program install); reusing the loaded
	// configuration costs only the ConfigReuseSec handshake (model
	// reset, queue re-arm). Both are charged per placement by
	// internal/server instead of the per-query SetupSec.
	ReconfigureSec float64
	ConfigReuseSec float64

	// Greenplum.
	SegmentSyncSec float64 // per-epoch, per-segment coordination cost

	// External libraries.
	ExportBytesPerSec    float64 // COPY TO / result-set serialization
	TransformBytesPerSec float64 // reformat to the library's layout
}

// Default returns the calibrated environment (see EXPERIMENTS.md).
func Default() Params {
	return Params{
		CPUClockHz:           3.4e9,
		CPUFlopsPerCycle:     4,
		TupleBaseSec:         1e-6,
		ColumnDeformSec:      25e-9,
		PageProcessSec:       5e-6,
		ExtractFraction:      0.35,
		Disk:                 DiskModel{SeqReadBytesPerSec: 500e6, ReadLatencySec: 80e-6}, // 256 GB SATA SSD
		PoolBytes:            8 << 30,
		PCIeBytesPerSec:      4e9, // AXI/DMA effective, not raw PCIe
		BandwidthScale:       1,
		FPGAClockHz:          150e6,
		SetupSec:             0.1,
		EpochDispatchSec:     20e-3,
		ReconfigureSec:       80e-3,
		ConfigReuseSec:       2e-3,
		SegmentSyncSec:       2e-3,
		ExportBytesPerSec:    120e6,
		TransformBytesPerSec: 2e9,
	}
}

// Workload carries everything the model needs about one training job.
type Workload struct {
	Tuples        int
	Columns       int // values per tuple (features + label, or 3 for LRMF)
	Epochs        int
	DatasetBytes  int64 // the heap relation, in pages of PageSize bytes
	PageSize      int
	Pages         int // the pages the link streams: the heap's unless weaving
	FlopsPerTuple int
	ModelParams   int

	// DAnAEpochs overrides Epochs on the accelerated paths when > 0:
	// convergence-based termination fires earlier under the merged
	// (1024-tuple) gradient-norm check, which is far less noisy than
	// per-tuple IGD (observed in the paper's S/E rows).
	DAnAEpochs int

	// Weave fields describe the MLWeaving vertical layout. When
	// WeaveBits > 0 the link streams bit planes instead of heap pages:
	// each epoch moves WeaveFixedBytes (headers, ranges, labels — paid at
	// every precision) plus WeaveBits × WeaveBitBytes (one bit level of
	// every feature across the relation), so transfer shrinks almost
	// linearly with precision, and Pages counts the layout's pages.
	// DatasetBytes still describes the heap relation — disk I/O into the
	// buffer pool is unchanged; only the accelerator link reads the
	// rewoven form. WeaveBits == 0 is the full-width float path, charged
	// from DatasetBytes, bit-identical to the pre-weave model.
	WeaveBits       int
	WeaveFixedBytes int64
	WeaveBitBytes   int64

	// Accelerator-side static schedule results (from engine.Estimate
	// and the access engine).
	EpochCycles             int64 // multi-threaded engine cycles per epoch
	SingleThreadEpochCycles int64 // TABLA-style single-thread cycles per epoch
	StriderPageCycles       int64 // strider cycles to unpack one page
	Striders                int
}

// Breakdown splits a system's modeled runtime.
type Breakdown struct {
	IOSec        float64 // disk reads into the buffer pool
	ComputeSec   float64 // ML computation (CPU or FPGA)
	TransferSec  float64 // PCIe/AXI data movement (DAnA)
	FeedSec      float64 // CPU-side tuple extraction feed (no-Strider/TABLA)
	ExportSec    float64 // data export out of the RDBMS (external libraries)
	TransformSec float64 // reformatting for the external library
	OverheadSec  float64 // setup, coordination
	TotalSec     float64
}

func (b *Breakdown) total() Breakdown {
	b.TotalSec = b.IOSec + b.ComputeSec + b.TransferSec + b.FeedSec + b.ExportSec + b.TransformSec + b.OverheadSec
	return *b
}

// DiskModel describes the simulated storage device.
type DiskModel struct {
	SeqReadBytesPerSec float64 // sustained sequential read bandwidth
	ReadLatencySec     float64 // fixed per-request latency
}

// ReadTime returns the simulated seconds to read n bytes in one request.
func (d DiskModel) ReadTime(n int) float64 {
	return d.ReadLatencySec + float64(n)/d.SeqReadBytesPerSec
}

// ioSec prices the run's reads of heap pages into the buffer pool, each
// at Disk.ReadTime of one page, as the pool's clock sweep incurs them. A
// warm pool holds the table's first min(pages, pool pages) pages; a
// sequential scan of a table larger than the pool evicts every page
// before the next epoch reaches it, so each later epoch reads them all.
func ioSec(w Workload, p Params, warm bool) float64 {
	if w.PageSize <= 0 {
		return 0
	}
	pages, frames := int(w.DatasetBytes/int64(w.PageSize)), int(max(1, p.PoolBytes/int64(w.PageSize)))
	reads := pages
	if warm {
		reads -= min(pages, frames)
	}
	if pages > frames {
		reads += (w.Epochs - 1) * pages
	}
	return float64(reads) * p.Disk.ReadTime(w.PageSize)
}

// madlibTupleSec is the per-tuple cost of the MADlib UDF aggregate:
// call/state overhead, tuple deforming, and the update-rule flops.
func madlibTupleSec(w Workload, p Params) float64 {
	overhead := p.TupleBaseSec + float64(float64(w.Columns)*p.ColumnDeformSec)
	flops := float64(w.FlopsPerTuple) / (p.CPUClockHz * p.CPUFlopsPerCycle)
	return overhead + flops
}

// MADlibPostgres models single-threaded MADlib on PostgreSQL.
func MADlibPostgres(w Workload, p Params, warm bool) Breakdown {
	b := Breakdown{
		IOSec: ioSec(w, p, warm),
		ComputeSec: float64(float64(w.Epochs) * (float64(float64(w.Tuples)*madlibTupleSec(w, p)) +
			float64(float64(w.Pages)*p.PageProcessSec))),
	}
	return b.total()
}

// greenplumParallelism is the effective speedup of S segments on the
// 4-core host: limited by cores (with SMT headroom) and degraded by
// inter-segment contention, peaking near 8 segments as in Figure 13.
func greenplumParallelism(segments int) float64 {
	if segments <= 1 {
		return 1
	}
	s := float64(segments)
	// Saturating speedup with contention decline, fitted to Figure 13
	// (peak at 8 segments, ~2.1x over single-threaded PostgreSQL).
	return max(1, 3.56*s/(s+2)-float64(0.094*s))
}

// MADlibGreenplum models MADlib on an S-segment Greenplum.
func MADlibGreenplum(w Workload, p Params, segments int, warm bool) Breakdown {
	par := greenplumParallelism(segments)
	b := Breakdown{
		IOSec:      ioSec(w, p, warm), // the disk is shared
		ComputeSec: float64(w.Epochs) * float64(w.Tuples) * madlibTupleSec(w, p) / par,
		OverheadSec: float64(float64(w.Epochs) * (float64(p.SegmentSyncSec*float64(segments)) +
			float64(w.ModelParams*8*segments)/20e9)), // model exchange over memory
	}
	return b.total()
}

// Terms are one DAnA-path run as Price sees it, in the units the
// hardware counts: what the static schedule predicts (DAnATerms, the
// dispatcher's estimate) or what an executed run's counters read
// (backend.Accel.ModeledSeconds). Both sides price through Price, so an
// estimate and its run can differ only in the terms they pass.
type Terms struct {
	Epochs        int     // epochs run: each pays EpochDispatchSec
	EngineCycles  float64 // execution-engine makespan
	StriderCycles float64 // Strider unpacking, spread over Striders units
	Striders      int     // Strider units unpacking in parallel (< 1 = 1)
	// Link is what the link streams: Link.Epochs passes over Link.Pages
	// pages of linkBytes(Link) bytes, charged by danaTransferSec.
	Link  Workload
	IOSec float64 // disk reads into the buffer pool
}

// Seconds converts the terms' engine, Strider and link charges to
// seconds at p's FPGA clock and link, and returns their interleaving
// (§5.1.1): Striders stream pages over the link while the engine
// computes, so the pipeline takes the slowest of the three.
func (t Terms) Seconds(p Params) (engine, strider, link, pipeline float64) {
	engine = t.EngineCycles / p.FPGAClockHz
	strider = t.StriderCycles / (float64(max(1, t.Striders)) * p.FPGAClockHz)
	link = danaTransferSec(t.Link, p)
	return engine, strider, link, math.Max(engine, math.Max(link, strider))
}

// OverheadSec is a DAnA-path run's fixed charge: setup once, plus the
// scan re-issue and handshake of every epoch run.
func OverheadSec(p Params, epochs int) float64 {
	return p.SetupSec + float64(float64(epochs)*p.EpochDispatchSec)
}

// Price is the one function from a DAnA-path run's terms to its modeled
// time: the pipeline, plus disk I/O (not overlapped, §7.1), plus setup
// and the per-epoch dispatch of every epoch run. The float operations
// run in this one order on both sides, so a run whose terms equal its
// estimate's is priced equal to the bit.
func Price(t Terms, p Params) Breakdown {
	engine, _, link, pipeline := t.Seconds(p)
	b := Breakdown{
		IOSec:       t.IOSec,
		ComputeSec:  engine,
		TransferSec: link,
		OverheadSec: OverheadSec(p, t.Epochs),
	}
	b.TotalSec = b.IOSec + pipeline + b.OverheadSec
	return b
}

// DAnATerms are the terms the static schedule predicts for w: epochs ×
// the engine's per-epoch cycles, every page of every epoch unpacked
// over the design's Striders, the relation streamed once an epoch over
// the link channels (danaTransferSec), and ioSec's disk reads.
func DAnATerms(w Workload, p Params, warm bool) Terms {
	w = withDanaEpochs(w)
	return Terms{
		Epochs:        w.Epochs,
		EngineCycles:  float64(w.Epochs) * float64(w.EpochCycles),
		StriderCycles: float64(w.Epochs) * float64(w.Pages) * float64(w.StriderPageCycles),
		Striders:      w.Striders,
		Link:          w,
		IOSec:         ioSec(w, p, warm),
	}
}

// DAnA models the full system: the predicted terms, priced.
func DAnA(w Workload, p Params, warm bool) Breakdown {
	return Price(DAnATerms(w, p, warm), p)
}

// DAnAPipelineSec returns only the on-FPGA pipeline time (engine,
// transfer, strider overlap) without disk I/O or setup — the "FPGA
// time" Figure 14 sweeps against link bandwidth.
func DAnAPipelineSec(w Workload, p Params) float64 {
	_, _, _, pipeline := DAnATerms(w, p, true).Seconds(p)
	return pipeline
}

// DAnANoStrider models the ablation of Figure 11: the CPU extracts and
// transforms every tuple and ships it to the engine, with no
// page-level overlap — extraction serializes with compute.
func DAnANoStrider(w Workload, p Params, warm bool) Breakdown {
	w = withDanaEpochs(w)
	b := DAnA(w, p, warm)
	feedPerTuple := p.ExtractFraction * (p.TupleBaseSec + float64(float64(w.Columns)*p.ColumnDeformSec))
	b.FeedSec = float64(float64(w.Epochs) * float64(w.Tuples) * feedPerTuple)
	return b.total() // serial: no interleaving to hide anything
}

// TABLA models the TABLA baseline of Figure 16: single-threaded
// acceleration with CPU-side data handoff.
func TABLA(w Workload, p Params, warm bool) Breakdown {
	wt := w
	wt.EpochCycles = w.SingleThreadEpochCycles
	return DAnANoStrider(wt, p, warm)
}

// LibKind selects the external library model.
type LibKind int

const (
	Liblinear LibKind = iota
	DimmWitted
)

// libComputeRatio is the measured multicore compute-throughput ratio of
// each library relative to MADlib+PostgreSQL (paper §7.3, Figure 15b):
// values > 1 mean the library computes faster than in-database IGD;
// SVM values < 1 capture the general convex solvers both libraries use,
// which lose badly to IGD on dense data. These are adopted empirical
// constants — library internals are not reconstructable from the paper.
// NaN marks unsupported algorithms (Liblinear has no linear regression).
var libComputeRatio = map[LibKind]map[string]float64{
	Liblinear:  {"logistic": 3.8, "svm": 1.0 / 18.1, "linear": math.NaN()},
	DimmWitted: {"logistic": 1.8, "svm": 1.0 / 22.3, "linear": 4.3},
}

// ExternalLibrary models Liblinear/DimmWitted: export the table out of
// PostgreSQL (once), transform it to the library's format, then train
// with the library's multicore solver. algo is "linear", "logistic",
// or "svm".
func ExternalLibrary(lib LibKind, algo string, w Workload, p Params) Breakdown {
	b := Breakdown{
		ExportSec:    float64(w.DatasetBytes) / p.ExportBytesPerSec,
		TransformSec: float64(w.DatasetBytes) / p.TransformBytesPerSec,
	}
	ratio := libComputeRatio[lib][algo]
	pgCompute := float64(w.Epochs) * float64(w.Tuples) * madlibTupleSec(w, p)
	b.ComputeSec = pgCompute / ratio
	return b.total()
}

// DAnANoInterleave is the ablation of §5.1.1's pipelining: page
// transfer, Strider unpacking, and engine compute run back to back
// instead of overlapped (everything else identical to DAnA).
func DAnANoInterleave(w Workload, p Params, warm bool) Breakdown {
	t := DAnATerms(w, p, warm)
	_, strider, link, _ := t.Seconds(p)
	b := Price(t, p)
	b.TransferSec = link + strider
	return b.total()
}

// TupleHandshakeSec is the per-tuple DMA descriptor/doorbell latency of
// tuple-granularity transfer (the alternative §5.1.1 argues against).
const TupleHandshakeSec = 1.2e-6

// DAnATupleGranularity is the ablation of page-granularity access:
// each tuple ships as its own small DMA, so transfer is dominated by
// per-transfer latency instead of bandwidth and cannot amortize (the
// tuple stream interleaves round-robin across the link channels).
func DAnATupleGranularity(w Workload, p Params, warm bool) Breakdown {
	w = withDanaEpochs(w)
	b := DAnA(w, p, warm)
	b.TransferSec = tupleTransferSec(w, p)
	// Compute can still overlap the tuple stream.
	b.TotalSec = b.IOSec + math.Max(b.ComputeSec, b.TransferSec) + b.OverheadSec
	return b
}

// withDanaEpochs applies the accelerated-path epoch override.
func withDanaEpochs(w Workload) Workload {
	if w.DAnAEpochs > 0 {
		w.Epochs = w.DAnAEpochs
	}
	return w
}
