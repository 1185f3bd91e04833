package cost

// Multi-channel link model. The single PCIe/AXI link of the paper's
// platform generalizes to N independent memory channels — the "High
// Bandwidth Memory on FPGAs" direction — each feeding its own group of
// Striders. Pages interleave round-robin across channels
// (page pn streams on channel pn mod N, the same policy the host
// executor uses to shard its Strider groups), and channels run
// concurrently, so an epoch's transfer time is the *maximum* over
// channels of (that channel's page bytes / per-channel bandwidth).
//
// Charging order is documented and serial: channels are charged in
// index order 0..N-1, each channel's pages in page order; the epoch
// takes the worst channel. The degenerate 1-channel model is, by
// construction, the exact legacy expression DatasetBytes /
// (PCIeBytesPerSec * BandwidthScale) — bit-identical, not just equal
// in the limit — so every pre-channel experiment reproduces.

// ChannelModel describes the accelerator's data link as N independent
// channels, each at Params.PCIeBytesPerSec. The zero value is the legacy
// single link.
type ChannelModel struct {
	// Channels is the number of independent channels (<= 1 models the
	// single legacy link). Aggregate link bandwidth is Channels ×
	// per-channel — the invariant AggregateBandwidth asserts.
	Channels int
}

// channels returns the effective channel count (>= 1).
func (l ChannelModel) channels() int {
	if l.Channels < 1 {
		return 1
	}
	return l.Channels
}

// ChannelBandwidth returns the effective bandwidth of one channel: the
// PCIe rate scaled by the Figure-14 BandwidthScale multiplier (0 =
// unscaled).
func ChannelBandwidth(p Params) float64 {
	if p.BandwidthScale == 0 {
		return p.PCIeBytesPerSec
	}
	return p.PCIeBytesPerSec * p.BandwidthScale
}

// AggregateBandwidth is the total link bandwidth: channels × per-channel.
func AggregateBandwidth(p Params) float64 {
	return float64(p.Link.channels()) * ChannelBandwidth(p)
}

// ChannelPages returns how many of n round-robin-interleaved pages land
// on channel ch of c channels (pages pn with pn ≡ ch mod c).
func ChannelPages(n, c, ch int) int {
	if c < 1 || ch < 0 || ch >= c || n <= 0 {
		return 0
	}
	return (n + c - 1 - ch) / c
}

// linkBytes returns the bytes one epoch streams over the accelerator
// link: the heap relation, or — when the workload declares a weave
// precision — the exact rewoven prefix FixedBytes + k × BitBytes
// (storage.WeaveFixedPageBytes / WeaveBitPageBytes summed by
// weaving.RelationGeometry). The precision-sweep identity tests compare
// this figure with == against the geometry.
func linkBytes(w Workload) int64 {
	if w.WeaveBits > 0 {
		return w.WeaveFixedBytes + int64(w.WeaveBits)*w.WeaveBitBytes
	}
	return w.DatasetBytes
}

// danaTransferSec charges the page-granularity stream of the DAnA paths
// for the whole run: epochs × the per-epoch max-over-channels transfer.
// The arithmetic is structured so one channel reproduces the legacy
// scalar expression epochs*DatasetBytes/(PCIeBytesPerSec*BandwidthScale)
// bit-for-bit (linkBytes is DatasetBytes whenever WeaveBits is 0).
func danaTransferSec(w Workload, p Params) float64 {
	c := p.Link.channels()
	bw := ChannelBandwidth(p)
	bytes := linkBytes(w)
	if c == 1 {
		return float64(w.Epochs) * float64(bytes) / bw
	}
	pages := w.Pages
	if pages <= 0 {
		pages = c // no page count: assume an even byte split
	}
	var worst float64
	for ch := 0; ch < c; ch++ {
		// The channel's byte share is proportional to its page share
		// under round-robin interleaving.
		share := float64(bytes) * (float64(ChannelPages(pages, c, ch)) / float64(pages))
		t := float64(w.Epochs) * share / bw
		if t > worst {
			worst = t
		}
	}
	return worst
}

// TransferSec is the per-epoch transfer time of a dataset over the
// configured link (the danabench channel and precision sweeps).
func TransferSec(w Workload, p Params) float64 {
	we := w
	we.Epochs = 1
	we.DAnAEpochs = 0
	return danaTransferSec(we, p)
}

// tupleTransferSec charges the tuple-granularity ablation: each tuple
// ships as its own DMA; tuples interleave round-robin across channels,
// so the epoch takes the channel with the most tuples. One channel
// reproduces the legacy epochs*Tuples*perTuple expression bit-for-bit.
func tupleTransferSec(w Workload, p Params) float64 {
	c := p.Link.channels()
	bw := ChannelBandwidth(p)
	perTuple := TupleHandshakeSec + float64(w.DatasetBytes)/float64(max(1, w.Tuples))/bw
	tuples := w.Tuples
	if c > 1 {
		tuples = (tuples + c - 1) / c // worst channel: ceil(T/c)
	}
	return float64(w.Epochs) * float64(tuples) * perTuple
}
