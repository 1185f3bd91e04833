package cost

import (
	"math"
	"testing"
)

// TestChannelPagesPartition: round-robin shares cover every page
// exactly once and differ by at most one page between channels.
func TestChannelPagesPartition(t *testing.T) {
	for _, n := range []int{0, 1, 7, 4924, 4928} {
		for _, c := range []int{1, 2, 3, 4, 8, 32} {
			sum, maxP, minP := 0, 0, n+1
			for ch := 0; ch < c; ch++ {
				k := ChannelPages(n, c, ch)
				sum += k
				if k > maxP {
					maxP = k
				}
				if k < minP {
					minP = k
				}
			}
			if sum != n {
				t.Fatalf("n=%d c=%d: shares sum to %d", n, c, sum)
			}
			if n > 0 && maxP-minP > 1 {
				t.Errorf("n=%d c=%d: share spread %d..%d not balanced", n, c, minP, maxP)
			}
		}
	}
}

// TestTransferMaxOverChannels: the charged epoch transfer equals a
// hand-rolled serial walk over pages in the documented charging order
// (channel = page mod C, channels charged 0..C-1, epoch takes the max).
func TestTransferMaxOverChannels(t *testing.T) {
	w := sampleWorkload()
	p := Default()
	for _, c := range []int{1, 2, 4, 8, 32} {
		p.Link = ChannelModel{Channels: c}
		bytesPerPage := float64(w.DatasetBytes) / float64(w.Pages)
		var worst float64
		for ch := 0; ch < c; ch++ {
			pages := 0
			for pn := 0; pn < w.Pages; pn++ {
				if pn%c == ch {
					pages++
				}
			}
			tt := float64(pages) * bytesPerPage / ChannelBandwidth(p)
			if tt > worst {
				worst = tt
			}
		}
		got := TransferSec(w, p)
		if math.Abs(got-worst)/worst > 1e-12 {
			t.Errorf("channels=%d: TransferSec %v != serial max-over-channels %v", c, got, worst)
		}
	}
}

// TestMoreChannelsNeverSlower: adding channels (same per-channel rate)
// cannot increase any DAnA-path transfer time, and a transfer-bound
// workload eventually becomes compute-bound as the aggregate bandwidth
// reaches the HBM-class regime.
func TestMoreChannelsNeverSlower(t *testing.T) {
	w := sampleWorkload()
	w.DatasetBytes = 2 << 30 // transfer-bound at one channel
	p := Default()
	prev := math.Inf(1)
	for _, c := range []int{1, 2, 4, 8, 16, 32} {
		p.Link.Channels = c
		cur := DAnAPipelineSec(w, p)
		if cur > prev {
			t.Errorf("pipeline time increased at %d channels: %v > %v", c, cur, prev)
		}
		prev = cur
	}
	// 32 channels × 4 GB/s = 128 GB/s aggregate: the engine must be the
	// bottleneck now (compute saturation, the Figure-14 plateau).
	p.Link.Channels = 32
	compute := float64(w.Epochs) * float64(w.EpochCycles) / p.FPGAClockHz
	if got := DAnAPipelineSec(w, p); got != compute {
		t.Errorf("32-channel pipeline %v != compute %v (should saturate)", got, compute)
	}
}

// TestTupleTransferLegacyExpression: tuple granularity folds the
// channel model in, and one channel must reproduce the legacy
// expression exactly.
func TestTupleTransferLegacyExpression(t *testing.T) {
	w := sampleWorkload()
	p := Default()
	legacy := float64(w.Epochs) * float64(w.Tuples) *
		(TupleHandshakeSec + float64(w.DatasetBytes)/float64(w.Tuples)/(p.PCIeBytesPerSec*p.BandwidthScale))
	if got := tupleTransferSec(w, p); got != legacy {
		t.Errorf("tuple-granularity 1-channel transfer %v != legacy %v", got, legacy)
	}
}

// TestWeaveTransferExact: with a weave precision declared, the link
// charges exactly FixedBytes + k×BitBytes per epoch — an == identity,
// not a tolerance — and WeaveBits = 0 keeps the legacy DatasetBytes
// expression bit-for-bit.
func TestWeaveTransferExact(t *testing.T) {
	w := sampleWorkload()
	p := Default()
	legacy := TransferSec(w, p)
	if want := float64(w.DatasetBytes) / ChannelBandwidth(p); legacy != want {
		t.Fatalf("legacy transfer %v != scalar expression %v", legacy, want)
	}
	w.WeaveFixedBytes = 3 << 20
	w.WeaveBitBytes = 9 << 20
	if got := TransferSec(w, p); got != legacy {
		t.Fatalf("WeaveBits=0 must ignore weave bytes: %v != %v", got, legacy)
	}
	for bits := 1; bits <= 32; bits++ {
		w.WeaveBits = bits
		eff := w.WeaveFixedBytes + int64(bits)*w.WeaveBitBytes
		want := float64(eff) / ChannelBandwidth(p)
		if got := TransferSec(w, p); got != want {
			t.Fatalf("bits=%d: TransferSec %v != exact effective-bytes expression %v", bits, got, want)
		}
	}
}

// TestWeaveTransferMonotone: fewer bits can never stream more bytes —
// the MLWeaving bandwidth tradeoff the precision sweep reproduces — on
// one channel and across a multi-channel link alike.
func TestWeaveTransferMonotone(t *testing.T) {
	w := sampleWorkload()
	w.WeaveFixedBytes = 2 << 20
	w.WeaveBitBytes = 5 << 20
	p := Default()
	for _, c := range []int{1, 4} {
		p.Link = ChannelModel{Channels: c}
		prev := math.Inf(1)
		for bits := 32; bits >= 1; bits-- {
			w.WeaveBits = bits
			cur := TransferSec(w, p)
			if cur > prev {
				t.Fatalf("channels=%d bits=%d: transfer %v > %v at %d bits", c, bits, cur, prev, bits+1)
			}
			prev = cur
		}
	}
}
