package experiments

// Channel sweep: the Figure-14 bandwidth sweep extended along the
// multi-channel axis. Each sweep point models the accelerator link as C
// independent memory channels at a given per-channel BandwidthScale and
// reports the epoch transfer and pipeline times; out at HBM-class
// aggregate bandwidth (32 channels) the pipeline saturates at the compute
// time and more bandwidth stops helping.
//
// The sweep doubles as an executable proof of the charging identities
// the channel model promises: ChannelSweep returns an error (danabench
// exits non-zero) if any point violates them, so a cost-model change
// that breaks the documented serial charging order fails the
// experiment, not just a unit test.

import (
	"fmt"

	"dana/internal/cost"
	"dana/internal/datagen"
)

// ChannelCounts are the sweep's channel-count points: the legacy single
// link, typical DDR configurations, and an HBM-class stack.
var ChannelCounts = []int{1, 4, 8, 32}

// ChannelSweepRow is one (workload, channels, scale) sweep point.
type ChannelSweepRow struct {
	Name        string
	Channels    int
	Scale       float64 // per-channel Figure-14 bandwidth multiplier
	AggregateBW float64 // bytes/sec: Channels × per-channel × scale
	TransferSec float64 // per-epoch max-over-channels stream time
	PipelineSec float64 // modeled FPGA epoch pipeline time
	Speedup     float64 // vs the 1-channel scale-1.0 baseline
	Saturated   bool    // doubling the bandwidth no longer helps
}

// ChannelSweep models the real-dataset workloads over ChannelCounts ×
// BandwidthScales and verifies the charging identities at every point:
//
//  1. aggregate bandwidth is exactly Channels × per-channel;
//  2. the 1-channel model is bit-identical to the legacy scalar
//     BandwidthScale expression (zero-value Link);
//  3. the transfer time equals a serial per-page recomputation in the
//     documented charging order (channels 0..C-1, pages round-robin).
func ChannelSweep(env Env) ([]ChannelSweepRow, error) {
	var rows []ChannelSweepRow
	sawSaturation := false
	for _, w := range datagen.Real() {
		c, err := CompileWorkload(w, env, 0)
		if err != nil {
			return nil, err
		}
		cw := c.CostWorkload(env)
		base := cost.DAnAPipelineSec(cw, env.Cost)
		for _, ch := range ChannelCounts {
			for _, sc := range BandwidthScales {
				p := env.Cost
				p.BandwidthScale = sc
				p.Link.Channels = ch
				if err := checkChannelIdentities(cw, p, env.Cost); err != nil {
					return nil, fmt.Errorf("%s, %d channels, scale %g: %w", w.Name, ch, sc, err)
				}
				pipe := cost.DAnAPipelineSec(cw, p)
				p2 := p
				p2.BandwidthScale = 2 * sc
				sat := cost.DAnAPipelineSec(cw, p2) == pipe
				sawSaturation = sawSaturation || sat
				rows = append(rows, ChannelSweepRow{
					Name:        w.Name,
					Channels:    ch,
					Scale:       sc,
					AggregateBW: cost.AggregateBandwidth(p),
					TransferSec: cost.TransferSec(cw, p),
					PipelineSec: pipe,
					Speedup:     base / pipe,
					Saturated:   sat,
				})
			}
		}
	}
	if !sawSaturation {
		return nil, fmt.Errorf("no sweep point reached compute saturation: the channel model is not scaling aggregate bandwidth")
	}
	return rows, nil
}

// checkChannelIdentities asserts the three charging identities at one
// sweep point, bit-exactly (==, no tolerance).
func checkChannelIdentities(w cost.Workload, p, legacy cost.Params) error {
	// Identity 1: aggregate = channels × per-channel.
	ch := p.Link.Channels
	if ch < 1 {
		ch = 1
	}
	if agg, want := cost.AggregateBandwidth(p), float64(ch)*cost.ChannelBandwidth(p); agg != want {
		return fmt.Errorf("aggregate bandwidth %g != channels × per-channel %g", agg, want)
	}
	// Identity 2: the 1-channel model reproduces the legacy scalar
	// expression bit-for-bit (same BandwidthScale, zero-value Link).
	if ch == 1 {
		lp := legacy
		lp.BandwidthScale = p.BandwidthScale
		lp.Link = cost.ChannelModel{}
		if got, want := cost.DAnAPipelineSec(w, p), cost.DAnAPipelineSec(w, lp); got != want {
			return fmt.Errorf("1-channel pipeline %g != legacy scalar pipeline %g", got, want)
		}
	}
	// Identity 3: serial per-page recomputation. Deal the pages
	// round-robin one at a time (the documented interleaving), then
	// charge channels 0..C-1 in index order with the model's own share
	// expression; the worst channel must equal TransferSec exactly.
	pages := w.Pages
	if pages <= 0 {
		pages = ch
	}
	counts := make([]int, ch)
	for pn := 0; pn < pages; pn++ {
		counts[pn%ch]++
	}
	bw := cost.ChannelBandwidth(p)
	var worst float64
	for c := 0; c < ch; c++ {
		if counts[c] != cost.ChannelPages(pages, ch, c) {
			return fmt.Errorf("channel %d owns %d pages, ChannelPages says %d", c, counts[c], cost.ChannelPages(pages, ch, c))
		}
		share := float64(w.DatasetBytes) * (float64(counts[c]) / float64(pages))
		t := share / bw
		if ch == 1 {
			t = float64(w.DatasetBytes) / bw
		}
		if t > worst {
			worst = t
		}
	}
	if got := cost.TransferSec(w, p); got != worst {
		return fmt.Errorf("transfer %g != serial per-page recomputation %g", got, worst)
	}
	return nil
}
