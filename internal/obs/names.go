package obs

import "fmt"

// Canonical instrument names — the counter taxonomy shared by the
// instrumented subsystems, the CLIs, and the CI bench gate. Names are
// dotted `<layer>.<metric>`; layers match package names.
const (
	// Buffer pool (internal/bufpool): PoolHits+PoolMisses equals the
	// number of Pin requests; PoolSweepSteps counts clock-hand
	// advances during eviction (pressure indicator).
	PoolHits       = "bufpool.hits"
	PoolMisses     = "bufpool.misses"
	PoolEvictions  = "bufpool.evictions"
	PoolSweepSteps = "bufpool.sweep_steps"
	PoolBytesRead  = "bufpool.bytes_read"
	PoolIOSeconds  = "bufpool.io_seconds" // float

	// Buffer-pool fault handling: read retries after injected I/O errors
	// or checksum failures, simulated backoff charged between attempts,
	// and the checksum-verification outcome split (verified + skipped ==
	// pool misses; failures count mismatches, including ones a retry
	// later recovered).
	PoolReadRetries      = "bufpool.read_retries"
	PoolBackoffSeconds   = "bufpool.backoff_seconds" // float
	PoolChecksumVerified = "bufpool.checksum_verified"
	PoolChecksumSkipped  = "bufpool.checksum_skipped"
	PoolChecksumFailed   = "bufpool.checksum_failures"

	// Access engine / Striders (internal/accessengine, internal/strider):
	// modeled page-walk activity. StriderCycles is the group-max modeled
	// time (NumStriders pages unpack concurrently); StriderCyclesTotal
	// is the per-Strider sum, so utilization = total/(cycles*striders).
	StriderPages       = "strider.pages_walked"
	StriderTuples      = "strider.tuples_extracted"
	StriderBytes       = "strider.bytes_decoded"
	StriderInstrs      = "strider.vm_instructions"
	StriderCycles      = "strider.cycles"
	StriderCyclesTotal = "strider.cycles_total"

	// Static verification of Strider programs (internal/strider
	// verify.go): one verify run per program built for dispatch; a
	// reject means the program had a definite trap and never reached a
	// Strider, warnings count unprovable properties the VM still
	// guards dynamically.
	StriderVerifyRuns     = "strider.verify_runs"
	StriderVerifyWarnings = "strider.verify_warnings"
	StriderVerifyRejects  = "strider.verify_rejects"

	// Execution engine (internal/engine): the critical-path (span)
	// cycle split. Invariant: EngineCyclesLoad + EngineCyclesCompute +
	// EngineCyclesMerge == EngineCycles, exactly. EngineCyclesIdle is
	// thread-slot idle time inside merge batches (threads*span − work),
	// the Figure 12 utilization complement; it is NOT part of the total.
	EngineCycles        = "engine.cycles"
	EngineCyclesLoad    = "engine.cycles_load"
	EngineCyclesCompute = "engine.cycles_compute"
	EngineCyclesMerge   = "engine.cycles_merge"
	EngineCyclesIdle    = "engine.cycles_idle"
	EngineTuples        = "engine.tuples"
	EngineBatches       = "engine.batches"
	EngineInstrs        = "engine.instructions"

	// Runtime (internal/runtime): host-side execution. Epoch wall time
	// is also observed as histogram HistEpochWallNs; worker busy time
	// sums Strider-extraction nanoseconds across workers, so occupancy
	// = busy / (wall * workers).
	// Runtime fault recovery: page-level extraction retries, Strider
	// workers quarantined, epochs re-run after quarantine, epochs that
	// hit their deadline, and trainings degraded to the CPU path.
	RuntimePageRetries  = "runtime.page_retries"
	RuntimeQuarantines  = "runtime.worker_quarantines"
	RuntimeEpochRetries = "runtime.epoch_retries"
	RuntimeEpochTimeout = "runtime.epoch_timeouts"
	RuntimeCPUFallbacks = "runtime.cpu_fallbacks"
	// RuntimeFailovers counts generic backend failovers (any fallback
	// target); RuntimeCPUFallbacks additionally counts the ones that
	// landed on the CPU backend, preserving the historical name.
	RuntimeFailovers = "runtime.failovers"

	RuntimeEpochs       = "runtime.epochs"
	RuntimeEpochCached  = "runtime.epochs_cached"
	RuntimeCacheHits    = "runtime.record_cache_hits"
	RuntimeCacheMisses  = "runtime.record_cache_misses"
	RuntimeWorkerBusyNs = "runtime.worker_busy_ns"
	RuntimeEpochWallNs  = "runtime.epoch_wall_ns"
	RuntimeTrainWallNs  = "runtime.train_wall_ns"
	RuntimeTrainRuns    = "runtime.train_runs"
	// A Train runs on the backend its UDF's last good Train on the same
	// registration configured (reused) or on a new one (built).
	RuntimeBackendsBuilt  = "runtime.backends_built"
	RuntimeBackendsReused = "runtime.backends_reused"

	// Any-precision weave stage (internal/backend): WeaveBuilds counts
	// row sets woven into pages, WeaveDecodes decode passes over a woven
	// form, WeaveHeldBytes the bytes of woven form published beside a
	// record-cache entry. A Train that only read what an earlier one wove
	// shows decodes and no builds.
	WeaveBuilds    = "weave.builds"
	WeaveDecodes   = "weave.decodes"
	WeaveHeldBytes = "weave.held_bytes"

	// Memory channels (internal/runtime): the modeled per-channel
	// stream split under round-robin page interleaving (page pn streams
	// on channel pn mod Channels — the same policy internal/cost
	// charges). ChannelCount records the configured channel count so
	// consumers know how many channel.<i>.* series exist. Per-channel
	// names are built by ChannelBytesStreamed / ChannelBusyCycles.
	ChannelCount = "channel.count"

	// Histograms.
	HistEpochWallNs = "runtime.epoch_wall_ns.hist"
	HistBatchTuples = "engine.batch_tuples.hist"

	// Trace event names.
	EvTrainStart  = "train.start"     // a=epoch budget, b=tuples/page count
	EvTrainDone   = "train.done"      // a=epochs run, b=engine cycles
	EvEpoch       = "epoch"           // a=epoch index, b=wall ns
	EvEpochCached = "epoch.cached"    // a=epoch index, b=wall ns
	EvPoolInval   = "pool.invalidate" // a=frames dropped

	// Fault-handling trace events.
	EvChecksumFail = "pool.checksum_fail" // a=page, b=attempt
	EvReadRetry    = "pool.read_retry"    // a=page, b=attempt
	EvQuarantine   = "worker.quarantine"  // a=vm index, b=failing page
	EvEpochRetry   = "epoch.retry"        // a=epoch index, b=healthy VMs left
	EvEpochTimeout = "epoch.timeout"      // a=epoch index, b=deadline ns
	EvCPUFallback  = "train.cpu_fallback" // a=epoch degraded at, b=epochs left
	EvFailover     = "train.failover"     // a=epoch degraded at, b=epochs left
)

// ChannelBytesStreamed is the per-channel payload-byte counter name:
// the modeled bytes channel ch streamed to the accelerator. Like every
// instrument, per-channel handles are resolved at setup time only.
func ChannelBytesStreamed(ch int) string {
	return fmt.Sprintf("channel.%d.bytes_streamed", ch)
}

// ChannelBusyCycles is the per-channel busy counter name: the modeled
// Strider cycles spent unpacking the pages interleaved onto channel ch.
// Utilization skew across channels is max(busy)/mean(busy).
func ChannelBusyCycles(ch int) string {
	return fmt.Sprintf("channel.%d.busy_cycles", ch)
}

// Per-tenant metric names (internal/server). The server keeps one
// private obs registry per tenant (attached to that tenant's
// runtime.System) and charges tenant.<name>.<metric> counters in its
// own registry from registry deltas taken around each job, so the
// per-tenant cycle counters sum exactly to the per-tenant registries'
// engine/strider totals even when sessions interleave — `danactl
// sessions` asserts the identity and exits non-zero on violation.
// Handles are resolved once at server construction, like every other
// instrument.
const (
	TenantMetricJobs          = "jobs"
	TenantMetricTrains        = "trains"
	TenantMetricScores        = "scores"
	TenantMetricErrors        = "errors"
	TenantMetricDegraded      = "degraded"
	TenantMetricReuses        = "config_reuses"
	TenantMetricReconfigs     = "reconfigs"
	TenantMetricEngineCycles  = "engine_cycles"
	TenantMetricStriderCycles = "strider_cycles"
	TenantMetricWaitMicros    = "wait_us"
)

// TenantCounter is the per-tenant counter name for one of the
// TenantMetric* metrics: "tenant.<tenant>.<metric>".
func TenantCounter(tenant, metric string) string {
	return "tenant." + tenant + "." + metric
}
