// Reconfiguration pricing for the multi-tenant accelerator server
// (internal/server). ReProVide-style sequence-aware scheduling keeps an
// accelerator instance's loaded hDFG/Strider configuration resident
// between jobs: a job whose configuration is already loaded pays only a
// cheap handshake, while switching configurations pays the full
// reconfiguration. The scheduler prices the switch amortized over the
// queued jobs that would reuse it, which is what makes "reconfigure now
// for a popular config" and "reuse the loaded config for a near-fair
// tenant" comparable in the same unit (modeled seconds).
package cost

// ReconfigSec is the configuration charge for placing one job on an
// instance: ConfigReuseSec when the instance's loaded configuration
// already matches the job, ReconfigureSec when it must be switched.
func ReconfigSec(p Params, reuse bool) float64 {
	if reuse {
		return p.ConfigReuseSec
	}
	return p.ReconfigureSec
}

// AmortizedReconfigSec prices a configuration switch amortized over its
// beneficiaries: the job that triggers it plus `upcoming` queued jobs
// wanting the same configuration, each of which will reuse the loaded
// state. More queued demand makes the switch proportionally cheaper to
// charge against any single job.
func AmortizedReconfigSec(p Params, upcoming int) float64 {
	if upcoming < 0 {
		upcoming = 0
	}
	return p.ReconfigureSec / float64(1+upcoming)
}

// ServerServiceSec converts a system model's end-to-end time into the
// service time a scheduler should charge on an already-configured
// instance: the per-query SetupSec the DAnA breakdowns include is
// removed, because the server prices configuration explicitly (and
// per placement) through ReconfigSec instead of once per query.
func ServerServiceSec(totalSec float64, p Params) float64 {
	s := totalSec - p.SetupSec
	if s < 0 {
		return 0
	}
	return s
}

// ScoreServiceSec models one batch-scoring pass for the server's
// admission pricing: a single stream of the dataset over the link
// overlapped with one Strider unpacking pass. There is no engine cycle
// model for scoring yet (ROADMAP item 18(c)), so inference is priced as the
// data-movement bound of one epoch with zero training compute.
func ScoreServiceSec(w Workload, p Params) float64 {
	w.Epochs, w.DAnAEpochs, w.EpochCycles = 1, 0, 0
	return DAnAPipelineSec(w, p)
}
