package dana

// The pairing the wall-clock overhead budgets share (observability,
// page checksums): each is "the same Train with a feature on costs < 5 %
// more than with it off", measured on a shared two-core host.

import (
	"sort"
	"testing"
)

// overheadBudget is the extra wall time a guarded feature may cost.
const overheadBudget = 0.05

// requireOverheadBudget fails the test when the feature's on/off
// overhead exceeds overheadBudget in every one of five independent
// measurements. sides builds one measurement's two timers (each returns
// the seconds one timed region took).
//
// A measurement is rounds pairs: each round times the two sides back to
// back, alternating which goes first, and contributes one on/off ratio —
// slow drift (thermal, noisy neighbours) and whatever running second
// costs hit both sides of a pair alike. The median ratio is the verdict:
// one disturbed pair moves it by a rank, not by its size, which comparing
// the two sides' minima (or means) does not give.
//
// On this host the median of nine pairs still strays several per cent
// either way (−7 % … +5 % over 24 measurements on an idle host, −12 % …
// +6 % with other packages' tests running alongside), so one reading
// over budget is not a verdict. A systematic regression shows up in
// every attempt, so a miss is fatal only if it reproduces in all of them.
func requireOverheadBudget(t *testing.T, what string, sides func() (on, off func() float64)) {
	t.Helper()
	const attempts, rounds = 5, 9
	var overhead float64
	for attempt := 0; attempt < attempts; attempt++ {
		// Fresh sides per measurement: where an engine's pages landed is a
		// bias of its own, and attempts that shared a pair would share it.
		on, off := sides()
		ratios := make([]float64, 0, rounds)
		for i := 0; i < rounds; i++ {
			var tOn, tOff float64
			if i%2 == 0 {
				tOn, tOff = on(), off()
			} else {
				tOff, tOn = off(), on()
			}
			ratios = append(ratios, tOn/tOff)
		}
		sort.Float64s(ratios)
		overhead = ratios[rounds/2] - 1
		t.Logf("%s on/off over %d pairs: median %+.2f%%, range %+.2f%% … %+.2f%%",
			what, rounds, 100*overhead, 100*(ratios[0]-1), 100*(ratios[rounds-1]-1))
		if overhead <= overheadBudget {
			return
		}
	}
	t.Fatalf("%s overhead %.2f%% exceeds the %.0f%% budget in %d consecutive measurements",
		what, 100*overhead, 100*overheadBudget, attempts)
}
