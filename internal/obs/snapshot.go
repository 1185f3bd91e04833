package obs

import (
	"encoding/json"
	"fmt"
)

// SnapshotSchema versions the exported JSON shape.
const SnapshotSchema = 1

// Snapshot is a point-in-time JSON-exportable view of a registry. Maps
// marshal with sorted keys (encoding/json sorts map keys), so equal
// registries produce byte-identical exports — the property the CI
// regression gate relies on for the deterministic modeled counters.
type Snapshot struct {
	Schema     int                     `json:"schema"`
	Counters   map[string]int64        `json:"counters,omitempty"`
	Floats     map[string]float64      `json:"floats,omitempty"`
	Histograms map[string]HistSnapshot `json:"histograms,omitempty"`
	Events     []Event                 `json:"events,omitempty"`
}

// Snapshot exports the registry's current state. A nil registry yields
// an empty (but valid, schema-stamped) snapshot.
func (r *Registry) Snapshot() *Snapshot {
	s := &Snapshot{Schema: SnapshotSchema}
	if r == nil {
		return s
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.counters) > 0 {
		s.Counters = make(map[string]int64, len(r.counters))
		for n, c := range r.counters {
			s.Counters[n] = c.Load()
		}
	}
	if len(r.floats) > 0 {
		s.Floats = make(map[string]float64, len(r.floats))
		for n, f := range r.floats {
			s.Floats[n] = f.Load()
		}
	}
	if len(r.hists) > 0 {
		s.Histograms = make(map[string]HistSnapshot, len(r.hists))
		for n, h := range r.hists {
			s.Histograms[n] = h.snapshot()
		}
	}
	s.Events = r.ring.Events()
	return s
}

// MarshalJSON renders the snapshot with deterministic key order.
func (s *Snapshot) MarshalJSON() ([]byte, error) {
	type alias Snapshot // drop the method to avoid recursion
	return json.Marshal((*alias)(s))
}

func bucketLabel(i int) string {
	if i == 0 {
		return "0"
	}
	return fmt.Sprintf("2^%d", i-1)
}
