package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded from bench's own files
// around the layer's public function. Times are nanoseconds since the
// tracer was created.
type span struct {
	ID       int    `json:"id"`
	Parent   int    `json:"parent"` // -1 for a root
	Name     string `json:"name"`
	Layer    string `json:"layer"`
	Workload string `json:"workload"`
	Op       int    `json:"op"`
	Lane     int    `json:"lane"` // 0 = the issuing goroutine; n = replica worker n
	StartNs  int64  `json:"start_ns"`
	EndNs    int64  `json:"end_ns"`
	// Count is the work done inside the span at this boundary (pages,
	// tuples, jobs); 0 when the span name says it all.
	Count int64 `json:"count,omitempty"`
}

// tracer keeps spans in memory; write puts them on disk when the benchmark
// ends. A nil tracer records nothing, which is how the replica runs
// untraced to price the tracing itself.
type tracer struct {
	t0       time.Time
	workload string
	op       int

	mu    sync.Mutex // guards spans: replica workers record on their own lanes
	spans []span
	main  lane
}

// lane is one goroutine's view of the tracer: its own stack of open spans.
// Lane 0 is the goroutine that issues operations. The replica's extraction
// workers get lanes 1..n; their spans overlap lane 0 in time, so the ledger
// counts them as work done and time busy, never as a share of the root.
type lane struct {
	t     *tracer
	n     int
	stack []int
}

func newTracer() *tracer {
	t := &tracer{t0: time.Now()}
	t.main.t = t
	return t
}

// begin opens a span on lane 0 under its innermost open span.
func (t *tracer) begin(layer, name string) int {
	if t == nil {
		return -1
	}
	return t.main.begin(layer, name)
}

// end closes the span begin returned; count is the work it covered.
func (t *tracer) end(id int, count int64) {
	if t != nil {
		t.main.end(id, count)
	}
}

// issuer is lane 0, for code that records on whichever lane it is given.
func (t *tracer) issuer() *lane {
	if t == nil {
		return nil
	}
	return &t.main
}

// worker makes lane n; its outermost spans hang under lane 0's innermost
// open span. A nil tracer gives a nil lane, which records nothing.
func (t *tracer) worker(n int) *lane {
	if t == nil {
		return nil
	}
	return &lane{t: t, n: n, stack: []int{t.main.stack[len(t.main.stack)-1]}}
}

func (l *lane) begin(layer, name string) int {
	if l == nil {
		return -1
	}
	t := l.t
	parent := -1
	if n := len(l.stack); n > 0 {
		parent = l.stack[n-1]
	}
	t.mu.Lock()
	id := len(t.spans)
	t.spans = append(t.spans, span{
		ID: id, Parent: parent, Name: name, Layer: layer,
		Workload: t.workload, Op: t.op, Lane: l.n,
		StartNs: time.Since(t.t0).Nanoseconds(),
	})
	t.mu.Unlock()
	l.stack = append(l.stack, id)
	return id
}

func (l *lane) end(id int, count int64) {
	if l == nil {
		return
	}
	t := l.t
	t.mu.Lock()
	t.spans[id].EndNs = time.Since(t.t0).Nanoseconds()
	t.spans[id].Count = count
	t.mu.Unlock()
	l.stack = l.stack[:len(l.stack)-1]
}

// ledger is the per-layer reading of one workload's spans: a layer's self
// time is its lane-0 spans' duration minus the part their lane-0 child
// spans cover. Worker-lane spans add to the per-name totals only.
type ledger struct {
	rootNs  int64            // total duration of the root spans
	selfNs  map[string]int64 // layer -> self time under the roots
	nameNs  map[string]int64 // span name -> total duration
	nameCnt map[string]int64 // span name -> summed Count
	roots   int
}

// read folds the spans of one workload whose root span is named root.
func (t *tracer) read(workload, root string) ledger {
	l := ledger{selfNs: map[string]int64{}, nameNs: map[string]int64{}, nameCnt: map[string]int64{}}
	childNs := make(map[int]int64)
	inRoot := make(map[int]bool)
	for _, s := range t.spans {
		if s.Workload != workload {
			continue
		}
		if s.Parent < 0 {
			if s.Name != root {
				continue
			}
			l.rootNs += s.EndNs - s.StartNs
			l.roots++
		} else if !inRoot[s.Parent] {
			continue
		}
		inRoot[s.ID] = true // parents precede children in begin order
		if s.Parent >= 0 && s.Lane == 0 {
			childNs[s.Parent] += s.EndNs - s.StartNs
		}
	}
	for _, s := range t.spans {
		if !inRoot[s.ID] {
			continue
		}
		d := s.EndNs - s.StartNs
		if s.Lane == 0 {
			l.selfNs[s.Layer] += d - childNs[s.ID]
		}
		l.nameNs[s.Name] += d
		l.nameCnt[s.Name] += s.Count
	}
	return l
}

// share is a layer's self time as a share of the root spans.
func (l ledger) share(layer string) float64 {
	if l.rootNs == 0 {
		return 0
	}
	return float64(l.selfNs[layer]) / float64(l.rootNs)
}

// coverage is the share of the root spans that some layer's span accounts
// for: everything but the harness's own self time between calls.
func (l ledger) coverage() float64 {
	if l.rootNs == 0 {
		return 0
	}
	return 1 - float64(l.selfNs[layerBench])/float64(l.rootNs)
}

// per divides a span name's total time by its summed count (ns per unit).
func (l ledger) per(name string) float64 {
	if l.nameCnt[name] == 0 {
		return 0
	}
	return float64(l.nameNs[name]) / float64(l.nameCnt[name])
}

// write stores the spans as JSON: {"spans": [...]}; README.md says how to
// read them.
func (t *tracer) write(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(map[string]any{"spans": t.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "trace.json"), data, 0o644)
}
