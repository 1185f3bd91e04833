package accessengine

import (
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"unsafe"
)

// TestArenaAllocNeverOverlaps (run under -race): goroutines racing for a
// slab too small for all of them must never be handed intersecting
// extents. Overflowing reservations are the hazard: one that gives its
// reservation back while another still holds an overflowed offset lets a
// later caller reserve an extent that is already live.
func TestArenaAllocNeverOverlaps(t *testing.T) {
	const (
		slab       = 64
		goroutines = 8
		allocs     = 4
		trials     = 20000
	)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(goroutines))
	a := NewArena(slab)
	base := uintptr(unsafe.Pointer(unsafe.SliceData(a.data)))
	sizes := make([][allocs]int, goroutines)
	got := make([][allocs][]float32, goroutines)
	rng := rand.New(rand.NewSource(1))
	type extent struct{ start, end int }
	// A watcher samples the offset throughout: a reservation that does not
	// fit must never move it past the slab, which is the window the
	// overlap needs (and the one a two-core host can see).
	var stop, outside atomic.Bool
	watched := make(chan struct{})
	go func() {
		defer close(watched)
		for !stop.Load() {
			if a.off.Load() > slab {
				outside.Store(true)
			}
		}
	}()
	defer func() {
		stop.Store(true)
		<-watched
		if outside.Load() {
			t.Errorf("the offset left the %d-value slab", slab)
		}
	}()
	for trial := 0; trial < trials; trial++ {
		a.Reset()
		for g := range sizes {
			for k := range sizes[g] {
				sizes[g][k] = 1 + rng.Intn(16)
			}
		}
		start := make(chan struct{})
		var wg sync.WaitGroup
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				<-start
				for k, n := range sizes[g] {
					got[g][k] = a.Alloc(n)
				}
			}(g)
		}
		close(start)
		wg.Wait()

		var live []extent
		for g := range got {
			for k, ext := range got[g] {
				if len(ext) != 0 || cap(ext) != sizes[g][k] {
					t.Fatalf("trial %d: Alloc(%d) returned len %d cap %d", trial, sizes[g][k], len(ext), cap(ext))
				}
				at := int(uintptr(unsafe.Pointer(unsafe.SliceData(ext)))-base) / 4
				if at >= 0 && at < slab {
					live = append(live, extent{at, at + cap(ext)})
				}
			}
		}
		sort.Slice(live, func(i, j int) bool { return live[i].start < live[j].start })
		for i := 1; i < len(live); i++ {
			if live[i].start < live[i-1].end {
				t.Fatalf("trial %d: extents [%d,%d) and [%d,%d) of the slab overlap",
					trial, live[i-1].start, live[i-1].end, live[i].start, live[i].end)
			}
		}
		if len(live) > 0 && live[len(live)-1].end > slab {
			t.Fatalf("trial %d: extent [%d,%d) runs past the %d-value slab", trial, live[len(live)-1].start, live[len(live)-1].end, slab)
		}
	}
}
