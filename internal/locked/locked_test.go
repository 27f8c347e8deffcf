package locked

import (
	"sync"
	"testing"
)

func TestDoSerializes(t *testing.T) {
	var v Value[int]
	const goroutines, increments = 8, 1000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < increments; i++ {
				v.Do(func(n *int) { *n++ })
			}
		}()
	}
	wg.Wait()
	var got int
	v.Do(func(n *int) { got = *n })
	if got != goroutines*increments {
		t.Errorf("got %d after %d increments, want %d", got, goroutines*increments, goroutines*increments)
	}
}

// TestDoDoesNotAllocate keeps the wrapper free on the launch path: a
// closure that writes a captured local must not escape.
func TestDoDoesNotAllocate(t *testing.T) {
	var v Value[int]
	allocs := testing.AllocsPerRun(100, func() {
		var seen int
		v.Do(func(n *int) { *n++; seen = *n })
		_ = seen
	})
	if allocs != 0 {
		t.Errorf("Do allocated %v times per call, want 0", allocs)
	}
}
