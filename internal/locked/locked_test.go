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

// TestStackBound: Give keeps a value only while the sizes held stay
// within its budget, Take pops the last kept first, frees its size and
// reports an empty stack.
func TestStackBound(t *testing.T) {
	var s Stack[int]
	for v := 1; v <= 3; v++ {
		s.Give(v, v, 4) // 3 would make 6
	}
	s.Give(4, 1, 4)
	for _, want := range []int{4, 2, 1} {
		if v, ok := s.Take(); !ok || v != want {
			t.Errorf("Take() = %d, %v, want %d, true", v, ok, want)
		}
	}
	if v, ok := s.Take(); ok {
		t.Errorf("Take() on an empty stack = %d, true", v)
	}
	s.Give(5, 4, 4) // the pops freed the budget
	if v, ok := s.Take(); !ok || v != 5 {
		t.Errorf("after emptying, Take() = %d, %v, want 5, true", v, ok)
	}
}
