// Package locked pairs a mutex with the data it guards, so an access
// without the lock does not compile: the value is reachable only
// through Do. Stack, a bounded store of spare storage, is built on
// it.
package locked

import "sync"

// Value is a T guarded by its own mutex. The zero Value holds T's zero
// value, unlocked; a Value must not be copied after first use.
type Value[T any] struct {
	mu sync.Mutex
	v  T
}

// Do runs f with the mutex held, passing the guarded value. f must not
// retain the pointer past its return.
func (l *Value[T]) Do(f func(*T)) {
	l.mu.Lock()
	defer l.mu.Unlock()
	f(&l.v)
}

// Stack is a bounded stack of spare values that goroutines share:
// storage one user gives back for the next to re-arm instead of
// building. Each value is given with a size, and the stack holds values
// only while their sizes sum to at most the budget Give names. The zero
// Stack is empty.
type Stack[T any] struct {
	free Value[spares[T]]
}

// spares is a Stack's content: its values, each with its size, and the
// sum of the sizes.
type spares[T any] struct {
	vals []sized[T]
	held int
}

type sized[T any] struct {
	v    T
	size int
}

// Take pops the most recently given value; ok is false when the stack
// is empty.
func (s *Stack[T]) Take() (v T, ok bool) {
	s.free.Do(func(st *spares[T]) {
		if n := len(st.vals); n > 0 {
			top := st.vals[n-1]
			st.vals[n-1], st.vals, st.held = sized[T]{}, st.vals[:n-1], st.held-top.size
			v, ok = top.v, true
		}
	})
	return v, ok
}

// Give pushes v, of the given size, unless the stack would then hold
// more than budget: then v is dropped, and goes with its last reference.
func (s *Stack[T]) Give(v T, size, budget int) {
	s.free.Do(func(st *spares[T]) {
		if st.held+size <= budget {
			st.vals, st.held = append(st.vals, sized[T]{v, size}), st.held+size
		}
	})
}
