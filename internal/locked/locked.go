// Package locked pairs a mutex with the data it guards, so an access
// without the lock does not compile: the value is reachable only
// through Do.
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
