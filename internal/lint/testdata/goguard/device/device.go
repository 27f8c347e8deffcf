package device

// guarded mirrors the production panic-guard wrapper: it builds the
// protected closure the goroutine must actually invoke.
func guarded(op string, fn func()) func() {
	return func() {
		defer func() { _ = recover() }()
		fn()
	}
}

func work() {}

// spawnGuarded is the contract's shape: wrapper built and invoked.
func spawnGuarded() {
	go guarded("work", work)()
}

// spawnGuardedParen still invokes the wrapper, through parentheses.
func spawnGuardedParen() {
	go (guarded("work", work))()
}

func spawnRaw() {
	go work() // want "must run under the panic guard"
}

func spawnClosure() {
	go func() { work() }() // want "must run under the panic guard"
}

// spawnUninvoked builds the protected closure and discards it: the
// goroutine runs the constructor, never fn under recover.
func spawnUninvoked() {
	go guarded("work", work) // want "spawns the wrapper without invoking it"
}
