package arch

// SetChunk sets the kernel's chunk size for external tests.
func SetChunk(e *NFAEngine, n int) { e.chunk = n }
