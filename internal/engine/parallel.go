package engine

import "runtime"

// workers is the pool size of the probability step for a batch of n >= 1
// tuples: every result tuple's semimodule expressions compile and evaluate
// independently (they only share the read-only registry), so the tuples
// fan out to min(par, n) goroutines, each tuple compiling on one.
// par <= 0 selects runtime.GOMAXPROCS(0); par == 1 is the sequential path.
func workers(par, n int) int {
	if par <= 0 {
		par = runtime.GOMAXPROCS(0)
	}
	return min(par, n)
}
