package engine

import "runtime"

// ParallelOptions configure the worker pool of the probability step:
// every result tuple's semimodule expressions compile and evaluate
// independently (they only share the read-only registry), so the tuples
// of a pvc-table fan out to a bounded pool. Each tuple compiles on one
// goroutine.
type ParallelOptions struct {
	// Parallelism bounds the number of worker goroutines across result
	// tuples. Parallelism <= 0 selects runtime.GOMAXPROCS(0);
	// Parallelism == 1 reproduces the sequential path exactly.
	Parallelism int
}

// workers is the pool size for a batch of n >= 1 tuples:
// min(parallelism, n).
func (o ParallelOptions) workers(n int) int {
	par := o.Parallelism
	if par <= 0 {
		par = runtime.GOMAXPROCS(0)
	}
	return min(par, n)
}
