package scenario

import (
	"context"
	"sync"
)

// Scatter-gather primitives. The shard router distributes one scenario
// request by splitting its cell space into partitions, evaluating each
// partition wherever it likes (locally, or as a sub-request on a
// replica), and merging the per-partition surfaces back into global
// cell order before reducing. Only closed-form grid cells may be split
// freely and re-attempted; a generator block is Monte Carlo, so it is
// one indivisible partition with exactly one attempt — the same rule
// that keeps Monte Carlo out of coalescing, caching and retry.

// Partition is one contiguous cell range of a scenario request.
type Partition struct {
	// Start and Count delimit the global cell range [Start, Start+Count).
	Start, Count int
	// MonteCarlo marks a generator block: never split further, exactly
	// one attempt, no failover.
	MonteCarlo bool
}

// PartitionCells splits the request's cell space for fan-out across n
// workers: the closed-form grid cells into at most n near-even
// contiguous ranges, then each generator block as one atomic Monte
// Carlo partition. The partition list depends only on (request, n), so
// a router and a test partition identically.
func PartitionCells(req *Request, n int) []Partition {
	if n < 1 {
		n = 1
	}
	grid := req.NumGridCells()
	k := n
	if k > grid {
		k = grid
	}
	var parts []Partition
	for i, off := 0, 0; i < k; i++ {
		count := grid / k
		if i < grid%k {
			count++
		}
		parts = append(parts, Partition{Start: off, Count: count})
		off += count
	}
	off := grid
	for i := range req.Generators {
		parts = append(parts, Partition{Start: off, Count: req.Generators[i].Scenarios, MonteCarlo: true})
		off += req.Generators[i].Scenarios
	}
	return parts
}

// Scatter runs fn once per partition on concurrent goroutines and waits
// for all of them. The closure executes concurrently: any RNG stream it
// needs must be derived inside the closure from the partition's cells,
// never captured from the enclosing scope. Errors are collected and the
// first one in partition order (not completion order) is returned, so a
// failed scatter reports deterministically.
func Scatter(ctx context.Context, parts []Partition, fn func(ctx context.Context, p Partition) error) error {
	errs := make([]error, len(parts))
	var wg sync.WaitGroup
	for i := range parts {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = fn(ctx, parts[i])
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
