package topo

// Partition assigns n cells to k contiguous, balanced groups: assign[i] is
// the group of cell i, groups are numbered 0..k-1 in cell order, and group
// sizes differ by at most one. Contiguity is deliberate — neighbouring
// cells (adjacent APs, the likeliest handover partners) land on the same
// shard, so a balanced contiguous split minimises cut edges for the
// roaming patterns the scenarios generate without needing a general graph
// partitioner. k is clamped to [1, n].
//
// The assignment is a pure function of (n, k): the sharded determinism
// gate relies on the decomposition being identical for every worker count
// and across runs.
func Partition(n, k int) []int {
	if n <= 0 {
		return nil
	}
	if k < 1 {
		k = 1
	}
	if k > n {
		k = n
	}
	assign := make([]int, n)
	for i := range assign {
		// Cell i goes to group floor(i*k/n): each group gets n/k cells,
		// the remainder spread one-per-group from the front.
		assign[i] = i * k / n
	}
	return assign
}
