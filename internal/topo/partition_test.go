package topo

import "testing"

func TestPartitionBalanceAndContiguity(t *testing.T) {
	for n := 1; n <= 40; n++ {
		for k := 1; k <= 12; k++ {
			assign := Partition(n, k)
			if len(assign) != n {
				t.Fatalf("Partition(%d,%d): %d assignments", n, k, len(assign))
			}
			want := min(k, n)
			sizes := make([]int, want)
			prev := 0
			for i, g := range assign {
				if g < prev || g > prev+1 || g >= want {
					t.Fatalf("Partition(%d,%d): non-contiguous at cell %d: %v", n, k, i, assign)
				}
				sizes[g]++
				prev = g
			}
			lo, hi := n, 0
			for _, s := range sizes {
				lo, hi = min(lo, s), max(hi, s)
			}
			if lo == 0 || hi-lo > 1 {
				t.Fatalf("Partition(%d,%d): group sizes %d..%d, want all %d groups used and balanced", n, k, lo, hi, want)
			}
		}
	}
}

func TestPartitionClampsAndEmpty(t *testing.T) {
	if got := Partition(0, 4); got != nil {
		t.Fatalf("Partition(0,4) = %v, want nil", got)
	}
	if got := Partition(3, 0); len(got) != 3 || got[0] != 0 || got[2] != 0 {
		t.Fatalf("Partition(3,0) = %v, want all zero", got)
	}
	if got := Partition(3, 8); len(got) != 3 || got[0] != 0 || got[1] != 1 || got[2] != 2 {
		t.Fatalf("Partition(3,8) = %v, want one group per cell", got)
	}
}
