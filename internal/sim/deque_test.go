package sim

import (
	"slices"
	"testing"
)

// TestPropertyDequeMatchesSlice drives a Deque and a plain slice with one
// random sequence of push-backs, pop-fronts and pop-backs, at depths that
// carry the dead prefix past the compaction threshold many times over. After
// every operation both must hold the same items in the same order, and at
// the end the array must be within a constant factor of the deepest the
// queue got: compaction, not growth, is what reclaims the popped slots.
func TestPropertyDequeMatchesSlice(t *testing.T) {
	rng := LabeledRand(7, "deque-property")
	for trial := 0; trial < 50; trial++ {
		var d Deque[int]
		var model []int
		maxDepth := 1 + rng.Intn(3*dequeCompactAt)
		for op, next := 0, 0; op < 4000; op++ {
			switch r := rng.Intn(8); {
			case len(model) < maxDepth && (r < 4 || len(model) == 0):
				d.PushBack(next)
				model = append(model, next)
				next++
			case r < 7:
				if got := d.PopFront(); got != model[0] {
					t.Fatalf("trial %d op %d: PopFront = %d, want %d", trial, op, got, model[0])
				}
				model = model[1:]
			default:
				if got := d.PopBack(); got != model[len(model)-1] {
					t.Fatalf("trial %d op %d: PopBack = %d, want %d", trial, op, got, model[len(model)-1])
				}
				model = model[:len(model)-1]
			}
			if !slices.Equal(d.Items(), model) || d.Len() != len(model) {
				t.Fatalf("trial %d op %d: items %v (Len %d), want %v", trial, op, d.Items(), d.Len(), model)
			}
			if len(model) > 0 && (*d.Front() != model[0] || *d.Back() != model[len(model)-1]) {
				t.Fatalf("trial %d op %d: Front %d, Back %d, want %d, %d", trial, op, *d.Front(), *d.Back(), model[0], model[len(model)-1])
			}
		}
		if bound := 5 * (dequeCompactAt + maxDepth); cap(d.buf) > bound {
			t.Fatalf("trial %d: array of %d slots for a queue never deeper than %d, want at most %d", trial, cap(d.buf), maxDepth, bound)
		}
	}
}
