// helpers.go pins where maporder stops: at the function boundary. A helper
// that sorts its argument satisfies collect-then-sort only when the call is
// sort-shaped (maps.go, localSortHelper); a helper that prints is not seen
// through.
package trace

import (
	"fmt"
	"io"
	"sort"
)

// dedupe sorts internally, but its name gives no hint.
func dedupe(keys []string) []string {
	sort.Strings(keys)
	out := keys[:0]
	for i, k := range keys {
		if i == 0 || keys[i-1] != k {
			out = append(out, k)
		}
	}
	return out
}

func collectThenDedupe(w io.Writer, m map[string]int) {
	var keys []string
	for k := range m {
		keys = append(keys, k) // want `append to keys inside range over map`
	}
	for _, k := range dedupe(keys) {
		fmt.Fprintln(w, k)
	}
}

func emit(w io.Writer, k string) {
	fmt.Fprintln(w, k)
}

// launderedPrint leaks map order through emit and is silent: the exporters'
// byte-identity tests are the gate for this shape.
func launderedPrint(w io.Writer, m map[string]int) {
	for k := range m {
		emit(w, k)
	}
}
