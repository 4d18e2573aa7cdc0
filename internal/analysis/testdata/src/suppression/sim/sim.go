// Package sim is the stale-suppression-audit fixture: one suppression that
// genuinely covers a finding (kept silent), one that names a live analyzer
// but covers nothing (stale), and one naming an analyzer that does not exist
// (always stale).
package sim

import "time"

// usedSuppression: detclock fires on the line below, the comment eats it,
// and the audit must leave the comment alone.
func usedSuppression() time.Time {
	//lint:ignore detclock fixture: a used suppression the audit must keep
	return time.Now()
}

// staleKnown: nothing on the next line trips detclock any more.
func staleKnown() int {
	//lint:ignore detclock fixture: nothing here reads the clock
	return 42
}

// staleUnknown: the named analyzer does not exist.
func staleUnknown() int {
	//lint:ignore nosuchcheck fixture: unknown analyzer names are always stale
	return 7
}
