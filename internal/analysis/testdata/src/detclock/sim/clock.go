// Package sim is a detclock fixture: its import path ends in /sim, so it
// classifies as a deterministic package and every wall-clock access must be
// flagged.
package sim

import "time"

func wallClock() time.Duration {
	t0 := time.Now()             // want `time\.Now is wall-clock`
	time.Sleep(time.Millisecond) // want `time\.Sleep is wall-clock`
	return time.Since(t0)        // want `time\.Since is wall-clock`
}

func runtimeTimers() {
	_ = time.After(time.Second)  // want `time\.After is wall-clock`
	_ = time.NewTimer(time.Second) // want `time\.NewTimer is wall-clock`
}

// virtualTimeOK shows that pure time.Duration arithmetic and constants are
// never flagged: they carry no ambient state.
func virtualTimeOK(d time.Duration) time.Duration {
	return d + 5*time.Millisecond
}
