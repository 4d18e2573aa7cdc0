package metrics

import "time"

// WindowedMin tracks the minimum of a time series over a sliding window of
// virtual time, using a monotonic deque. CCAs use it for min-RTT filters;
// the Fortune Teller uses the max variant for burst sizing.
type WindowedMin struct {
	window time.Duration
	deque  []timedValue
}

type timedValue struct {
	at time.Duration
	v  float64
}

// NewWindowedMin returns a min filter over the given window.
func NewWindowedMin(window time.Duration) *WindowedMin {
	return &WindowedMin{window: window}
}

// Add records v at virtual time now. Times must be non-decreasing.
func (w *WindowedMin) Add(now time.Duration, v float64) {
	for len(w.deque) > 0 && w.deque[len(w.deque)-1].v >= v {
		w.deque = w.deque[:len(w.deque)-1]
	}
	w.deque = append(w.deque, timedValue{now, v})
	w.expire(now)
}

func (w *WindowedMin) expire(now time.Duration) {
	for len(w.deque) > 0 && now-w.deque[0].at > w.window {
		w.deque = w.deque[1:]
	}
}

// Get returns the window minimum as of now, and false if the window is empty.
func (w *WindowedMin) Get(now time.Duration) (float64, bool) {
	w.expire(now)
	if len(w.deque) == 0 {
		return 0, false
	}
	return w.deque[0].v, true
}

// WindowedMax is the max-filter twin of WindowedMin.
type WindowedMax struct {
	window time.Duration
	deque  []timedValue
}

// NewWindowedMax returns a max filter over the given window.
func NewWindowedMax(window time.Duration) *WindowedMax {
	return &WindowedMax{window: window}
}

// Add records v at virtual time now. Times must be non-decreasing.
func (w *WindowedMax) Add(now time.Duration, v float64) {
	for len(w.deque) > 0 && w.deque[len(w.deque)-1].v <= v {
		w.deque = w.deque[:len(w.deque)-1]
	}
	w.deque = append(w.deque, timedValue{now, v})
	w.expire(now)
}

func (w *WindowedMax) expire(now time.Duration) {
	for len(w.deque) > 0 && now-w.deque[0].at > w.window {
		w.deque = w.deque[1:]
	}
}

// Get returns the window maximum as of now, and false if the window is empty.
func (w *WindowedMax) Get(now time.Duration) (float64, bool) {
	w.expire(now)
	if len(w.deque) == 0 {
		return 0, false
	}
	return w.deque[0].v, true
}

// SlidingSum accumulates (time, value) samples and reports their sum over a
// sliding window. Rate() divides by the window, which is how the Fortune
// Teller measures avg(txRate) and how senders measure delivery rate.
type SlidingSum struct {
	window    time.Duration
	samples   []timedValue
	sum       float64
	firstAt   time.Duration
	haveFirst bool
}

// NewSlidingSum returns a sum/rate tracker over the given window.
func NewSlidingSum(window time.Duration) *SlidingSum {
	return &SlidingSum{window: window}
}

// Window returns the configured window length.
func (s *SlidingSum) Window() time.Duration { return s.window }

// Add records v at virtual time now. Times must be non-decreasing.
func (s *SlidingSum) Add(now time.Duration, v float64) {
	if !s.haveFirst {
		s.firstAt = now
		s.haveFirst = true
	}
	s.samples = append(s.samples, timedValue{now, v})
	s.sum += v
	s.expire(now)
}

func (s *SlidingSum) expire(now time.Duration) {
	i := 0
	for i < len(s.samples) && now-s.samples[i].at > s.window {
		s.sum -= s.samples[i].v
		i++
	}
	if i > 0 {
		s.samples = append(s.samples[:0], s.samples[i:]...)
	}
}

// Sum returns the sum of samples within the window ending at now.
func (s *SlidingSum) Sum(now time.Duration) float64 {
	s.expire(now)
	return s.sum
}

// Rate returns Sum(now) divided by the effective window in units per
// second. Before a full window has elapsed since the first sample, the
// divisor is the elapsed time (floored at window/8) rather than the full
// window, so early estimates are not biased toward zero.
func (s *SlidingSum) Rate(now time.Duration) float64 {
	eff := s.window
	if s.haveFirst {
		if el := now - s.firstAt; el < eff {
			eff = el
		}
	}
	if min := s.window / 8; eff < min {
		eff = min
	}
	return s.Sum(now) / eff.Seconds()
}

// Count returns the number of samples within the window ending at now.
func (s *SlidingSum) Count(now time.Duration) int {
	s.expire(now)
	return len(s.samples)
}

// Mean returns the mean of samples in the window, and false if empty.
func (s *SlidingSum) Mean(now time.Duration) (float64, bool) {
	s.expire(now)
	if len(s.samples) == 0 {
		return 0, false
	}
	return s.sum / float64(len(s.samples)), true
}
