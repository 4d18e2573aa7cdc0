package metrics

import (
	"sort"
	"time"

	"github.com/zhuge-project/zhuge/internal/sim"
)

// WindowedFilter tracks the minimum or the maximum of a time series over a
// sliding window of virtual time, using a monotonic deque. CCAs use the min
// filter for min-RTT and the max filter for bottleneck bandwidth; the Fortune
// Teller uses the max filter for burst sizing.
type WindowedFilter struct {
	window time.Duration
	max    bool
	deque  sim.Deque[timedValue]
}

type timedValue struct {
	at time.Duration
	v  float64
}

// NewWindowedMin returns a min filter over the given window.
func NewWindowedMin(window time.Duration) *WindowedFilter {
	return &WindowedFilter{window: window}
}

// NewWindowedMax returns a max filter over the given window.
func NewWindowedMax(window time.Duration) *WindowedFilter {
	return &WindowedFilter{window: window, max: true}
}

// Add records v at virtual time now. Times must be non-decreasing.
func (w *WindowedFilter) Add(now time.Duration, v float64) {
	for w.deque.Len() > 0 && w.dominated(w.deque.Back().v, v) {
		w.deque.PopBack()
	}
	w.deque.PushBack(timedValue{now, v})
	w.expire(now)
}

// dominated reports whether an earlier sample old can no longer be the
// filter's answer once v has arrived: v is as good and outlives it.
func (w *WindowedFilter) dominated(old, v float64) bool {
	if w.max {
		return old <= v
	}
	return old >= v
}

func (w *WindowedFilter) expire(now time.Duration) {
	for w.deque.Len() > 0 && now-w.deque.Front().at > w.window {
		w.deque.PopFront()
	}
}

// Get returns the window minimum (or maximum) as of now, and false if the
// window is empty.
func (w *WindowedFilter) Get(now time.Duration) (float64, bool) {
	w.expire(now)
	if w.deque.Len() == 0 {
		return 0, false
	}
	return w.deque.Front().v, true
}

// Within returns the minimum (or maximum) of the samples recorded at most d
// before now, and false if there are none. Unlike Get it expires nothing:
// it reads the samples the last Add retained, so a d beyond the window
// reads them all. The deque is in time order and its first entry inside d
// is the answer for those samples, so a binary search finds it.
func (w *WindowedFilter) Within(now, d time.Duration) (float64, bool) {
	items := w.deque.Items()
	i := sort.Search(len(items), func(i int) bool { return now-items[i].at <= d })
	if i == len(items) {
		return 0, false
	}
	return items[i].v, true
}

// SlidingSum accumulates (time, value) samples and reports their sum over a
// sliding window. Rate() divides by the window, which is how the Fortune
// Teller measures avg(txRate) and how senders measure delivery rate.
type SlidingSum struct {
	window    time.Duration
	samples   sim.Deque[timedValue]
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
	s.samples.PushBack(timedValue{now, v})
	s.sum += v
	s.expire(now)
}

func (s *SlidingSum) expire(now time.Duration) {
	for s.samples.Len() > 0 && now-s.samples.Front().at > s.window {
		s.sum -= s.samples.PopFront().v
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
	return s.samples.Len()
}

// Mean returns the mean of samples in the window, and false if empty.
func (s *SlidingSum) Mean(now time.Duration) (float64, bool) {
	s.expire(now)
	if s.samples.Len() == 0 {
		return 0, false
	}
	return s.sum / float64(s.samples.Len()), true
}
