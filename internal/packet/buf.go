package packet

import "sync"

// FeedbackBuf is a pooled byte buffer carrying one marshaled RTCP packet as
// a simulator payload. It implements core.RTCPCarrier (RawRTCP) so senders
// parse it exactly like any other feedback payload, and netem's structural
// payloadReleaser interface (Release) so the buffer returns to its pool at
// the instant the packet carrying it is terminally consumed — the delivery
// demux or a qdisc drop. The pool discipline matches netem.Packet's: after
// the carrying packet's Release, every reference to the buffer (including
// slices of B) is invalid, because the storage may already back a feedback
// packet of another flow or another concurrently running simulation.
type FeedbackBuf struct {
	B []byte

	// released is set by Release and cleared by NewFeedbackBuf, so that a
	// second Release panics instead of pooling one buffer twice.
	released bool
}

var feedbackBufPool = sync.Pool{New: func() any { return new(FeedbackBuf) }}

// NewFeedbackBuf returns an empty buffer from the pool. Append the wire form
// to B (capacity from earlier uses is retained, so steady-state feedback
// construction does not allocate).
func NewFeedbackBuf() *FeedbackBuf {
	b := feedbackBufPool.Get().(*FeedbackBuf)
	b.released = false
	return b
}

// RawRTCP exposes the RTCP bytes (implements core.RTCPCarrier).
func (b *FeedbackBuf) RawRTCP() []byte { return b.B }

// Release returns the buffer to the pool, keeping its storage for reuse.
// Normally invoked by netem.Packet.Release via the payload-releaser hook;
// call it directly only for a buffer that never became a packet payload.
// Releasing a buffer twice would hand it to two owners, and panics.
func (b *FeedbackBuf) Release() {
	if b.released {
		panic("packet: FeedbackBuf released twice")
	}
	b.B = b.B[:0]
	b.released = true
	feedbackBufPool.Put(b)
}
