package packet

import "github.com/zhuge-project/zhuge/internal/netem"

// FeedbackBuf is a byte buffer carrying one marshaled RTCP packet as a
// simulator payload. It implements core.RTCPCarrier (RawRTCP) so senders
// parse it exactly like any other feedback payload, and netem's structural
// payloadReleaser interface (Release), so it is released at the instant the
// packet carrying it is terminally consumed — the delivery demux or a qdisc
// drop — and comes back with that packet to the netem.Maker of the endpoint
// that built it. After the carrying packet's Release, every reference to the
// buffer (including slices of B) is invalid: the storage may already back
// the endpoint's next feedback packet.
type FeedbackBuf struct {
	B []byte

	// released is set by Release and cleared by NewFeedback, so that a
	// second Release panics instead of recycling one buffer twice.
	released bool
}

// NewFeedback draws a packet from m with an empty buffer for its payload:
// the one the packet carried in its last life, if any, else a new one.
// Append the wire form to B (capacity from earlier uses is retained, so
// steady-state feedback construction does not allocate).
func NewFeedback(m *netem.Maker) (*netem.Packet, *FeedbackBuf) {
	p := m.NewPacket()
	b, _ := p.Payload.(*FeedbackBuf)
	if b == nil {
		b = new(FeedbackBuf)
	}
	b.released = false
	p.Payload = b
	return p, b
}

// RawRTCP exposes the RTCP bytes (implements core.RTCPCarrier).
func (b *FeedbackBuf) RawRTCP() []byte { return b.B }

// Release empties the buffer, keeping its storage for reuse. Normally
// invoked by netem.Packet.Release via the payload-releaser hook. Releasing a
// buffer twice would hand it to two owners, and panics.
func (b *FeedbackBuf) Release() {
	if b.released {
		panic("packet: FeedbackBuf released twice")
	}
	b.B = b.B[:0]
	b.released = true
}
