// Package packet implements the wire formats Zhuge reads and rewrites on a
// real access point: RTP headers with the transport-wide sequence-number
// extension, and the RTCP messages the in-band Feedback Updater parses,
// builds or forwards (TWCC feedback, NACK, receiver reports).
//
// The simulator reuses the typed structures (notably TWCCFeedback) as
// packet payloads so the exact same marshalling code is exercised both by
// the discrete-event experiments and by the live UDP relay in cmd/zhuge-ap.
// Flows are identified by netem.FlowKey, not by parsed IP/UDP/TCP headers:
// the relay owns its sockets and the simulator never serialises below RTP.
package packet

import "errors"

// IP protocol numbers, as netem.FlowKey.Proto carries them.
const (
	ProtoTCP = 6
	ProtoUDP = 17
)

// UDPOverhead is the IPv4 (20) and UDP (8) header bytes around a datagram's
// payload: what a packet's size adds to the RTP or RTCP bytes it carries.
const UDPOverhead = 28

var (
	// ErrTruncated reports a buffer too short for the claimed structure.
	ErrTruncated = errors.New("packet: truncated")
	// ErrBadVersion reports an unexpected protocol version field.
	ErrBadVersion = errors.New("packet: bad version")
)
