package packet

import (
	"encoding/binary"
	"fmt"
)

// DefaultTWCCExtensionID is the one-byte header-extension ID used for the
// transport-wide sequence number when none is negotiated.
const DefaultTWCCExtensionID = 1

// RTPHeader is an RTP fixed header (RFC 3550) with optional support for the
// transport-wide congestion control sequence-number extension (RFC 5285
// one-byte form). This is all Zhuge reads from a data packet in the in-band
// path: the TWCC sequence number is in the header, so end-to-end payload
// encryption (SRTP) does not hide it (§5.3).
type RTPHeader struct {
	Marker      bool
	PayloadType uint8
	Seq         uint16
	Timestamp   uint32
	SSRC        uint32

	HasTWCC bool
	TWCCSeq uint16
	TWCCID  uint8 // extension ID; 0 means DefaultTWCCExtensionID
}

const rtpFixedLen = 12

// Marshal appends the wire form of h plus payload to b.
func (h *RTPHeader) Marshal(b []byte, payload []byte) []byte {
	first := byte(2 << 6) // version 2
	if h.HasTWCC {
		first |= 1 << 4 // extension bit
	}
	second := h.PayloadType & 0x7f
	if h.Marker {
		second |= 0x80
	}
	b = append(b, first, second)
	b = binary.BigEndian.AppendUint16(b, h.Seq)
	b = binary.BigEndian.AppendUint32(b, h.Timestamp)
	b = binary.BigEndian.AppendUint32(b, h.SSRC)
	if h.HasTWCC {
		id := h.TWCCID
		if id == 0 {
			id = DefaultTWCCExtensionID
		}
		// One-byte header extension, profile 0xBEDE, one element:
		// (id, len=2) transport-wide sequence number, plus one pad byte.
		b = append(b, 0xbe, 0xde, 0x00, 0x01)
		b = append(b, id<<4|(2-1))
		b = binary.BigEndian.AppendUint16(b, h.TWCCSeq)
		b = append(b, 0x00) // padding to 32-bit boundary
	}
	return append(b, payload...)
}

// Unmarshal parses an RTP header from b and returns the payload.
func (h *RTPHeader) Unmarshal(b []byte) (payload []byte, err error) {
	if len(b) < rtpFixedLen {
		return nil, ErrTruncated
	}
	if b[0]>>6 != 2 {
		return nil, ErrBadVersion
	}
	hasExt := b[0]&0x10 != 0
	cc := int(b[0] & 0x0f)
	h.Marker = b[1]&0x80 != 0
	h.PayloadType = b[1] & 0x7f
	h.Seq = binary.BigEndian.Uint16(b[2:])
	h.Timestamp = binary.BigEndian.Uint32(b[4:])
	h.SSRC = binary.BigEndian.Uint32(b[8:])
	off := rtpFixedLen + cc*4
	if len(b) < off {
		return nil, ErrTruncated
	}
	h.HasTWCC = false
	if hasExt {
		if len(b) < off+4 {
			return nil, ErrTruncated
		}
		profile := binary.BigEndian.Uint16(b[off:])
		words := int(binary.BigEndian.Uint16(b[off+2:]))
		extEnd := off + 4 + words*4
		if len(b) < extEnd {
			return nil, ErrTruncated
		}
		if profile == 0xbede {
			h.parseOneByteExtensions(b[off+4 : extEnd])
		}
		off = extEnd
	}
	return b[off:], nil
}

func (h *RTPHeader) parseOneByteExtensions(ext []byte) {
	for i := 0; i < len(ext); {
		if ext[i] == 0 { // padding
			i++
			continue
		}
		id := ext[i] >> 4
		length := int(ext[i]&0x0f) + 1
		i++
		if i+length > len(ext) {
			return
		}
		if length == 2 {
			h.HasTWCC = true
			h.TWCCID = id
			h.TWCCSeq = binary.BigEndian.Uint16(ext[i:])
		}
		i += length
	}
}

// IsRTCP heuristically distinguishes RTCP from RTP in a multiplexed stream
// (RFC 5761): RTCP payload types occupy 200-207 in the second byte.
func IsRTCP(b []byte) bool {
	if len(b) < 2 {
		return false
	}
	pt := b[1] &^ 0x80
	return pt >= 72 && pt <= 79 // 200-207 with the marker bit masked
}

func init() {
	// Compile-time-ish sanity: PT 205 must classify as RTCP.
	if !IsRTCP([]byte{0x80, 205}) {
		panic(fmt.Sprintf("packet: IsRTCP misclassifies PT 205"))
	}
}
