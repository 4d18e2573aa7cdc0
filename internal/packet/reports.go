package packet

import (
	"encoding/binary"
	"fmt"
)

// ReportBlock is one RTCP reception report block (RFC 3550 §6.4.1).
type ReportBlock struct {
	SSRC         uint32
	FractionLost uint8
	TotalLost    uint32 // 24-bit on the wire
	HighestSeq   uint32
	Jitter       uint32
	LastSR       uint32
	DelaySinceSR uint32
}

const reportBlockLen = 24

func (rb *ReportBlock) marshal(b []byte) []byte {
	b = binary.BigEndian.AppendUint32(b, rb.SSRC)
	b = append(b, rb.FractionLost)
	b = append(b, byte(rb.TotalLost>>16), byte(rb.TotalLost>>8), byte(rb.TotalLost))
	b = binary.BigEndian.AppendUint32(b, rb.HighestSeq)
	b = binary.BigEndian.AppendUint32(b, rb.Jitter)
	b = binary.BigEndian.AppendUint32(b, rb.LastSR)
	b = binary.BigEndian.AppendUint32(b, rb.DelaySinceSR)
	return b
}

func unmarshalReportBlock(b []byte) ReportBlock {
	return ReportBlock{
		SSRC:         binary.BigEndian.Uint32(b[0:]),
		FractionLost: b[4],
		TotalLost:    uint32(b[5])<<16 | uint32(b[6])<<8 | uint32(b[7]),
		HighestSeq:   binary.BigEndian.Uint32(b[8:]),
		Jitter:       binary.BigEndian.Uint32(b[12:]),
		LastSR:       binary.BigEndian.Uint32(b[16:]),
		DelaySinceSR: binary.BigEndian.Uint32(b[20:]),
	}
}

// ReceiverReport is an RTCP RR (RFC 3550 §6.4.2). The RTP receiver sends
// one periodically; Zhuge's in-band updater forwards it untouched (§5.3).
type ReceiverReport struct {
	SSRC    uint32
	Reports []ReportBlock
}

// Marshal appends the wire form of the report to b.
func (rr *ReceiverReport) Marshal(b []byte) []byte {
	words := 1 + len(rr.Reports)*reportBlockLen/4 // minus the header word
	b = append(b, 2<<6|uint8(len(rr.Reports)), RTCPTypeReceiverReport)
	b = binary.BigEndian.AppendUint16(b, uint16(words))
	b = binary.BigEndian.AppendUint32(b, rr.SSRC)
	for i := range rr.Reports {
		b = rr.Reports[i].marshal(b)
	}
	return b
}

// UnmarshalReceiverReport parses an RTCP RR.
func UnmarshalReceiverReport(b []byte) (*ReceiverReport, error) {
	if len(b) < 8 {
		return nil, ErrTruncated
	}
	if b[0]>>6 != 2 || b[1] != RTCPTypeReceiverReport {
		return nil, fmt.Errorf("packet: not a receiver report")
	}
	count := int(b[0] & 0x1f)
	need := 8 + count*reportBlockLen
	if len(b) < need {
		return nil, ErrTruncated
	}
	rr := &ReceiverReport{SSRC: binary.BigEndian.Uint32(b[4:])}
	for i := 0; i < count; i++ {
		rr.Reports = append(rr.Reports, unmarshalReportBlock(b[8+i*reportBlockLen:]))
	}
	return rr, nil
}
