package packet

import "testing"

func sampleBlock() ReportBlock {
	return ReportBlock{
		SSRC: 0xabcd, FractionLost: 12, TotalLost: 345,
		HighestSeq: 70000, Jitter: 88, LastSR: 0x11223344, DelaySinceSR: 4096,
	}
}

func TestReceiverReportRoundTrip(t *testing.T) {
	rr := &ReceiverReport{SSRC: 42, Reports: []ReportBlock{sampleBlock(), sampleBlock()}}
	wire := rr.Marshal(nil)
	if len(wire)%4 != 0 {
		t.Errorf("length %d not aligned", len(wire))
	}
	pt, fmtField, length, err := RTCPKind(wire)
	if err != nil || pt != RTCPTypeReceiverReport || fmtField != 2 || length != len(wire) {
		t.Fatalf("kind = %d/%d/%d err=%v", pt, fmtField, length, err)
	}
	out, err := UnmarshalReceiverReport(wire)
	if err != nil {
		t.Fatal(err)
	}
	if out.SSRC != 42 || len(out.Reports) != 2 {
		t.Fatalf("round trip: %+v", out)
	}
	if out.Reports[0] != sampleBlock() {
		t.Errorf("block mismatch: %+v", out.Reports[0])
	}
}

func TestReportsRejectWrongType(t *testing.T) {
	sr := (&ReceiverReport{SSRC: 1}).Marshal(nil)
	sr[1] = RTCPTypeSenderReport
	if _, err := UnmarshalReceiverReport(sr); err == nil {
		t.Error("SR parsed as RR")
	}
	if _, err := UnmarshalReceiverReport([]byte{0x81}); err == nil {
		t.Error("truncated RR accepted")
	}
}
