package packet

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"github.com/zhuge-project/zhuge/internal/netem"
)

func TestRTPRoundTripWithTWCC(t *testing.T) {
	h := RTPHeader{Marker: true, PayloadType: 96, Seq: 4321, Timestamp: 90000, SSRC: 0xdeadbeef, HasTWCC: true, TWCCSeq: 999}
	payload := bytes.Repeat([]byte{0xab}, 100)
	wire := h.Marshal(nil, payload)
	// 12-byte fixed header, 8 bytes of one-byte-header extension carrying
	// the transport-wide sequence number, then the payload.
	if want := 12 + 8 + len(payload); len(wire) != want {
		t.Errorf("marshaled %d bytes, want %d", len(wire), want)
	}
	var out RTPHeader
	got, err := out.Unmarshal(wire)
	if err != nil {
		t.Fatal(err)
	}
	if !out.HasTWCC || out.TWCCSeq != 999 {
		t.Errorf("TWCC ext lost: %+v", out)
	}
	if out.Seq != 4321 || out.SSRC != 0xdeadbeef || !out.Marker || out.PayloadType != 96 {
		t.Errorf("header mismatch: %+v", out)
	}
	if !bytes.Equal(got, payload) {
		t.Error("payload mismatch")
	}
}

func TestRTPWithoutExtension(t *testing.T) {
	h := RTPHeader{PayloadType: 111, Seq: 1, Timestamp: 2, SSRC: 3}
	wire := h.Marshal(nil, []byte{1, 2, 3})
	var out RTPHeader
	got, err := out.Unmarshal(wire)
	if err != nil {
		t.Fatal(err)
	}
	if out.HasTWCC {
		t.Error("spurious TWCC extension")
	}
	if len(got) != 3 {
		t.Errorf("payload len %d", len(got))
	}
}

func TestIsRTCP(t *testing.T) {
	rtp := (&RTPHeader{PayloadType: 96}).Marshal(nil, nil)
	if IsRTCP(rtp) {
		t.Error("RTP classified as RTCP")
	}
	twcc := (&TWCCFeedback{}).Marshal(nil)
	if !IsRTCP(twcc) {
		t.Error("TWCC not classified as RTCP")
	}
}

func TestTWCCBuildAndArrivals(t *testing.T) {
	arrivals := []TWCCArrival{
		{Seq: 100, At: 1*time.Second + 10*time.Millisecond},
		{Seq: 101, At: 1*time.Second + 12*time.Millisecond},
		{Seq: 103, At: 1*time.Second + 30*time.Millisecond}, // 102 lost
		{Seq: 104, At: 1*time.Second + 31*time.Millisecond},
	}
	fb := BuildTWCC(1, 2, 7, arrivals)
	if fb.BaseSeq != 100 || len(fb.Packets) != 5 {
		t.Fatalf("base %d count %d, want 100/5", fb.BaseSeq, len(fb.Packets))
	}
	if fb.Packets[2].Received {
		t.Error("seq 102 should be missing")
	}
	back := fb.Arrivals()
	if len(back) != 4 {
		t.Fatalf("reconstructed %d arrivals, want 4", len(back))
	}
	for i, a := range back {
		if a.Seq != arrivals[i].Seq {
			t.Errorf("arrival %d seq %d, want %d", i, a.Seq, arrivals[i].Seq)
		}
		diff := a.At - arrivals[i].At
		if diff < -time.Millisecond || diff > time.Millisecond {
			t.Errorf("arrival %d time %v, want %v (+-250us quantisation)", i, a.At, arrivals[i].At)
		}
	}
}

func TestTWCCWireRoundTrip(t *testing.T) {
	arrivals := []TWCCArrival{
		{Seq: 65530, At: 500 * time.Millisecond},
		{Seq: 65531, At: 502 * time.Millisecond},
		{Seq: 65535, At: 590 * time.Millisecond},
		{Seq: 0, At: 591 * time.Millisecond}, // wraps
		{Seq: 1, At: 800 * time.Millisecond}, // large delta (209ms)
	}
	fb := BuildTWCC(0x11111111, 0x22222222, 3, arrivals)
	wire := fb.Marshal(nil)
	if len(wire)%4 != 0 {
		t.Errorf("wire length %d not 32-bit aligned", len(wire))
	}
	out, err := UnmarshalTWCC(wire)
	if err != nil {
		t.Fatal(err)
	}
	if out.SenderSSRC != fb.SenderSSRC || out.MediaSSRC != fb.MediaSSRC ||
		out.BaseSeq != fb.BaseSeq || out.FBCount != 3 || out.RefTime != fb.RefTime {
		t.Errorf("header mismatch: %+v vs %+v", out, fb)
	}
	if len(out.Packets) != len(fb.Packets) {
		t.Fatalf("status count %d, want %d", len(out.Packets), len(fb.Packets))
	}
	for i := range fb.Packets {
		if out.Packets[i] != fb.Packets[i] {
			t.Errorf("packet %d: %+v vs %+v", i, out.Packets[i], fb.Packets[i])
		}
	}
}

func TestTWCCLongRunUsesRunLength(t *testing.T) {
	// 100 consecutive received packets with identical small deltas should
	// produce a compact encoding (run-length chunks).
	var arrivals []TWCCArrival
	for i := 0; i < 100; i++ {
		arrivals = append(arrivals, TWCCArrival{Seq: uint16(i), At: time.Duration(i) * time.Millisecond})
	}
	fb := BuildTWCC(1, 2, 0, arrivals)
	wire := fb.Marshal(nil)
	// 16-byte body header + ~2 chunks + 100 one-byte deltas + header.
	if len(wire) > 140 {
		t.Errorf("wire length %d; run-length encoding expected to compress", len(wire))
	}
	out, err := UnmarshalTWCC(wire)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Packets) != 100 {
		t.Fatalf("decoded %d packets", len(out.Packets))
	}
}

func TestPropertyTWCCRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		seq := uint16(rng.Intn(65536))
		at := time.Duration(rng.Intn(1000)) * time.Millisecond
		var arrivals []TWCCArrival
		n := 1 + rng.Intn(60)
		for i := 0; i < n; i++ {
			seq += uint16(1 + rng.Intn(4)) // gaps up to 3
			at += time.Duration(rng.Intn(80)) * time.Millisecond
			arrivals = append(arrivals, TWCCArrival{Seq: seq, At: at})
		}
		fb := BuildTWCC(1, 2, uint8(seed), arrivals)
		out, err := UnmarshalTWCC(fb.Marshal(nil))
		if err != nil {
			return false
		}
		if out.BaseSeq != fb.BaseSeq || len(out.Packets) != len(fb.Packets) {
			return false
		}
		for i := range fb.Packets {
			if out.Packets[i] != fb.Packets[i] {
				return false
			}
		}
		// Arrivals must reconstruct within quantisation error.
		back := out.Arrivals()
		if len(back) != len(arrivals) {
			return false
		}
		for i := range back {
			d := back[i].At - arrivals[i].At
			if d < -time.Millisecond || d > time.Millisecond {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestNACKRoundTrip(t *testing.T) {
	n := &NACK{SenderSSRC: 5, MediaSSRC: 6, Lost: []uint16{100, 101, 105, 300}}
	wire := n.Marshal(nil)
	out, err := UnmarshalNACK(wire)
	if err != nil {
		t.Fatal(err)
	}
	if out.SenderSSRC != 5 || out.MediaSSRC != 6 {
		t.Errorf("ssrc mismatch: %+v", out)
	}
	want := map[uint16]bool{100: true, 101: true, 105: true, 300: true}
	if len(out.Lost) != len(want) {
		t.Fatalf("lost %v, want %v", out.Lost, n.Lost)
	}
	for _, s := range out.Lost {
		if !want[s] {
			t.Errorf("unexpected lost seq %d", s)
		}
	}
}

func TestRTCPKind(t *testing.T) {
	twcc := (&TWCCFeedback{}).Marshal(nil)
	pt, fmtField, length, err := RTCPKind(twcc)
	if err != nil {
		t.Fatal(err)
	}
	if pt != RTCPTypeRTPFB || fmtField != RTPFBTWCC || length != len(twcc) {
		t.Errorf("kind = %d/%d/%d, want 205/15/%d", pt, fmtField, length, len(twcc))
	}
	nack := (&NACK{Lost: []uint16{1}}).Marshal(nil)
	pt, fmtField, _, err = RTCPKind(nack)
	if err != nil {
		t.Fatal(err)
	}
	if pt != RTCPTypeRTPFB || fmtField != RTPFBNack {
		t.Errorf("NACK kind = %d/%d", pt, fmtField)
	}
}

// TestFeedbackBufDoubleReleasePanics: a second Release would recycle one
// buffer twice and hand its bytes to two feedback packets. The flag that
// catches it is cleared by NewFeedback, so recycling stays legal: a
// packet's buffer comes back with it to its Maker, empty, storage kept.
func TestFeedbackBufDoubleReleasePanics(t *testing.T) {
	var m netem.Maker
	first, _ := NewFeedback(&m)
	first.Release()
	for i := 0; i < 100; i++ {
		p, b := NewFeedback(&m)
		if p != first || len(b.B) != 0 {
			t.Fatalf("draw %d: packet %p with %d bytes, want %p back, empty", i, p, len(b.B), first)
		}
		b.B = append(b.B, 1)
		p.Release()
	}
	_, b := NewFeedback(&m)
	if cap(b.B) == 0 {
		t.Fatal("the recycled buffer lost its storage")
	}
	b.Release()
	defer func() {
		if r := recover(); r != "packet: FeedbackBuf released twice" {
			t.Errorf("second Release recovered %v, want the double-release panic", r)
		}
	}()
	b.Release()
}
