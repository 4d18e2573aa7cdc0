package packet

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// TestParsersNeverPanicOnGarbage throws random bytes at every decoder; they
// must return errors, not panic — an AP parses hostile traffic.
func TestParsersNeverPanicOnGarbage(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	decoders := []struct {
		name string
		fn   func([]byte)
	}{
		{"rtp", func(b []byte) { var h RTPHeader; h.Unmarshal(b) }},
		{"twcc", func(b []byte) { UnmarshalTWCC(b) }},
		{"nack", func(b []byte) { UnmarshalNACK(b) }},
		{"rr", func(b []byte) { UnmarshalReceiverReport(b) }},
		{"kind", func(b []byte) { RTCPKind(b) }},
		{"isrtcp", func(b []byte) { IsRTCP(b) }},
	}
	for _, d := range decoders {
		d := d
		t.Run(d.name, func(t *testing.T) {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("%s panicked: %v", d.name, r)
				}
			}()
			for i := 0; i < 2000; i++ {
				n := rng.Intn(128)
				b := make([]byte, n)
				rng.Read(b)
				d.fn(b)
			}
			// Also mutate valid packets: flip bytes in real messages.
			valid := [][]byte{
				(&RTPHeader{PayloadType: 96, HasTWCC: true, TWCCSeq: 5}).Marshal(nil, make([]byte, 40)),
				BuildTWCC(1, 2, 3, []TWCCArrival{{Seq: 9, At: 1e6}, {Seq: 12, At: 2e6}}).Marshal(nil),
				(&NACK{SenderSSRC: 1, MediaSSRC: 2, Lost: []uint16{4, 5}}).Marshal(nil),
				(&ReceiverReport{SSRC: 1, Reports: []ReportBlock{{SSRC: 2}}}).Marshal(nil),
			}
			for i := 0; i < 2000; i++ {
				src := valid[rng.Intn(len(valid))]
				b := append([]byte(nil), src...)
				for k := 0; k < 1+rng.Intn(4); k++ {
					b[rng.Intn(len(b))] ^= byte(1 << rng.Intn(8))
				}
				if rng.Intn(4) == 0 && len(b) > 1 {
					b = b[:rng.Intn(len(b))]
				}
				d.fn(b)
			}
		})
	}
}

// FuzzDecoders is the native fuzzing entry point over every wire decoder:
// none may panic, whatever the bytes. The seed corpus covers each message
// family with a valid instance so the fuzzer starts from structure-aware
// inputs instead of pure noise. CI runs this for a short burst
// (go test -fuzz=Fuzz -fuzztime=10s ./internal/packet/) so the generated
// corpus is actually exercised, not just the fixed seeds.
func FuzzDecoders(f *testing.F) {
	f.Add([]byte{})
	f.Add((&RTPHeader{PayloadType: 96, HasTWCC: true, TWCCSeq: 5}).Marshal(nil, make([]byte, 40)))
	f.Add(BuildTWCC(1, 2, 3, []TWCCArrival{{Seq: 9, At: 1e6}, {Seq: 12, At: 2e6}}).Marshal(nil))
	f.Add((&NACK{SenderSSRC: 1, MediaSSRC: 2, Lost: []uint16{4, 5}}).Marshal(nil))
	f.Add((&ReceiverReport{SSRC: 1, Reports: []ReportBlock{{SSRC: 2}}}).Marshal(nil))
	f.Add((&RTPHeader{Marker: true, PayloadType: 111, Seq: 7}).Marshal(nil, []byte{1, 2, 3}))
	f.Fuzz(func(t *testing.T, b []byte) {
		var rtp RTPHeader
		rtp.Unmarshal(b)
		UnmarshalTWCC(b)
		UnmarshalNACK(b)
		UnmarshalReceiverReport(b)
		RTCPKind(b)
		IsRTCP(b)
	})
}

// TestPropertyTWCCDecodeBounded: whatever the input claims, the decoder
// never allocates unbounded status lists beyond the wire-implied limits.
func TestPropertyTWCCDecodeBounded(t *testing.T) {
	f := func(body []byte) bool {
		fb, err := UnmarshalTWCC(body)
		if err != nil {
			return true
		}
		return len(fb.Packets) <= 1<<16
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}
