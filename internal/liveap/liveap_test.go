package liveap

import (
	"net"
	"testing"
	"time"

	"github.com/zhuge-project/zhuge/internal/packet"
)

// startRelay brings up a relay on loopback ephemeral ports with stub
// server/client sockets, returning the relay and both endpoints.
func startRelay(t *testing.T, zhuge bool, rate float64) (*Relay, *net.UDPConn, *net.UDPConn) {
	t.Helper()
	serverSock, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	clientSock, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	r, err := New(Config{
		MediaListen:    "127.0.0.1:0",
		FeedbackListen: "127.0.0.1:0",
		Client:         clientSock.LocalAddr().String(),
		Server:         serverSock.LocalAddr().String(),
		Rate:           rate,
		Zhuge:          zhuge,
		FeedbackEvery:  20 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		r.Close()
		serverSock.Close()
		clientSock.Close()
	})
	return r, serverSock, clientSock
}

func sendRTP(t *testing.T, from *net.UDPConn, to *net.UDPAddr, twccSeq uint16, size int) {
	t.Helper()
	sendRTPFrom(t, 0x1234, from, to, twccSeq, size)
}

func sendRTPFrom(t *testing.T, ssrc uint32, from *net.UDPConn, to *net.UDPAddr, twccSeq uint16, size int) {
	t.Helper()
	hdr := packet.RTPHeader{PayloadType: 96, Seq: twccSeq, SSRC: ssrc, HasTWCC: true, TWCCSeq: twccSeq}
	wire := hdr.Marshal(nil, make([]byte, size))
	if _, err := from.WriteToUDP(wire, to); err != nil {
		t.Fatal(err)
	}
}

func TestRelayForwardsMedia(t *testing.T) {
	r, serverSock, clientSock := startRelay(t, false, 10e6)
	for i := 0; i < 10; i++ {
		sendRTP(t, serverSock, r.MediaAddr(), uint16(i), 500)
	}
	clientSock.SetReadDeadline(time.Now().Add(2 * time.Second))
	buf := make([]byte, 2048)
	got := 0
	for got < 10 {
		n, err := clientSock.Read(buf)
		if err != nil {
			t.Fatalf("received %d/10 packets: %v", got, err)
		}
		var hdr packet.RTPHeader
		if _, err := hdr.Unmarshal(buf[:n]); err != nil {
			t.Fatalf("bad RTP forwarded: %v", err)
		}
		got++
	}
	st := r.Stats()
	if st.MediaIn != 10 || st.MediaOut != 10 {
		t.Errorf("stats %+v, want 10 in / 10 out", st)
	}
}

func TestZhugeRelayBuildsTWCC(t *testing.T) {
	r, serverSock, _ := startRelay(t, true, 10e6)
	for i := 0; i < 20; i++ {
		sendRTP(t, serverSock, r.MediaAddr(), uint16(100+i), 800)
		time.Sleep(2 * time.Millisecond)
	}
	// The AP should construct TWCC feedback and send it to the server.
	serverSock.SetReadDeadline(time.Now().Add(2 * time.Second))
	buf := make([]byte, 2048)
	n, err := serverSock.Read(buf)
	if err != nil {
		t.Fatalf("no AP feedback: %v", err)
	}
	fb, err := packet.UnmarshalTWCC(buf[:n])
	if err != nil {
		t.Fatalf("AP feedback not TWCC: %v", err)
	}
	if fb.MediaSSRC != 0x1234 {
		t.Errorf("feedback SSRC %#x, want 0x1234", fb.MediaSSRC)
	}
	if len(fb.Arrivals()) == 0 {
		t.Error("feedback carries no arrivals")
	}
	if fb.BaseSeq < 100 || fb.BaseSeq > 119 {
		t.Errorf("base seq %d outside sent range", fb.BaseSeq)
	}
}

// TestTwoSSRCsEachGetTheirOwnFeedback sends two senders' media through one
// relay: both cross it, and every message the AP builds covers one SSRC's
// sequence space only - two spaces interleaved in one message would be wrong
// for both senders.
func TestTwoSSRCsEachGetTheirOwnFeedback(t *testing.T) {
	r, serverSock, clientSock := startRelay(t, true, 10e6)
	const each = 15
	base := map[uint32]uint16{0x1234: 100, 0xbeef: 5000}
	for i := 0; i < each; i++ {
		for ssrc, b := range base {
			sendRTPFrom(t, ssrc, serverSock, r.MediaAddr(), b+uint16(i), 300)
		}
		time.Sleep(time.Millisecond)
	}
	clientSock.SetReadDeadline(time.Now().Add(2 * time.Second))
	buf := make([]byte, 2048)
	for got := 0; got < 2*each; got++ {
		if _, err := clientSock.Read(buf); err != nil {
			t.Fatalf("client received %d of %d packets: %v", got, 2*each, err)
		}
	}
	if st := r.Stats(); st.MediaOut != 2*each {
		t.Errorf("stats %+v, want %d forwarded", st, 2*each)
	}
	// Every message, until both flows' last packets have been reported.
	serverSock.SetReadDeadline(time.Now().Add(2 * time.Second))
	covered := map[uint32]int{}
	for covered[0x1234] < each || covered[0xbeef] < each {
		n, err := serverSock.Read(buf)
		if err != nil {
			t.Fatalf("feedback covered %v of %d sequence numbers per SSRC: %v", covered, each, err)
		}
		fb, err := packet.UnmarshalTWCC(buf[:n])
		if err != nil {
			t.Fatalf("AP feedback not TWCC: %v", err)
		}
		b, known := base[fb.MediaSSRC]
		if !known {
			t.Fatalf("feedback for SSRC %#x, sent by nobody", fb.MediaSSRC)
		}
		for _, a := range fb.Arrivals() {
			if a.Seq < b || a.Seq >= b+each {
				t.Fatalf("feedback for SSRC %#x reports sequence %d, outside its %d..%d", fb.MediaSSRC, a.Seq, b, b+each-1)
			}
			covered[fb.MediaSSRC]++
		}
	}
}

func TestZhugeRelayAbsorbsClientTWCC(t *testing.T) {
	r, serverSock, clientSock := startRelay(t, true, 10e6)
	// Client sends one TWCC (must be absorbed) and one NACK (forwarded).
	twcc := packet.BuildTWCC(1, 1, 0, []packet.TWCCArrival{{Seq: 5, At: time.Millisecond}}).Marshal(nil)
	nack := (&packet.NACK{SenderSSRC: 1, MediaSSRC: 1, Lost: []uint16{9}}).Marshal(nil)
	clientSock.WriteToUDP(twcc, r.FeedbackAddr())
	clientSock.WriteToUDP(nack, r.FeedbackAddr())

	serverSock.SetReadDeadline(time.Now().Add(2 * time.Second))
	buf := make([]byte, 2048)
	n, err := serverSock.Read(buf)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := packet.UnmarshalNACK(buf[:n]); err != nil {
		t.Fatalf("expected forwarded NACK, got %x", buf[:n])
	}
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if r.Stats().ClientTWCCDrops == 1 {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if st := r.Stats(); st.ClientTWCCDrops != 1 {
		t.Errorf("client TWCC drops %d, want 1", st.ClientTWCCDrops)
	}
}

func TestRelayShapesRate(t *testing.T) {
	// 20 x 1000B at 1 Mbps should take ~(20*1028*8)/1e6 = ~164ms.
	r, serverSock, clientSock := startRelay(t, false, 1e6)
	start := time.Now()
	for i := 0; i < 20; i++ {
		sendRTP(t, serverSock, r.MediaAddr(), uint16(i), 1000)
	}
	clientSock.SetReadDeadline(time.Now().Add(5 * time.Second))
	buf := make([]byte, 2048)
	for got := 0; got < 20; got++ {
		if _, err := clientSock.Read(buf); err != nil {
			t.Fatalf("got %d/20: %v", got, err)
		}
	}
	elapsed := time.Since(start)
	if elapsed < 100*time.Millisecond {
		t.Errorf("20KB crossed a 1Mbps shaper in %v; shaping absent", elapsed)
	}
}
