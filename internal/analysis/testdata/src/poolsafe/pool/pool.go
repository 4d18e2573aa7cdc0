// Package pool is a poolsafe fixture exercising use-after-Release and
// double-Release detection on every pooled type (*netem.Packet,
// *packet.FeedbackBuf, *rtp.Payload), including the idioms that must stay legal:
// release-then-reassign (the codel drop loop), releases confined to a
// conditional branch, and deferred releases.
package pool

import (
	"github.com/zhuge-project/zhuge/internal/netem"
	"github.com/zhuge-project/zhuge/internal/packet"
	"github.com/zhuge-project/zhuge/internal/transport/rtp"
)

func useAfterRelease() int {
	p := netem.NewPacket()
	p.Size = 100
	p.Release()
	return p.Size // want `use of p after Release`
}

func doubleRelease() {
	p := netem.NewPacket()
	p.Release()
	p.Release() // want `double Release of p`
}

func passAfterRelease(sink func(*netem.Packet)) {
	p := netem.NewPacket()
	p.Release()
	sink(p) // want `use of p after Release`
}

func fieldWriteAfterRelease() {
	p := netem.NewPacket()
	p.Release()
	p.Seq = 7 // want `use of p after Release`
}

// releaseThenRepop mirrors codel's drop-from-front loop: reassigning the
// variable after Release gives the name a fresh packet.
func releaseThenRepop(pkts []*netem.Packet) {
	p := netem.NewPacket()
	p.Release()
	p = pkts[0]
	_ = p.Size
	p.Release()
}

// branchRelease: a release on one conditional path does not poison the
// other path or the code after the branch.
func branchRelease(p *netem.Packet, drop bool) int {
	if drop {
		p.Release()
		return 0
	}
	return p.Size
}

// deferredRelease runs after every use in the function: exempt.
func deferredRelease(p *netem.Packet) int {
	defer p.Release()
	return p.Size
}

// crossIteration: a release in iteration N reaches the use (and the second
// release) in iteration N+1.
func crossIteration(n int) {
	q := netem.NewPacket()
	for i := 0; i < n; i++ {
		_ = q.Size  // want `use of q after Release`
		q.Release() // want `double Release of q`
	}
}

// bufUseAfterRelease: the pooled-type table covers *packet.FeedbackBuf too.
func bufUseAfterRelease() []byte {
	b := packet.NewFeedbackBuf()
	b.B = append(b.B, 1, 2, 3)
	b.Release()
	return b.B // want `use of b after Release`
}

func bufDoubleRelease() {
	b := packet.NewFeedbackBuf()
	b.Release()
	b.Release() // want `double Release of b`
}

// bufAsPayload: handing the buffer to a packet then releasing the packet is
// the normal ownership transfer; the buffer variable itself is not released
// on this path, so later reads stay legal until its own Release.
func bufAsPayload(dst netem.Receiver) {
	b := packet.NewFeedbackBuf()
	p := netem.NewPacket()
	p.Payload = b
	dst.Receive(p)
}

// payloadUseAfterRelease: the table covers *rtp.Payload, the pooled media
// payload, whose stale reads alias another flow's packet.
func payloadUseAfterRelease(pl *rtp.Payload) uint16 {
	pl.Release()
	return pl.RTPSeq // want `use of pl after Release`
}

func payloadDoubleRelease(pl *rtp.Payload) {
	pl.Release()
	pl.Release() // want `double Release of pl`
}

func suppressedUse() int {
	p := netem.NewPacket()
	p.Release()
	//lint:ignore poolsafe fixture exercises the suppression comment
	return p.Size
}
