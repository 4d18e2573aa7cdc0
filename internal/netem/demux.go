package netem

// Demux is a terminal delivery point: where a packet's simulated life
// ends and an endpoint's logic runs. It fans packets out to registered
// receivers by flow key (optionally reversed, for server-side demuxing of
// uplink traffic), runs delivery taps first, and Releases every packet
// afterwards — endpoints copy what they need; the pooled packet never
// escapes delivery. It refuses a packet released before it arrived.
//
// One Demux instance serves any number of upstream links: the AP downlink
// and every secondary station deliver into the same client demux, so taps
// (metrics, FastAck) observe all air deliveries uniformly.
type Demux struct {
	reverse bool
	dst     map[FlowKey]Receiver
	taps    []func(p *Packet)
}

// NewDemux builds a delivery demux. With reverse set, packets are looked
// up under Flow.Reverse() — the server-side convention, where receivers
// register under their downlink flow but consume uplink packets.
func NewDemux(reverse bool) *Demux {
	return &Demux{reverse: reverse, dst: make(map[FlowKey]Receiver)}
}

// Register binds the receiver for a flow. Registration keys are always
// the downlink flow; a reverse demux translates on receive.
func (d *Demux) Register(flow FlowKey, r Receiver) { d.dst[flow] = r }

// AddTap registers a function invoked on every packet before delivery.
// Taps added after wiring still see all later packets.
func (d *Demux) AddTap(tap func(p *Packet)) { d.taps = append(d.taps, tap) }

// Receive implements Receiver: run taps, deliver, Release.
func (d *Demux) Receive(p *Packet) {
	if p.released {
		heldPanic("netem: released packet handed to ", "netem.Demux")
	}
	for _, tap := range d.taps {
		tap(p)
	}
	key := p.Flow
	if d.reverse {
		key = key.Reverse()
	}
	if dst, ok := d.dst[key]; ok {
		dst.Receive(p)
	}
	p.Release()
}
