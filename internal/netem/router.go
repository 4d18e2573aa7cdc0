package netem

// Router forwards each packet to the next hop registered for its flow key,
// falling back to a default hop. It replaces the hard-coded demux closures
// topologies used to inline: the routing table is first-class state that
// scenario builders populate while wiring and rewrite at runtime — station
// roaming re-points a flow's next hop mid-simulation without touching the
// rest of the topology.
//
// Lookups are O(1) map reads on the datapath; the table is only mutated
// from wiring code and scheduled handover events, never concurrently with
// other simulator work (simulations are single-goroutine).
type Router struct {
	next map[FlowKey]Receiver
	def  Receiver
}

// NewRouter returns a router whose unmatched flows go to def.
func NewRouter(def Receiver) *Router {
	return &Router{next: make(map[FlowKey]Receiver), def: def}
}

// Route binds flow to a next hop, replacing any previous binding.
func (r *Router) Route(flow FlowKey, next Receiver) { r.next[flow] = next }

// Receive implements Receiver.
func (r *Router) Receive(p *Packet) {
	if nh, ok := r.next[p.Flow]; ok {
		nh.Receive(p)
		return
	}
	r.def.Receive(p)
}
