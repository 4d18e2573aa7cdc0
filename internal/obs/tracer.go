package obs

import (
	"time"

	"github.com/zhuge-project/zhuge/internal/netem"
	"github.com/zhuge-project/zhuge/internal/sim"
)

// EventType labels one packet-lifecycle event inside the AP datapath.
type EventType uint8

// Packet-lifecycle event types, in the order a downlink packet meets them.
const (
	// EvArrive: a packet of an optimized flow reached the AP (before the
	// Fortune Teller runs). A = 0.
	EvArrive EventType = iota
	// EvPredict: the Fortune Teller produced a prediction. A = predicted
	// total delay in nanoseconds.
	EvPredict
	// EvEnqueue: the qdisc accepted the packet.
	EvEnqueue
	// EvDrop: the packet was dropped — at enqueue (tail drop / AQM
	// overflow, A = 0) or from the front by CoDel's control law (A = 1).
	EvDrop
	// EvDequeue: the wireless driver pulled the packet while assembling an
	// aggregate. A = queue sojourn in nanoseconds.
	EvDequeue
	// EvAggregate: an AMPDU was sealed. Size = aggregate bytes, A = packet
	// count.
	EvAggregate
	// EvAirtime: the aggregate's over-the-air transmission. Dur = airtime;
	// the only span-shaped event.
	EvAirtime
	// EvDeliver: the packet was delivered to its station (802.11 ACK
	// instant). A = AP arrival-to-delivery latency in nanoseconds when the
	// packet carried an AP arrival stamp, else 0.
	EvDeliver
	// EvAckDelay: the out-of-band updater released an ACK. A = extra delay
	// applied in nanoseconds.
	EvAckDelay
	// EvFeedback: the in-band updater constructed a TWCC feedback packet.
	// Size = feedback bytes, A = fortune records included.
	EvFeedback

	numEventTypes
)

var eventTypeNames = [numEventTypes]string{
	"arrive", "predict", "enqueue", "drop", "dequeue",
	"aggregate", "airtime", "deliver", "ack-delay", "feedback",
}

// String returns the wire name used by both export formats.
func (t EventType) String() string {
	if int(t) < len(eventTypeNames) {
		return eventTypeNames[t]
	}
	return "unknown"
}

// component returns the datapath stage an event type belongs to; the Chrome
// exporter uses it as the event category.
func (t EventType) component() string {
	switch t {
	case EvArrive, EvPredict:
		return "fortune-teller"
	case EvEnqueue, EvDrop, EvDequeue:
		return "qdisc"
	case EvAggregate, EvAirtime, EvDeliver:
		return "wireless"
	case EvAckDelay, EvFeedback:
		return "feedback-updater"
	default:
		return "unknown"
	}
}

// Event is one recorded lifecycle event. Fields are scalars only so that
// recording never allocates beyond the tracer's own slice growth.
type Event struct {
	At   sim.Time      // virtual timestamp
	Dur  time.Duration // span length; EvAirtime only
	Type EventType
	Flow netem.FlowKey
	Seq  uint64 // transport-scoped sequence, 0 when unknown
	Size int    // bytes; meaning depends on Type
	A    int64  // type-specific argument, see the EventType docs
}

// Tracer records packet-lifecycle events for one simulation. It is not safe
// for concurrent use; parallel sweeps give each cell its own tracer. A
// disabled tracer is a nil *Tracer: the readers (Len, Events) accept it,
// Record does not.
type Tracer struct {
	events []Event
}

// newTracer returns an empty tracer.
func newTracer() *Tracer {
	return &Tracer{events: make([]Event, 0, 1024)}
}

// Record appends one event. Events must be recorded in non-decreasing
// virtual-time order (they are, when recorded as the simulation runs); the
// exporters rely on it for monotonic output timestamps.
//
// Record needs a live receiver: the caller tests its tracer for nil before
// it builds the Event (see the package comment).
func (t *Tracer) Record(ev Event) {
	t.events = append(t.events, ev)
}

// Len returns the number of recorded events.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	return len(t.events)
}

// Events exposes the recorded events in record order.
func (t *Tracer) Events() []Event {
	if t == nil {
		return nil
	}
	return t.events
}
