// Package video models the RTC application layer: a rate-adaptive frame
// encoder, a decoder that enforces the reference chain, and FrameStats, the
// one recorder of the paper's application metrics — frame delay
// (encode-to-display, Figure 2/11) and per-second frame rate (Figure 22) —
// for every transport: the RTP Decoder and the stream-video application of
// internal/scenario both feed it. No pixels are modelled: only frame sizes,
// timing and decodability matter to the transport.
package video

import (
	"math"
	"math/rand"
	"time"

	"github.com/zhuge-project/zhuge/internal/metrics"
	"github.com/zhuge-project/zhuge/internal/sim"
)

// Frame is one encoded video frame.
type Frame struct {
	ID         uint64
	Size       int // encoded bytes
	Key        bool
	CapturedAt sim.Time
}

// EncoderConfig parameterises the encoder.
type EncoderConfig struct {
	FPS          int     // frames per second (paper: 1080p 24-25 fps)
	StartBitrate float64 // bits per second (paper: ~2 Mbps average)
	KeyInterval  int     // frames per group of pictures; default 48
	KeyScale     float64 // key frame size multiplier; default 3
	SizeJitter   float64 // lognormal sigma of frame size; default 0.15
}

func (c EncoderConfig) withDefaults() EncoderConfig {
	if c.FPS == 0 {
		c.FPS = 24
	}
	if c.KeyInterval == 0 {
		c.KeyInterval = 48
	}
	if c.KeyScale == 0 {
		c.KeyScale = 3
	}
	if c.SizeJitter == 0 {
		c.SizeJitter = 0.15
	}
	return c
}

// Encoder emits frames at a fixed rate whose sizes track a target bitrate.
// The target can change at any time (the CCA drives it); the next frame
// reflects it, modelling WebRTC's per-frame rate adaptation.
type Encoder struct {
	s       *sim.Simulator
	cfg     EncoderConfig
	rng     *rand.Rand
	target  float64
	frameID uint64

	// OnFrame consumes each encoded frame (the transport sender).
	OnFrame func(Frame)

	stopped bool
}

// NewEncoder returns an encoder; call Start to begin producing frames.
func NewEncoder(s *sim.Simulator, cfg EncoderConfig, rng *rand.Rand) *Encoder {
	cfg = cfg.withDefaults()
	return &Encoder{s: s, cfg: cfg, rng: rng, target: cfg.StartBitrate}
}

// SetTargetBitrate updates the encoder's bitrate target in bits per second.
func (e *Encoder) SetTargetBitrate(bps float64) {
	if bps > 0 {
		e.target = bps
	}
}

// Target returns the current target bitrate.
func (e *Encoder) Target() float64 { return e.target }

// Stop halts frame production.
func (e *Encoder) Stop() { e.stopped = true }

// Start schedules frame production until Stop or the end of simulation.
func (e *Encoder) Start() {
	interval := time.Second / time.Duration(e.cfg.FPS)
	var tick func()
	tick = func() {
		if e.stopped {
			return
		}
		e.emit()
		e.s.ScheduleAfter(interval, tick)
	}
	e.s.ScheduleAfter(0, tick)
}

func (e *Encoder) emit() {
	key := e.frameID%uint64(e.cfg.KeyInterval) == 0
	// Budget per frame so that key frames don't inflate the average:
	// with one key of weight K per GOP of N, base = N*rate/fps/(N-1+K).
	n := float64(e.cfg.KeyInterval)
	base := e.target / float64(e.cfg.FPS) / 8 * n / (n - 1 + e.cfg.KeyScale)
	size := base
	if key {
		size *= e.cfg.KeyScale
	}
	size *= math.Exp(e.rng.NormFloat64()*e.cfg.SizeJitter - e.cfg.SizeJitter*e.cfg.SizeJitter/2)
	if size < 200 {
		size = 200
	}
	f := Frame{ID: e.frameID, Size: int(size), Key: key, CapturedAt: e.s.Now()}
	e.frameID++
	if e.OnFrame != nil {
		e.OnFrame(f)
	}
}

// FrameStats records one flow's application metrics: a frame counts when
// the client can display it, whatever transport carried it.
type FrameStats struct {
	// FrameDelay records capture-to-display delay per displayed frame.
	FrameDelay *metrics.Histogram
	// FrameDelaySeries records (display time, delay in ms) per frame, for
	// degradation-duration analysis.
	FrameDelaySeries metrics.Series

	displayed []sim.Time
}

// NewFrameStats returns an empty recorder.
func NewFrameStats() *FrameStats {
	return &FrameStats{FrameDelay: metrics.NewHistogram()}
}

// AddFrame records a frame captured at captured becoming displayable at now.
func (fs *FrameStats) AddFrame(now, captured sim.Time) {
	fs.FrameDelay.Add(now - captured)
	fs.FrameDelaySeries.Add(now, float64((now - captured).Milliseconds()))
	fs.displayed = append(fs.displayed, now)
}

// FrameRateSeries returns the per-second displayed frame rate over [0, total).
func (fs *FrameStats) FrameRateSeries(total time.Duration) *metrics.Series {
	counts := metrics.PerSecondCounts(fs.displayed, total)
	s := &metrics.Series{}
	for i, c := range counts {
		s.Add(time.Duration(i)*time.Second, float64(c))
	}
	return s
}

// LowFrameRateRatio returns the fraction of seconds with fewer than
// threshold displayed frames (the paper uses 10 fps).
func (fs *FrameStats) LowFrameRateRatio(total time.Duration, threshold float64) float64 {
	return fs.FrameRateSeries(total).FractionBelow(threshold)
}

// Decoder enforces the reference chain: a frame decodes when it is complete
// and either it continues the chain (previous frame decoded) or it is a key
// frame, which resets the chain (frames skipped over are lost). Every
// decoded frame goes into the embedded FrameStats.
type Decoder struct {
	*FrameStats

	nextID   uint64
	complete map[uint64]Frame

	// Decoded counts frames decoded; Skipped counts frames abandoned by a
	// key-frame chain reset.
	Decoded int
	Skipped int
}

// NewDecoder returns an empty decoder.
func NewDecoder() *Decoder {
	return &Decoder{FrameStats: NewFrameStats(), complete: make(map[uint64]Frame)}
}

// OnFrameComplete notifies the decoder that all packets of f have arrived.
// It decodes every frame the reference chain now allows.
func (d *Decoder) OnFrameComplete(now sim.Time, f Frame) {
	if f.ID < d.nextID {
		return // stale duplicate
	}
	d.complete[f.ID] = f
	d.drain(now)
}

func (d *Decoder) drain(now sim.Time) {
	for {
		if f, ok := d.complete[d.nextID]; ok {
			d.decode(now, f)
			continue
		}
		// Chain is stuck; a completed key frame further ahead resets it.
		reset, found := uint64(0), false
		for id, f := range d.complete {
			if f.Key && id > d.nextID && (!found || id < reset) {
				reset, found = id, true
			}
		}
		if !found {
			return
		}
		d.Skipped += int(reset - d.nextID)
		for id := d.nextID; id < reset; id++ {
			delete(d.complete, id)
		}
		d.nextID = reset
	}
}

func (d *Decoder) decode(now sim.Time, f Frame) {
	delete(d.complete, f.ID)
	d.nextID = f.ID + 1
	d.Decoded++
	d.AddFrame(now, f.CapturedAt)
}
