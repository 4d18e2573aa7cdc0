package video

import (
	"testing"
	"time"

	"github.com/zhuge-project/zhuge/internal/sim"
)

func TestEncoderRateAndCadence(t *testing.T) {
	s := sim.New(1)
	e := NewEncoder(s, EncoderConfig{FPS: 24, StartBitrate: 2e6}, s.NewRand("enc"))
	var frames []Frame
	e.OnFrame = func(f Frame) { frames = append(frames, f) }
	e.Start()
	s.RunUntil(10 * time.Second)
	if len(frames) < 239 || len(frames) > 241 {
		t.Fatalf("frames in 10s: %d, want ~240", len(frames))
	}
	total := 0
	for _, f := range frames {
		total += f.Size
	}
	rate := float64(total*8) / 10
	if rate < 1.6e6 || rate > 2.4e6 {
		t.Errorf("encoded rate %.0f, want ~2e6", rate)
	}
}

func TestEncoderKeyFrames(t *testing.T) {
	s := sim.New(1)
	e := NewEncoder(s, EncoderConfig{FPS: 24, StartBitrate: 2e6, KeyInterval: 48}, s.NewRand("enc"))
	var frames []Frame
	e.OnFrame = func(f Frame) { frames = append(frames, f) }
	e.Start()
	s.RunUntil(4 * time.Second)
	keySizes, pSizes := 0.0, 0.0
	keyN, pN := 0, 0
	for i, f := range frames {
		wantKey := i%48 == 0
		if f.Key != wantKey {
			t.Fatalf("frame %d key=%v, want %v", i, f.Key, wantKey)
		}
		if f.Key {
			keySizes += float64(f.Size)
			keyN++
		} else {
			pSizes += float64(f.Size)
			pN++
		}
	}
	if keyN == 0 || pN == 0 {
		t.Fatal("missing frames")
	}
	if keySizes/float64(keyN) < 2*pSizes/float64(pN) {
		t.Errorf("key frames should be ~3x P frames: key=%.0f p=%.0f", keySizes/float64(keyN), pSizes/float64(pN))
	}
}

func TestEncoderTracksTargetChange(t *testing.T) {
	s := sim.New(1)
	e := NewEncoder(s, EncoderConfig{FPS: 25, StartBitrate: 2e6, KeyInterval: 1 << 30, SizeJitter: 0.001}, s.NewRand("enc"))
	var sizes []int
	e.OnFrame = func(f Frame) { sizes = append(sizes, f.Size) }
	e.Start()
	s.At(time.Second, func() { e.SetTargetBitrate(500e3) })
	s.RunUntil(2 * time.Second)
	// Frame 10 (before change) ~ 2e6/25/8 = 10000B; frame 40 ~ 2500B.
	if sizes[10] < 8000 || sizes[10] > 12000 {
		t.Errorf("pre-change frame size %d, want ~10000", sizes[10])
	}
	if sizes[40] < 2000 || sizes[40] > 3000 {
		t.Errorf("post-change frame size %d, want ~2500", sizes[40])
	}
}

func TestDecoderInOrder(t *testing.T) {
	d := NewDecoder()
	for i := 0; i < 10; i++ {
		f := Frame{ID: uint64(i), Key: i == 0, CapturedAt: sim.Time(i) * sim.Time(40*time.Millisecond)}
		d.OnFrameComplete(f.CapturedAt+100*time.Millisecond, f)
	}
	if d.Decoded != 10 || d.Skipped != 0 {
		t.Fatalf("decoded=%d skipped=%d", d.Decoded, d.Skipped)
	}
	if got := d.FrameDelay.Mean(); got != 100*time.Millisecond {
		t.Errorf("mean frame delay %v, want 100ms", got)
	}
}

func TestDecoderBlocksOnMissingReference(t *testing.T) {
	d := NewDecoder()
	d.OnFrameComplete(0, Frame{ID: 0, Key: true})
	// Frame 1 never completes; frames 2..4 are P frames: stuck.
	for i := 2; i <= 4; i++ {
		d.OnFrameComplete(sim.Time(i), Frame{ID: uint64(i)})
	}
	if d.Decoded != 1 {
		t.Fatalf("decoded %d, want 1 (chain blocked)", d.Decoded)
	}
	// Late arrival of frame 1 releases the chain.
	d.OnFrameComplete(sim.Time(100), Frame{ID: 1})
	if d.Decoded != 5 {
		t.Errorf("decoded %d after late frame, want 5", d.Decoded)
	}
}

func TestDecoderKeyFrameResetsChain(t *testing.T) {
	d := NewDecoder()
	d.OnFrameComplete(0, Frame{ID: 0, Key: true})
	// Frames 1-3 lost forever. Key frame 4 arrives: chain resets.
	d.OnFrameComplete(sim.Time(200), Frame{ID: 4, Key: true})
	if d.Decoded != 2 {
		t.Errorf("decoded %d, want 2", d.Decoded)
	}
	if d.Skipped != 3 {
		t.Errorf("skipped %d, want 3", d.Skipped)
	}
	// Subsequent P frames continue normally.
	d.OnFrameComplete(sim.Time(240), Frame{ID: 5})
	if d.Decoded != 3 {
		t.Errorf("decoded %d, want 3", d.Decoded)
	}
	// A stale frame from the skipped range is ignored.
	d.OnFrameComplete(sim.Time(300), Frame{ID: 2})
	if d.Decoded != 3 {
		t.Errorf("stale frame changed decode count: %d", d.Decoded)
	}
}

// TestFrameRateSeries feeds the one recorder both ways — through the
// Decoder's reference chain and bare, as the stream-video application does
// — and wants the same per-second frame rate from each.
func TestFrameRateSeries(t *testing.T) {
	d := NewDecoder()
	bare := NewFrameStats()
	id := uint64(0)
	feed := func(at sim.Time) {
		d.OnFrameComplete(at, Frame{ID: id, Key: id == 0})
		bare.AddFrame(at, 0)
		id++
	}
	// 24 fps for 2 seconds, then 5 fps for 1 second.
	for i := 0; i < 48; i++ {
		feed(sim.Time(i) * sim.Time(time.Second/24))
	}
	for i := 0; i < 5; i++ {
		feed(2*time.Second + sim.Time(i)*sim.Time(200*time.Millisecond))
	}
	for name, fs := range map[string]*FrameStats{"decoder": d.FrameStats, "bare": bare} {
		if got := fs.LowFrameRateRatio(3*time.Second, 10); got < 0.3 || got > 0.4 {
			t.Errorf("%s: low-fps ratio %.2f, want 1/3", name, got)
		}
		if n := fs.FrameDelay.Count(); n != 53 {
			t.Errorf("%s: %d frame delays recorded, want 53", name, n)
		}
	}
}
