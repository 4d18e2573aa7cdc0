package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// spanID names a recorded span; noSpan is both "no parent" and what a nil
// tracer hands out, so untraced runs pay one nil check per boundary.
type spanID int

const noSpan spanID = -1

// span is one interval at a layer boundary. Start and End are offsets from
// the tracer's epoch; Run groups the spans of one repeat (0 is set-up).
type span struct {
	Name   string
	Start  time.Duration
	End    time.Duration
	Parent spanID
	Run    int
}

func (s span) dur() time.Duration { return s.End - s.Start }

// tracer keeps spans in memory and writes them once, at exit. The benchmark
// records spans from its own files around calls into each package's public
// functions; nothing inside the packages is instrumented. It is safe for
// concurrent use because the suite workload opens spans from worker
// goroutines.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
	run   int
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// setRun stamps every span begun from now on with run id r.
func (t *tracer) setRun(r int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.run = r
	t.mu.Unlock()
}

func (t *tracer) begin(parent spanID, name string) spanID {
	if t == nil {
		return noSpan
	}
	now := time.Since(t.epoch)
	t.mu.Lock()
	id := spanID(len(t.spans))
	t.spans = append(t.spans, span{Name: name, Start: now, End: -1, Parent: parent, Run: t.run})
	t.mu.Unlock()
	return id
}

// end closes the span and returns its duration (0 on a nil tracer).
func (t *tracer) end(id spanID) time.Duration {
	if t == nil || id == noSpan {
		return 0
	}
	now := time.Since(t.epoch)
	t.mu.Lock()
	t.spans[id].End = now
	d := now - t.spans[id].Start
	t.mu.Unlock()
	return d
}

// snapshot returns a copy of the closed spans; open ones are a bug in the
// benchmark and are reported by checkTree.
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// children indexes spans by parent.
func children(spans []span) map[spanID][]spanID {
	kids := make(map[spanID][]spanID)
	for i, s := range spans {
		kids[s.Parent] = append(kids[s.Parent], spanID(i))
	}
	return kids
}

// selfTimes returns, per span, its duration minus the part of that interval
// its child spans cover. Children that ran in parallel are counted once
// where they overlap, so a parent that only waited for them has self time
// close to zero.
func selfTimes(spans []span) []time.Duration {
	kids := children(spans)
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		iv := make([][2]time.Duration, 0, len(kids[spanID(i)]))
		for _, k := range kids[spanID(i)] {
			iv = append(iv, [2]time.Duration{spans[k].Start, spans[k].End})
		}
		sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
		var covered, hi time.Duration
		hi = s.Start
		for _, v := range iv {
			lo, up := v[0], v[1]
			if lo < hi {
				lo = hi
			}
			if up > s.End {
				up = s.End
			}
			if up > lo {
				covered += up - lo
				hi = up
			}
		}
		self[i] = s.dur() - covered
	}
	return self
}

// checkTree verifies the span tree is well-formed: every span is closed,
// every parent exists, starts before its child and ends after it, and no
// self time is negative.
func checkTree(spans []span) error {
	for i, s := range spans {
		if s.End < s.Start {
			return fmt.Errorf("span %d %q never ended", i, s.Name)
		}
		if s.Parent == noSpan {
			continue
		}
		if s.Parent < 0 || int(s.Parent) >= len(spans) || int(s.Parent) >= i {
			return fmt.Errorf("span %d %q has no earlier parent %d", i, s.Name, s.Parent)
		}
		p := spans[s.Parent]
		if s.Start < p.Start || s.End > p.End {
			return fmt.Errorf("span %d %q [%v,%v] escapes parent %q [%v,%v]",
				i, s.Name, s.Start, s.End, p.Name, p.Start, p.End)
		}
	}
	for i, d := range selfTimes(spans) {
		if d < 0 {
			return fmt.Errorf("span %d %q has negative self time %v", i, spans[i].Name, d)
		}
	}
	return nil
}

// sumByName totals the durations of the spans called name within run r.
func sumByName(spans []span, name string, r int) time.Duration {
	var d time.Duration
	for _, s := range spans {
		if s.Name == name && s.Run == r {
			d += s.dur()
		}
	}
	return d
}

// dursByName lists the durations of the spans called name, in seconds.
func dursByName(spans []span, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name {
			out = append(out, s.dur().Seconds())
		}
	}
	return out
}

// chromeEvent is one complete ("X") event of the Chrome trace_event format,
// which Perfetto and chrome://tracing both open.
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`  // microseconds
	Dur  float64        `json:"dur"` // microseconds
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args"`
}

// lanes assigns each span a track so that spans on one track nest: a child
// takes its parent's track unless an earlier sibling still occupies it, in
// which case it opens a new one. Only the suite's parallel experiments ever
// need more than one.
func lanes(spans []span) []int {
	lane := make([]int, len(spans))
	kids := children(spans)
	next := 1
	var place func(parent spanID, parentLane int)
	place = func(parent spanID, parentLane int) {
		ids := kids[parent]
		sort.Slice(ids, func(a, b int) bool { return spans[ids[a]].Start < spans[ids[b]].Start })
		type track struct {
			lane int
			busy time.Duration
		}
		tracks := []track{{parentLane, -1}}
		for _, id := range ids {
			placed := false
			for i := range tracks {
				if tracks[i].busy <= spans[id].Start {
					tracks[i].busy = spans[id].End
					lane[id] = tracks[i].lane
					placed = true
					break
				}
			}
			if !placed {
				tracks = append(tracks, track{next, spans[id].End})
				lane[id] = next
				next++
			}
			place(id, lane[id])
		}
	}
	place(noSpan, 0)
	return lane
}

// writeChromeTrace writes the spans as Chrome trace_event JSON.
func writeChromeTrace(path string, spans []span, meta map[string]any) error {
	self := selfTimes(spans)
	lane := lanes(spans)
	events := make([]chromeEvent, 0, len(spans))
	for i, s := range spans {
		events = append(events, chromeEvent{
			Name: s.Name, Ph: "X",
			Ts:  float64(s.Start) / float64(time.Microsecond),
			Dur: float64(s.dur()) / float64(time.Microsecond),
			Pid: 1, Tid: lane[i],
			Args: map[string]any{
				"id": i, "parent": int(s.Parent), "run": s.Run,
				"self_us": float64(self[i]) / float64(time.Microsecond),
			},
		})
	}
	doc := map[string]any{"traceEvents": events, "displayTimeUnit": "ms", "otherData": meta}
	raw, err := json.Marshal(doc)
	if err != nil {
		return fmt.Errorf("encode trace: %w", err)
	}
	return os.WriteFile(path, raw, 0o644)
}
