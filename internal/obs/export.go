package obs

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"strings"

	"github.com/zhuge-project/zhuge/internal/netem"
)

// WriteJSONL writes every event as one JSON object per line with a fixed
// field order, so identical event streams serialise byte-identically — the
// property the -j determinism golden test pins.
func (t *Tracer) WriteJSONL(w io.Writer) error {
	bw := bufio.NewWriter(w)
	for _, ev := range t.Events() {
		_, err := fmt.Fprintf(bw,
			`{"t":%d,"type":%q,"flow":%q,"seq":%d,"size":%d,"dur":%d,"a":%d}`+"\n",
			int64(ev.At), ev.Type.String(), ev.Flow.String(), ev.Seq, ev.Size, int64(ev.Dur), ev.A)
		if err != nil {
			return err
		}
	}
	return bw.Flush()
}

// WriteChrome writes a tracer's events and a series set's samples — either
// may be nil — as one Chrome trace_event JSON object, loadable directly in
// chrome://tracing and Perfetto. The datapath is process 1: each flow
// becomes a named thread track, EvAirtime spans render as complete ("X")
// events, everything else as thread-scoped instants. The telemetry series
// are process 2: one counter ("C") track per series, sorted by name.
// Timestamps are microseconds of virtual time, emitted in record order,
// hence monotonic per track.
func WriteChrome(w io.Writer, t *Tracer, ss *SeriesSet) error {
	// A bufio.Writer keeps its first error and drops every later write, so
	// the one check is Flush's.
	bw := bufio.NewWriter(w)
	bw.WriteString("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n")
	first := true
	emit := func(format string, args ...any) {
		if !first {
			bw.WriteString(",\n")
		}
		first = false
		fmt.Fprintf(bw, format, args...)
	}
	if t != nil {
		emit(`{"ph":"M","pid":1,"name":"process_name","args":{"name":"zhuge datapath"}}`)
		// Stable flow -> tid mapping in first-appearance order, announced
		// with thread_name metadata so Perfetto labels each track with the
		// 5-tuple.
		tids := make(map[netem.FlowKey]int)
		for _, ev := range t.events {
			if _, ok := tids[ev.Flow]; !ok {
				tids[ev.Flow] = len(tids) + 1
				emit(`{"ph":"M","pid":1,"tid":%d,"name":"thread_name","args":{"name":%q}}`,
					tids[ev.Flow], ev.Flow.String())
			}
		}
		for _, ev := range t.events {
			ts := float64(ev.At) / 1e3 // ns -> µs
			if ev.Type == EvAirtime {
				emit(`{"name":%q,"cat":%q,"ph":"X","ts":%.3f,"dur":%.3f,"pid":1,"tid":%d,"args":{"size":%d,"seq":%d,"a":%d}}`,
					ev.Type.String(), ev.Type.component(), ts, float64(ev.Dur)/1e3, tids[ev.Flow], ev.Size, ev.Seq, ev.A)
			} else {
				emit(`{"name":%q,"cat":%q,"ph":"i","s":"t","ts":%.3f,"pid":1,"tid":%d,"args":{"size":%d,"seq":%d,"a":%d}}`,
					ev.Type.String(), ev.Type.component(), ts, tids[ev.Flow], ev.Size, ev.Seq, ev.A)
			}
		}
	}
	if ss != nil {
		emit(`{"ph":"M","pid":2,"name":"process_name","args":{"name":"zhuge telemetry"}}`)
		for _, name := range ss.Names() {
			for _, p := range ss.m[name].Points {
				emit(`{"ph":"C","pid":2,"name":%q,"ts":%.3f,"args":{"value":%s}}`,
					name, float64(p.At)/1e3, formatSeriesValue(p.Value))
			}
		}
	}
	bw.WriteString("\n]}\n")
	return bw.Flush()
}

// WriteTraceFile writes a tracer's events and a series set's samples —
// either may be nil — to path, choosing the format by extension: ".jsonl"
// emits JSON lines (events, then series points), anything else the Chrome
// trace_event format. It is the one way to a file for zhuge-sim's
// -trace-out and -series-out and for zhuge-bench's per-cell traces.
func WriteTraceFile(path string, t *Tracer, ss *SeriesSet) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if strings.HasSuffix(path, ".jsonl") {
		if err = t.WriteJSONL(f); err == nil {
			err = ss.WriteJSONL(f)
		}
	} else {
		err = WriteChrome(f, t, ss)
	}
	if err != nil {
		return err
	}
	return f.Close()
}
