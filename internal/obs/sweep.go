package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// Sweep collects per-cell observability from a parallel experiment run:
// each cell gets its own Obs bundle (registries are single-threaded), and
// finished cells are recorded under their (experiment, cell) identity so a
// sweep executed on 8 workers attributes every snapshot to the cell that
// produced it. Sweep itself is safe for concurrent use.
type Sweep struct {
	// TraceDir, when non-empty, additionally gives every cell a Tracer and
	// writes each cell's Chrome trace to <TraceDir>/<exp>-cell<N>.trace.json.
	// Intended for small -scale runs: traces grow with every packet.
	TraceDir string

	mu    sync.Mutex
	cells []SweepCell
}

// SweepCell is one finished cell's observability record.
type SweepCell struct {
	Experiment string  `json:"experiment"`
	Cell       int     `json:"cell"`
	ElapsedMS  float64 `json:"elapsed_ms"`
	MetricsReport
	TraceFile string `json:"trace_file,omitempty"`
}

// NewSweep returns a sweep collector; traceDir optionally enables per-cell
// packet traces.
func NewSweep(traceDir string) *Sweep {
	return &Sweep{TraceDir: traceDir}
}

// NewCell returns a fresh Obs bundle for one cell. Nil-safe: a nil sweep
// returns a nil bundle, keeping the disabled path free.
func (s *Sweep) NewCell() *Obs {
	if s == nil {
		return nil
	}
	return New(Options{Metrics: true, PredErr: true, Trace: s.TraceDir != ""})
}

// Record stores a finished cell's snapshot and writes its trace file, if
// tracing is enabled. Nil-safe on both the sweep and the bundle.
func (s *Sweep) Record(experiment string, cell int, o *Obs, elapsed time.Duration) error {
	if s == nil || o == nil {
		return nil
	}
	sc := SweepCell{
		Experiment:    experiment,
		Cell:          cell,
		ElapsedMS:     float64(elapsed) / float64(time.Millisecond),
		MetricsReport: o.Report(),
	}
	var err error
	if o.Tracer != nil && s.TraceDir != "" {
		if err = os.MkdirAll(s.TraceDir, 0o755); err == nil {
			sc.TraceFile = filepath.Join(s.TraceDir, fmt.Sprintf("%s-cell%d.trace.json", experiment, cell))
			err = WriteTraceFile(sc.TraceFile, o.Tracer, nil)
		}
	}
	s.mu.Lock()
	s.cells = append(s.cells, sc)
	s.mu.Unlock()
	return err
}

// WriteJSON writes all recorded cells sorted by (experiment, cell) — the
// deterministic order regardless of worker scheduling.
func (s *Sweep) WriteJSON(w io.Writer) error {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	cells := append([]SweepCell(nil), s.cells...)
	s.mu.Unlock()
	sort.Slice(cells, func(i, j int) bool {
		if cells[i].Experiment != cells[j].Experiment {
			return cells[i].Experiment < cells[j].Experiment
		}
		return cells[i].Cell < cells[j].Cell
	})
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(cells)
}
