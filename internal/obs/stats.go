package obs

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"sort"
	"sync"
)

// StatsServer is the live stats plane: a tiny HTTP control/meta endpoint in
// the golaborate-LOWFS shape — the data plane (the simulation or relay hot
// path) publishes pre-marshalled JSON pages at its own cadence, and HTTP
// readers only ever touch those frozen snapshots, never live simulator
// state. Pages appear under /api/<name>; / lists them; /healthz returns ok.
//
// Publish is cheap enough to call at shard barriers or on a virtual-time
// tick, and all methods are no-ops on a nil receiver so call sites need no
// branching when the plane is disabled.
type StatsServer struct {
	mu    sync.RWMutex
	pages map[string][]byte

	ln  net.Listener
	srv *http.Server
}

// NewStatsServer listens on addr (e.g. "localhost:8377") and serves in a
// background goroutine until Close.
func NewStatsServer(addr string) (*StatsServer, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	s := &StatsServer{pages: make(map[string][]byte), ln: ln}
	mux := http.NewServeMux()
	mux.HandleFunc("/", s.handleIndex)
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/api/", s.handlePage)
	s.srv = &http.Server{Handler: mux}
	go func() {
		// Serve returns ErrServerClosed on Close; anything else is a socket
		// teardown race at process exit — either way there is no caller to
		// report to.
		_ = s.srv.Serve(ln)
	}()
	return s, nil
}

// Addr returns the bound address ("" on a nil receiver), useful when the
// caller asked for port 0.
func (s *StatsServer) Addr() string {
	if s == nil {
		return ""
	}
	return s.ln.Addr().String()
}

// Publish marshals v and installs it as page name (a caller that already
// holds JSON bytes passes a json.RawMessage). Safe to call from the
// single-threaded publisher while HTTP readers are active. No-op on a nil
// receiver.
func (s *StatsServer) Publish(name string, v any) error {
	if s == nil {
		return nil
	}
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	s.mu.Lock()
	s.pages[name] = b
	s.mu.Unlock()
	return nil
}

// Close stops the listener. No-op on a nil receiver.
func (s *StatsServer) Close() error {
	if s == nil {
		return nil
	}
	return s.srv.Close()
}

func (s *StatsServer) handleIndex(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/" {
		http.NotFound(w, r)
		return
	}
	s.mu.RLock()
	names := make([]string, 0, len(s.pages))
	for name := range s.pages {
		names = append(names, name)
	}
	s.mu.RUnlock()
	sort.Strings(names)
	w.Header().Set("Content-Type", "application/json")
	paths := make([]string, len(names))
	for i, name := range names {
		paths[i] = "/api/" + name
	}
	b, _ := json.Marshal(map[string]any{"pages": paths})
	w.Write(b)
}

func (s *StatsServer) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	fmt.Fprintln(w, `{"ok":true}`)
}

func (s *StatsServer) handlePage(w http.ResponseWriter, r *http.Request) {
	name := r.URL.Path[len("/api/"):]
	s.mu.RLock()
	b, ok := s.pages[name]
	s.mu.RUnlock()
	if !ok {
		http.NotFound(w, r)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(b)
}
