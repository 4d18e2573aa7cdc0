package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"slices"
	"testing"
)

func statsGet(t *testing.T, url string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, b
}

func TestStatsServerServesPages(t *testing.T) {
	s, err := NewStatsServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	base := "http://" + s.Addr()

	if code, body := statsGet(t, base+"/healthz"); code != 200 {
		t.Fatalf("/healthz -> %d %s", code, body)
	}

	if err := s.Publish("relay", map[string]int{"forwarded": 42}); err != nil {
		t.Fatal(err)
	}
	// A caller that already holds JSON bytes publishes them as they are.
	if err := s.Publish("raw", json.RawMessage(`{"x":1}`)); err != nil {
		t.Fatal(err)
	}
	if _, body := statsGet(t, base+"/api/raw"); string(body) != `{"x":1}` {
		t.Fatalf("/api/raw body %q, want the published bytes", body)
	}

	code, body := statsGet(t, base+"/api/relay")
	if code != 200 {
		t.Fatalf("/api/relay -> %d", code)
	}
	var page map[string]int
	if err := json.Unmarshal(body, &page); err != nil || page["forwarded"] != 42 {
		t.Fatalf("/api/relay body %q (err=%v)", body, err)
	}

	// Republishing replaces the frozen snapshot readers see.
	if err := s.Publish("relay", map[string]int{"forwarded": 43}); err != nil {
		t.Fatal(err)
	}
	_, body = statsGet(t, base+"/api/relay")
	if err := json.Unmarshal(body, &page); err != nil || page["forwarded"] != 43 {
		t.Fatalf("republished /api/relay body %q (err=%v)", body, err)
	}

	// The index lists every page path, sorted, whatever order the page map
	// hands them out in: twelve more pages published in descending order,
	// more than a small map's one group holds.
	const more = 12
	for i := more - 1; i >= 0; i-- {
		if err := s.Publish(fmt.Sprintf("p%02d", i), i); err != nil {
			t.Fatal(err)
		}
	}
	var want []string
	for i := 0; i < more; i++ {
		want = append(want, fmt.Sprintf("/api/p%02d", i))
	}
	want = append(want, "/api/raw", "/api/relay")
	code, body = statsGet(t, base+"/")
	if code != 200 {
		t.Fatalf("/ -> %d", code)
	}
	var idx struct {
		Pages []string `json:"pages"`
	}
	if err := json.Unmarshal(body, &idx); err != nil {
		t.Fatalf("index body %q: %v", body, err)
	}
	if !slices.Equal(idx.Pages, want) {
		t.Fatalf("index pages %v, want %v", idx.Pages, want)
	}

	if code, _ := statsGet(t, base+"/api/nope"); code != 404 {
		t.Fatalf("/api/nope -> %d, want 404", code)
	}
	if code, _ := statsGet(t, base+"/bogus"); code != 404 {
		t.Fatalf("/bogus -> %d, want 404", code)
	}
}

func TestStatsServerNilSafe(t *testing.T) {
	var s *StatsServer
	if s.Addr() != "" {
		t.Fatal("nil Addr not empty")
	}
	if err := s.Publish("x", 1); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestStatsServerRejectsUnmarshalable(t *testing.T) {
	s, err := NewStatsServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.Publish("bad", func() {}); err == nil {
		t.Fatal("Publish accepted an unmarshalable value")
	}
	if code, _ := statsGet(t, "http://"+s.Addr()+"/api/bad"); code != 404 {
		t.Fatalf("failed publish installed a page anyway (%d)", code)
	}
}
