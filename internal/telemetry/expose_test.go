package telemetry

import (
	"io"
	"net/http"
	"strings"
	"testing"
	"time"
)

func getWithType(t *testing.T, addr, path string) (int, string, string) {
	t.Helper()
	cl := &http.Client{Timeout: 5 * time.Second}
	resp, err := cl.Get("http://" + addr + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, resp.Header.Get("Content-Type"), string(b)
}

// TestServeBusyPortReturnsError pins the failure mode of a taken address:
// Serve must return an error — no panic, no half-started server — and the
// original endpoint must keep working.
func TestServeBusyPortReturnsError(t *testing.T) {
	s := New(Config{})
	srv, err := Serve(s, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if _, err := Serve(s, srv.Addr()); err == nil {
		t.Fatal("Serve on an already-bound port did not error")
	}
	if code, _, _ := getWithType(t, srv.Addr(), "/metrics"); code != 200 {
		t.Fatalf("original endpoint broken after failed rebind: %d", code)
	}
}

// TestServeContentTypes pins the route table — exactly these eight
// documents, in this order — and the Content-Type header each is served
// with: scrapers and browsers key off them.
func TestServeContentTypes(t *testing.T) {
	s := New(Config{SampleEveryS: 1})
	s.Record(DecisionRecord{TimeS: 0.5, Kind: "arrive", Admitted: true})
	s.Flush()
	srv, err := Serve(s, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	want := []struct{ path, contentType string }{
		{"/metrics", "text/plain; version=0.0.4; charset=utf-8"},
		{"/metrics.json", "application/json"},
		{"/trace.jsonl", "application/x-ndjson"},
		{"/spans.jsonl", "application/x-ndjson"},
		{"/trace.chrome.json", "application/json"},
		{"/timeseries.json", "application/json"},
		{"/alerts.json", "application/json"},
		{"/flightrec.json", "application/json"},
	}
	if got := Documents(); len(got) != len(want) {
		t.Fatalf("Documents() = %v, want %d documents", got, len(want))
	}
	for i, d := range want {
		if got := Documents()[i]; got != d.path {
			t.Fatalf("Documents()[%d] = %s, want %s", i, got, d.path)
		}
		t.Run(strings.TrimPrefix(d.path, "/"), func(t *testing.T) {
			code, ct, _ := getWithType(t, srv.Addr(), d.path)
			if code != 200 {
				t.Fatalf("%s: code = %d", d.path, code)
			}
			if ct != d.contentType {
				t.Fatalf("%s: Content-Type = %q, want %q", d.path, ct, d.contentType)
			}
		})
	}
}

// TestServeUnknownPath404s pins that unmounted paths return 404, not a
// catch-all handler's output.
func TestServeUnknownPath404s(t *testing.T) {
	s := New(Config{})
	srv, err := Serve(s, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	for _, path := range []string{"/nope", "/metrics/extra", "/alerts"} {
		if code, _, _ := getWithType(t, srv.Addr(), path); code != http.StatusNotFound {
			t.Fatalf("%s: code = %d, want 404", path, code)
		}
	}
}

// TestHealthEndpointsEmptyWithoutSampler pins that the health endpoints
// serve valid empty documents when sampling is off — scrapers need no
// feature detection.
func TestHealthEndpointsEmptyWithoutSampler(t *testing.T) {
	s := New(Config{})
	srv, err := Serve(s, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	for path, marker := range map[string]string{
		"/timeseries.json": `"windows": []`,
		"/alerts.json":     `"events": []`,
		"/flightrec.json":  `"dumps": []`,
	} {
		code, _, body := getWithType(t, srv.Addr(), path)
		if code != 200 || !strings.Contains(body, marker) {
			t.Fatalf("%s: code=%d body=%q, want 200 with %q", path, code, body, marker)
		}
	}
}
