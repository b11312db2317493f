package telemetry

import (
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
)

// documents is the exposition route table: every document the sink
// serves, with its content type and writer.
var documents = []struct {
	path, contentType string
	write             func(s *Sink, w io.Writer) error
}{
	{"/metrics", "text/plain; version=0.0.4; charset=utf-8", func(s *Sink, w io.Writer) error { return s.reg.WriteProm(w) }},
	{"/metrics.json", "application/json", func(s *Sink, w io.Writer) error { return WriteJSON(w, MetricsDoc{Metrics: s.reg.Snapshot()}) }},
	{"/trace.jsonl", "application/x-ndjson", func(s *Sink, w io.Writer) error { return s.rec.WriteJSONL(w) }},
	{"/spans.jsonl", "application/x-ndjson", func(s *Sink, w io.Writer) error { return s.spans.WriteJSONL(w) }},
	{"/trace.chrome.json", "application/json", (*Sink).WriteChromeTrace},
	{"/timeseries.json", "application/json", func(s *Sink, w io.Writer) error { return WriteJSON(w, s.TimeseriesDoc()) }},
	{"/alerts.json", "application/json", func(s *Sink, w io.Writer) error { return WriteJSON(w, s.AlertsDoc()) }},
	{"/flightrec.json", "application/json", func(s *Sink, w io.Writer) error { return WriteJSON(w, s.FlightDoc()) }},
}

// Documents lists the paths Handler serves, in route-table order (pprof's
// /debug/pprof/... aside).
func Documents() []string {
	paths := make([]string, len(documents))
	for i, d := range documents {
		paths[i] = d.path
	}
	return paths
}

// Handler returns the sink's HTTP exposition surface:
//
//	/metrics            Prometheus text format
//	/metrics.json       JSON snapshot of every instrument
//	/trace.jsonl        the decision-record ring, one JSON object per line
//	/spans.jsonl        the span ring, one JSON object per line
//	/trace.chrome.json  records + spans merged into one Chrome trace-event
//	                    file (spans nested as a causal flame graph)
//	/timeseries.json    the health monitor's closed windows
//	/alerts.json        SLO rules, per-rule status and the deterministic
//	                    alert fire/resolve timeline
//	/flightrec.json     the flight recorder's frozen dumps
//	/debug/pprof/...    the standard runtime profiles
//
// The three health documents are the sink's TimeseriesDoc, AlertsDoc and
// FlightDoc; they are valid empty documents when windows or rules are off
// (Config.SampleEveryS, Config.SLO), so scrapers never need feature
// detection.
//
// Returns a 503-only handler on a nil sink, so a disabled sink can still
// be mounted unconditionally.
func (s *Sink) Handler() http.Handler {
	mux := http.NewServeMux()
	if s == nil {
		mux.HandleFunc("/", func(w http.ResponseWriter, _ *http.Request) {
			http.Error(w, "telemetry disabled", http.StatusServiceUnavailable)
		})
		return mux
	}
	for _, d := range documents {
		mux.HandleFunc(d.path, func(w http.ResponseWriter, _ *http.Request) {
			w.Header().Set("Content-Type", d.contentType)
			if err := d.write(s, w); err != nil {
				http.Error(w, err.Error(), http.StatusInternalServerError)
			}
		})
	}
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// Server is a started exposition endpoint; Close stops it.
type Server struct {
	srv *http.Server
	ln  net.Listener
}

// Addr returns the bound address (resolves ":0" picks).
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close shuts the listener down.
func (s *Server) Close() error { return s.srv.Close() }

// Serve binds addr (e.g. "127.0.0.1:9464", or ":0" for an ephemeral port)
// and serves the sink's Handler on it in a background goroutine.
func Serve(s *Sink, addr string) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("telemetry: listen %s: %w", addr, err)
	}
	srv := &http.Server{Handler: s.Handler()}
	go func() { _ = srv.Serve(ln) }()
	return &Server{srv: srv, ln: ln}, nil
}
