package main

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"testing"

	"vconf/internal/telemetry"
)

// reportInputs are the single-document input flags; FuzzReportInputs feeds
// every one of them the same bytes.
var reportInputs = []string{"-trace", "-spans", "-timeseries", "-alerts", "-metrics"}

// seedDocuments renders one document of each input kind from a small live
// sink: a few churn and fault records over four 1s windows, with an
// availability rule firing on the drops.
func seedDocuments(f *testing.F) [][]byte {
	s := telemetry.New(telemetry.Config{
		Classes:      []string{"interactive", "broadcast"},
		SampleEveryS: 1,
		SLO: []telemetry.SLORule{{
			Name: "availability", Kind: telemetry.RuleAvailability,
			Budget: 0.01, FastWindows: 2, SlowWindows: 4,
		}},
	})
	for i := 0; i < 4; i++ {
		ts := float64(i) + 0.5
		s.Record(telemetry.DecisionRecord{TimeS: ts, Kind: "arrive", Session: i, Admitted: true, Commits: 1, DelayMS: 40 + float64(i)})
		s.Record(telemetry.DecisionRecord{TimeS: ts + 0.1, Kind: "arrive", Session: i + 4, Admitted: i%2 == 0})
		s.StartRoot("event:arrive", "event", 1).EndArg(int64(i))
	}
	s.Record(telemetry.DecisionRecord{TimeS: 4.2, Kind: "region-outage", Incident: 1, Orphans: 2, EvacRejects: 1})
	s.Flush()
	var docs [][]byte
	for _, write := range []func(io.Writer) error{
		s.Recorder().WriteJSONL,
		s.Spans().WriteJSONL,
		func(w io.Writer) error { return telemetry.WriteJSON(w, s.TimeseriesDoc()) },
		func(w io.Writer) error { return telemetry.WriteJSON(w, s.AlertsDoc()) },
		func(w io.Writer) error {
			return telemetry.WriteJSON(w, telemetry.MetricsDoc{Metrics: s.Registry().Snapshot()})
		},
	} {
		var buf bytes.Buffer
		if err := write(&buf); err != nil {
			f.Fatal(err)
		}
		docs = append(docs, buf.Bytes())
	}
	return docs
}

// FuzzReportInputs hands arbitrary bytes to every single-document report:
// each must return nil or an error, never panic. The corpus starts from one
// real document of each kind.
func FuzzReportInputs(f *testing.F) {
	for i, doc := range seedDocuments(f) {
		// Each seed is a valid input of its own kind.
		path := filepath.Join(f.TempDir(), "seed")
		if err := os.WriteFile(path, doc, 0o644); err != nil {
			f.Fatal(err)
		}
		if err := run([]string{reportInputs[i], path}, io.Discard); err != nil {
			f.Fatalf("seed %s: %v", reportInputs[i], err)
		}
		f.Add(doc)
	}
	f.Add([]byte(`{"windows":[{"classes":[{}]}],"status":[{}],"events":[{}],"metrics":[{}]}`))
	// A worker process runs one input at a time, so one file serves them
	// all.
	path := filepath.Join(f.TempDir(), "in")
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		for _, flag := range reportInputs {
			_ = run([]string{flag, path}, io.Discard)
		}
	})
}
