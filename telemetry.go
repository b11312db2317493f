package vconf

import (
	"vconf/internal/telemetry"
)

// TelemetrySink is the unified observability sink the orchestrator can
// carry (OrchestratorConfig.Telemetry): a concurrency-safe metrics registry
// with atomic counters, a bounded per-decision trace ring, and
// live Prometheus/JSON/Chrome-trace exposition. A nil *TelemetrySink is the
// disabled state — every instrumentation site reduces to a pointer test
// with zero allocation, so hot paths carry no overhead when observability
// is off. (Telemetry, without the suffix, is the data plane's per-tick
// measurement in runtime.go — a different thing.)
type TelemetrySink = telemetry.Sink

// TelemetryConfig sizes a telemetry sink: trace- and span-ring capacities,
// the optional session→region and session→class maps that label
// per-region and per-class metric series, and the health monitor's window
// width and SLO rules.
type TelemetryConfig = telemetry.Config

// DecisionRecord is one churn event's structured trace record: virtual and
// wall time, admission and outcome counts, per-phase durations, delay-cache
// behavior, the chosen agent, and the counterfactual-k gap to the runner-up
// candidate (the regret had the 2nd-best hop been taken).
type DecisionRecord = telemetry.DecisionRecord

// TelemetryServer is a live exposition endpoint started by ServeTelemetry.
type TelemetryServer = telemetry.Server

// NewTelemetry builds an enabled telemetry sink. Pass it via
// OrchestratorConfig.Telemetry; leave the field nil to disable
// instrumentation entirely.
func NewTelemetry(cfg TelemetryConfig) *TelemetrySink {
	return telemetry.New(cfg)
}

// ServeTelemetry serves the sink's exposition surface (/metrics,
// /metrics.json, /trace.jsonl, /spans.jsonl, /trace.chrome.json,
// /timeseries.json, /alerts.json, /flightrec.json and /debug/pprof/...) on
// addr in a background goroutine; close the returned server to stop. A nil
// sink serves 503s, so the endpoint can be mounted unconditionally.
func ServeTelemetry(s *TelemetrySink, addr string) (*TelemetryServer, error) {
	return telemetry.Serve(s, addr)
}
