package telemetry

import (
	"encoding/json"
	"io"
	"sync/atomic"
	"time"
)

// Span is a lightweight handle on one in-flight traced operation. It is a
// plain value (no heap allocation on start or end): starting a span on a
// nil sink returns the zero Span, and ending a zero Span is a pointer test
// — the same disabled-path contract as every other Sink method, pinned by
// the alloc tests. A span only enters the ring when End/EndArg is called,
// so abandoning a handle (e.g. a heal span for a non-incident fault) costs
// nothing and records nothing.
type Span struct {
	sink   *Sink
	id     uint64
	parent uint64
	track  int32
	name   string
	cat    string
	start  time.Time
}

// ID returns the span's causal identity (0 for a disabled/zero span).
func (sp Span) ID() uint64 { return sp.id }

// Active reports whether the span belongs to an enabled sink.
func (sp Span) Active() bool { return sp.sink != nil }

// End closes the span and appends it to the span ring.
func (sp Span) End() { sp.EndArg(0) }

// EndArg closes the span carrying a small integer payload (typically the
// trigger session or an orphan count).
func (sp Span) EndArg(arg int64) {
	if sp.sink == nil {
		return
	}
	sp.record(time.Since(sp.start).Nanoseconds(), arg)
}

// record appends the span, durNs long, to the ring and counts an
// overwrite.
func (sp Span) record(durNs, arg int64) {
	if sp.sink.spans.Append(SpanRecord{
		ID:      sp.id,
		Parent:  sp.parent,
		Name:    sp.name,
		Cat:     sp.cat,
		Track:   sp.track,
		StartNs: sp.start.UnixNano(),
		DurNs:   durNs,
		Arg:     arg,
	}) {
		sp.sink.spanDropped.Inc()
	}
}

// newSpan opens a span with a fresh causal identity (s is non-nil).
func (s *Sink) newSpan(name, cat string, parent uint64, track int32, start time.Time) Span {
	return Span{
		sink:   s,
		id:     atomic.AddUint64(&s.spanSeq, 1),
		parent: parent,
		track:  track,
		name:   name,
		cat:    cat,
		start:  start,
	}
}

// StartRoot opens a top-level span on an explicit track. Tracks partition
// the Chrome export into serially-consistent lanes: spans on the same track
// nest by time containment, so concurrent operations must use distinct
// tracks (the orchestrator uses 1..99 for event lanes, 100+worker for
// task lanes, 200+ for dist).
func (s *Sink) StartRoot(name, cat string, track int32) Span {
	if s == nil {
		return Span{}
	}
	return s.newSpan(name, cat, 0, track, time.Now())
}

// StartSpan opens a child span under parent, inheriting its category and
// track. With a zero parent (disabled sink upstream, or no causal context)
// it degrades to a root span on track 0 — but returns the zero Span when
// the receiver itself is nil.
func (s *Sink) StartSpan(name string, parent Span) Span {
	if s == nil {
		return Span{}
	}
	return s.newSpan(name, parent.cat, parent.id, parent.track, time.Now())
}

// EmitSpan records an already-measured interval retroactively — the bridge
// that promotes pre-existing phase timers (the worker pool's taskProbe) into
// spans without re-timing them. It returns the recorded span so further
// children can parent to it.
func (s *Sink) EmitSpan(name, cat string, parent Span, track int32, start time.Time, durNs, arg int64) Span {
	if s == nil {
		return Span{}
	}
	sp := s.newSpan(name, cat, parent.id, track, start)
	sp.record(durNs, arg)
	return sp
}

// Spans exposes the span ring (nil when disabled).
func (s *Sink) Spans() *Ring[SpanRecord] {
	if s == nil {
		return nil
	}
	return s.spans
}

// SpanRecord is one finished span as held in the ring and exported to
// JSONL. Parent is 0 for roots; Track is the export lane (see StartRoot).
type SpanRecord struct {
	// Seq is the record's position in the full span stream (assigned by the
	// ring; stable even after it wraps).
	Seq    int64  `json:"seq"`
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Name   string `json:"name"`
	Cat    string `json:"cat,omitempty"`
	Track  int32  `json:"track"`
	// StartNs is the wall-clock start (Unix nanoseconds); DurNs the
	// duration.
	StartNs int64 `json:"start_ns"`
	DurNs   int64 `json:"dur_ns"`
	// Arg carries a small span-specific payload (trigger session, orphan
	// count, attempt number).
	Arg int64 `json:"arg,omitempty"`
}

// chromeEvent is one complete ("X") or metadata ("M") event of the Chrome
// trace-event format (chrome://tracing, Perfetto). Timestamps and durations
// are microseconds.
type chromeEvent struct {
	Name string                 `json:"name"`
	Cat  string                 `json:"cat"`
	Ph   string                 `json:"ph"`
	Ts   float64                `json:"ts"`
	Dur  float64                `json:"dur"`
	Pid  int                    `json:"pid"`
	Tid  int                    `json:"tid"`
	Args map[string]interface{} `json:"args,omitempty"`
}

// WriteChromeTrace renders the sink's decision records AND spans as one
// Chrome trace-event file: decision records keep their PR 6 layout on pid 0
// (one tid per region), spans land on pid 1 with tid = Track. Spans on the
// same track never overlap unless nested, so the complete-event ("X") time
// containment renders them as a causal flame graph — event → task
// snapshot/walk/commit → heal degrade/evict/re-home/re-balance → dist
// freeze/hop/commit. Parent/child identities ride along in args for
// programmatic consumers.
func (s *Sink) WriteChromeTrace(w io.Writer) error {
	if s == nil {
		return nil
	}
	recs := s.rec.Items()
	spans := s.spans.Items()
	var base int64
	for i, rec := range recs {
		if i == 0 || rec.WallNs < base {
			base = rec.WallNs
		}
	}
	for _, sp := range spans {
		if base == 0 || (sp.StartNs != 0 && sp.StartNs < base) {
			base = sp.StartNs
		}
	}
	evs := make([]chromeEvent, 0, len(recs)+len(spans)+2)
	evs = append(evs,
		chromeEvent{Name: "process_name", Ph: "M", Pid: 0, Args: map[string]interface{}{"name": "decisions"}},
		chromeEvent{Name: "process_name", Ph: "M", Pid: 1, Args: map[string]interface{}{"name": "spans"}},
	)
	for _, rec := range recs {
		dur := float64(rec.LatencyNs) / 1e3
		if dur <= 0 {
			dur = 1
		}
		ev := chromeEvent{
			Name: rec.Kind,
			Cat:  "churn",
			Ph:   "X",
			Ts:   float64(rec.WallNs-base) / 1e3,
			Dur:  dur,
			Pid:  0,
			Tid:  rec.Region,
			Args: map[string]interface{}{
				"seq":       rec.Seq,
				"session":   rec.Session,
				"admitted":  rec.Admitted,
				"commits":   rec.Commits,
				"objective": rec.Objective,
			},
		}
		if rec.Class != "" {
			ev.Args["class"] = rec.Class
		}
		evs = append(evs, ev)
	}
	for _, sp := range spans {
		dur := float64(sp.DurNs) / 1e3
		if dur <= 0 {
			dur = 0.001 // keep sub-ns spans visible without breaking nesting
		}
		evs = append(evs, chromeEvent{
			Name: sp.Name,
			Cat:  sp.Cat,
			Ph:   "X",
			Ts:   float64(sp.StartNs-base) / 1e3,
			Dur:  dur,
			Pid:  1,
			Tid:  int(sp.Track),
			Args: map[string]interface{}{
				"id":     sp.ID,
				"parent": sp.Parent,
				"arg":    sp.Arg,
			},
		})
	}
	enc := json.NewEncoder(w)
	return enc.Encode(struct {
		TraceEvents []chromeEvent `json:"traceEvents"`
	}{TraceEvents: evs})
}
