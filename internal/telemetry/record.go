package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"sync"
)

// DecisionRecord is the structured trace of one churn event's handling:
// what arrived, how admission went, what the re-optimization did and how
// long each phase took, how the caches behaved, and the counterfactual-k
// reading — the gap between the committed placement and the 2nd-best
// candidate at the decisive hop, captured from the already-evaluated hop
// loop at no extra evaluation cost.
type DecisionRecord struct {
	// Seq is the record's position in the full stream (assigned by the
	// recorder; stable even after the ring wraps).
	Seq int64 `json:"seq"`
	// TimeS is the event's virtual time; WallNs the wall-clock time the
	// record was emitted (Unix nanoseconds).
	TimeS  float64 `json:"time_s"`
	WallNs int64   `json:"wall_ns"`
	// Session, Kind ("arrive"/"depart") and Region identify the trigger.
	Session int    `json:"session"`
	Kind    string `json:"kind"`
	Region  int    `json:"region"`
	// Admitted is false for dropped arrivals and skipped departures.
	// Stalled marks events whose admission waited in the event scheduler
	// (never for fault events, which run with the scheduler drained).
	Admitted bool `json:"admitted"`
	Stalled  bool `json:"stalled"`
	// Reopt is the size of the re-optimization set; the four outcome
	// fields tally its tasks. Conflicts counts lost cross-shard commit
	// races (retries included).
	Reopt     int `json:"reopt"`
	Commits   int `json:"commits"`
	Rejects   int `json:"rejects"`
	NoChange  int `json:"no_change"`
	Conflicts int `json:"conflicts"`
	// LatencyNs is the event's re-optimization barrier latency;
	// Snapshot/Walk/CommitNs decompose the per-task time (summed over the
	// event's tasks, so they can exceed LatencyNs when tasks overlap).
	LatencyNs  int64 `json:"latency_ns"`
	SnapshotNs int64 `json:"snapshot_ns"`
	WalkNs     int64 `json:"walk_ns"`
	CommitNs   int64 `json:"commit_ns"`
	// CacheWarm/CacheCold count delay-cache evaluations served warm
	// (hit or patch) vs cold (full rebuild) during the event's tasks;
	// CacheInvalidated counts entries torn down by the event (1 on a live
	// departure).
	CacheWarm        int `json:"cache_warm"`
	CacheCold        int `json:"cache_cold"`
	CacheInvalidated int `json:"cache_invalidated"`
	// ChosenAgent is the decisive hop's target agent of the event's first
	// committed proposal (-1 when nothing committed). CfGap is
	// counterfactual-k: Φ(2nd-best candidate) − Φ(chosen candidate) at
	// that hop — positive means the chosen placement beat the runner-up by
	// that margin; CfValid is false when no second candidate existed.
	ChosenAgent int     `json:"chosen_agent"`
	CfGap       float64 `json:"cf_gap"`
	CfValid     bool    `json:"cf_valid"`
	// Objective is Σ Φ_s after the event; ObjectiveDelta its change since
	// the previous record. ActiveSessions counts live sessions.
	Objective      float64 `json:"objective"`
	ObjectiveDelta float64 `json:"objective_delta"`
	ActiveSessions int     `json:"active_sessions"`
	// Class is the trigger session's SLO class name (empty when the sink
	// has no class map); DelayMS its post-decision mean-of-max conferencing
	// delay, filled only for committed arrivals (0 otherwise).
	Class   string  `json:"class,omitempty"`
	DelayMS float64 `json:"delay_ms,omitempty"`
	// Incident is the fault schedule's incident id for fault-kind events
	// (0 for churn events); Orphans/Evacuated/EvacRejects the healing
	// outcome of that event. They make the serialized decision stream
	// self-contained for the windowed sampler, so window contents never
	// depend on racing reads of live counter shards.
	Incident    int `json:"incident,omitempty"`
	Orphans     int `json:"orphans,omitempty"`
	Evacuated   int `json:"evacuated,omitempty"`
	EvacRejects int `json:"evac_rejects,omitempty"`
}

// Recorder is a bounded ring buffer of decision records. Appends are
// mutex-guarded (one append per churn event — far off any hot path);
// when the ring is full the oldest records are overwritten and counted as
// dropped.
type Recorder struct {
	mu   sync.Mutex
	buf  []DecisionRecord
	next int64 // total records ever appended
}

// NewRecorder builds a recorder holding the last `capacity` records
// (minimum 1).
func NewRecorder(capacity int) *Recorder {
	if capacity < 1 {
		capacity = 1
	}
	return &Recorder{buf: make([]DecisionRecord, 0, capacity)}
}

// Append stores one record, assigning its Seq, and reports whether an
// older record was overwritten (the ring was full).
func (r *Recorder) Append(rec DecisionRecord) (overwrote bool) {
	r.mu.Lock()
	rec.Seq = r.next
	r.next++
	if len(r.buf) < cap(r.buf) {
		r.buf = append(r.buf, rec)
	} else {
		r.buf[rec.Seq%int64(cap(r.buf))] = rec
		overwrote = true
	}
	r.mu.Unlock()
	return overwrote
}

// Len returns the number of records currently held.
func (r *Recorder) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.buf)
}

// Total returns the number of records ever appended.
func (r *Recorder) Total() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.next
}

// Dropped returns how many old records the ring overwrote.
func (r *Recorder) Dropped() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.next - int64(len(r.buf))
}

// Records returns the held records oldest-first.
func (r *Recorder) Records() []DecisionRecord {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]DecisionRecord, 0, len(r.buf))
	if len(r.buf) < cap(r.buf) || r.next == int64(len(r.buf)) {
		return append(out, r.buf...)
	}
	start := r.next % int64(cap(r.buf))
	out = append(out, r.buf[start:]...)
	return append(out, r.buf[:start]...)
}

// WriteJSONL streams the held records oldest-first, one JSON object per
// line — the vcsim -trace-out format.
func (r *Recorder) WriteJSONL(w io.Writer) error {
	enc := json.NewEncoder(w)
	for _, rec := range r.Records() {
		if err := enc.Encode(rec); err != nil {
			return err
		}
	}
	return nil
}

// chromeEvent is one complete ("X") event of the Chrome trace-event format
// (chrome://tracing, Perfetto). Timestamps and durations are microseconds.
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

// WriteChromeTrace renders the held records as a Chrome trace-event JSON
// array: one complete event per decision, laid out on the wall-clock axis
// with one track (tid) per region, carrying the record's counters as args.
func (r *Recorder) WriteChromeTrace(w io.Writer) error {
	recs := r.Records()
	base := firstWall(recs)
	evs := make([]chromeEvent, 0, len(recs))
	for _, rec := range recs {
		dur := float64(rec.LatencyNs) / 1e3
		if dur <= 0 {
			dur = 1 // sub-µs events still need visible extent
		}
		evs = append(evs, chromeEvent{
			Name: fmt.Sprintf("%s s%d", rec.Kind, rec.Session),
			Cat:  "churn",
			Ph:   "X",
			Ts:   float64(rec.WallNs-base) / 1e3,
			Dur:  dur,
			Pid:  0,
			Tid:  rec.Region,
			Args: map[string]interface{}{
				"seq":       rec.Seq,
				"time_s":    rec.TimeS,
				"admitted":  rec.Admitted,
				"stalled":   rec.Stalled,
				"reopt":     rec.Reopt,
				"commits":   rec.Commits,
				"conflicts": rec.Conflicts,
				"cf_gap":    rec.CfGap,
				"objective": rec.Objective,
			},
		})
	}
	enc := json.NewEncoder(w)
	return enc.Encode(struct {
		TraceEvents []chromeEvent `json:"traceEvents"`
	}{TraceEvents: evs})
}

// firstWall returns the earliest wall timestamp, anchoring the trace at 0.
func firstWall(recs []DecisionRecord) int64 {
	if len(recs) == 0 {
		return 0
	}
	first := recs[0].WallNs
	for _, r := range recs[1:] {
		if r.WallNs < first {
			first = r.WallNs
		}
	}
	return first
}
