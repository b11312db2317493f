package telemetry

import (
	"encoding/json"
	"io"
	"math"
	"sync"
)

// This file is the windowed time-series sampler: the "what is happening
// right now" layer over the cumulative registry. The run is cut into
// fixed-width virtual-time windows; every window holds per-window *deltas*
// (events, task outcomes, drops, healing outcomes, per-class delay
// histogram bucket counts), never cumulative values, so windowed rates and
// per-class windowed percentiles fall out locally.
//
// Determinism contract: windows are indexed by virtual event time
// (floor(TimeS/interval)) and filled exclusively from the serialized
// decision-record stream — which retires in event order on all three
// orchestrator paths — never from racing reads of live counter shards.
// Two runs with the same seed therefore produce byte-identical
// /timeseries.json windows (wall-clock fields are deliberately absent).
// The sampler runs inside Sink.Record on the retire/barrier path, so
// workers never pay for it and a nil sink still costs nothing.

// SamplerConfig sizes the windowed sampler.
type SamplerConfig struct {
	// IntervalS is the window width in virtual seconds. <= 0 defaults to 1.
	IntervalS float64
	// Capacity bounds the closed-window ring. <= 0 defaults to 512.
	Capacity int
}

// ClassWindow is one SLO class's slice of a window: how many delay
// observations landed and where their quarter-octave percentiles sat.
type ClassWindow struct {
	Class  string `json:"class"`
	DelayN int64  `json:"delay_n"`
	P50US  int64  `json:"delay_p50_us"`
	P99US  int64  `json:"delay_p99_us"`

	// buckets holds the window's delay observations on the shared
	// quarter-octave scale (µs) — per-window deltas, so cross-window merges
	// and threshold-exceedance counts stay exact. Kept unexported: the
	// JSON surface carries the derived readings only.
	buckets []int64
}

// AboveUS counts the window's delay observations lying in buckets strictly
// above the bucket holding targetUS (quarter-octave resolution, ≈ ±12%).
// This is the "bad events" reading for delay SLO rules.
func (cw *ClassWindow) AboveUS(targetUS int64) int64 {
	if cw.buckets == nil {
		return 0
	}
	var bad int64
	for i := bucketIndex(targetUS) + 1; i < histBuckets; i++ {
		bad += cw.buckets[i]
	}
	return bad
}

// Window is one closed sampling window: per-window event and outcome
// deltas plus the rates derived from them. Gauges (objective, active
// sessions) carry the last value observed inside the window.
type Window struct {
	Index  int64   `json:"index"`
	StartS float64 `json:"start_s"`
	EndS   float64 `json:"end_s"`

	Events    int64 `json:"events"`
	Commits   int64 `json:"commits"`
	Rejects   int64 `json:"rejects"`
	NoChange  int64 `json:"nochange"`
	Conflicts int64 `json:"conflicts"`

	Arrivals   int64 `json:"arrivals"`
	Departures int64 `json:"departures"`
	Drops      int64 `json:"drops"`
	Skips      int64 `json:"skips"`
	Stalls     int64 `json:"stalls"`

	Faults      int64 `json:"faults"`
	Orphans     int64 `json:"orphans"`
	Evacuated   int64 `json:"evacuated"`
	EvacRejects int64 `json:"evac_rejects"`

	// Incident carries the most recent fault incident id observed up to
	// the end of this window (inherited across windows; 0 before the first
	// fault), so alert fire/resolve events correlate with injected faults
	// without any wall-clock join.
	Incident     int    `json:"incident,omitempty"`
	IncidentKind string `json:"incident_kind,omitempty"`

	// Derived rates. RejectRatio is task-level (rejects over task
	// outcomes); DropRatio is admission-level (dropped arrivals plus
	// evacuation rejects over arrivals plus orphans) — the availability
	// SLO's bad fraction.
	CommitsPerS   float64 `json:"commits_per_s"`
	RejectRatio   float64 `json:"reject_ratio"`
	ConflictRatio float64 `json:"conflict_ratio"`
	DropRatio     float64 `json:"drop_ratio"`

	Objective float64 `json:"objective"`
	Active    float64 `json:"active_sessions"`

	Classes []ClassWindow `json:"classes,omitempty"`
}

// Sampler cuts the decision stream into fixed-width virtual-time windows
// and retains the last Capacity closed windows in a ring. All mutation
// happens via observe on the serialized retire path under the sampler's
// mutex; readers (exposition, flight dumps) read the ring under its own.
type Sampler struct {
	mu       sync.Mutex
	interval float64
	classes  []string

	// onClose receives every freshly closed window plus the ring tail
	// (closed window last) — the sink routes it to the alert engine.
	onClose func(w *Window, tail []Window)
	// tailNeed is how many trailing windows onClose wants (max of alert
	// slow windows and flight-recorder window depth).
	tailNeed int

	cur          *Window
	curBuckets   [][]int64 // class → per-window delay bucket deltas
	curDelayN    []int64
	lastIncident int
	lastKind     string

	windows *Ring[Window]
}

// newSampler builds a sampler for the given class names ("default" when
// the sink has no class map).
func newSampler(cfg SamplerConfig, classes []string) *Sampler {
	if cfg.IntervalS <= 0 {
		cfg.IntervalS = 1
	}
	if cfg.Capacity <= 0 {
		cfg.Capacity = 512
	}
	if len(classes) == 0 {
		classes = []string{"default"}
	}
	sp := &Sampler{
		interval: cfg.IntervalS,
		classes:  classes,
		windows:  NewRing[Window](cfg.Capacity, nil),
	}
	sp.curBuckets = make([][]int64, len(classes))
	for c := range sp.curBuckets {
		sp.curBuckets[c] = make([]int64, histBuckets)
	}
	sp.curDelayN = make([]int64, len(classes))
	return sp
}

// Interval returns the window width in virtual seconds (0 when nil).
func (sp *Sampler) Interval() float64 {
	if sp == nil {
		return 0
	}
	return sp.interval
}

// observe folds one retired decision record into the current window,
// closing windows first if rec.TimeS crossed one or more boundaries.
// Called from Sink.Record only (serialized retire path).
func (sp *Sampler) observe(rec *DecisionRecord, class int) {
	sp.mu.Lock()
	defer sp.mu.Unlock()
	idx := int64(math.Floor(rec.TimeS / sp.interval))
	if idx < 0 {
		idx = 0
	}
	if sp.cur == nil {
		sp.openLocked(idx)
	}
	for sp.cur.Index < idx {
		sp.closeLocked()
	}
	w := sp.cur
	w.Events++
	w.Commits += int64(rec.Commits)
	w.Rejects += int64(rec.Rejects)
	w.NoChange += int64(rec.NoChange)
	w.Conflicts += int64(rec.Conflicts)
	switch rec.Kind {
	case "arrive":
		w.Arrivals++
		if !rec.Admitted {
			w.Drops++
		}
	case "depart":
		w.Departures++
		if !rec.Admitted {
			w.Skips++
		}
	default:
		w.Faults++
	}
	if rec.Stalled {
		w.Stalls++
	}
	w.Orphans += int64(rec.Orphans)
	w.Evacuated += int64(rec.Evacuated)
	w.EvacRejects += int64(rec.EvacRejects)
	if rec.Incident != 0 {
		sp.lastIncident = rec.Incident
		sp.lastKind = rec.Kind
		w.Incident = rec.Incident
		w.IncidentKind = rec.Kind
	}
	w.Objective = rec.Objective
	w.Active = float64(rec.ActiveSessions)
	if rec.DelayMS > 0 {
		if class < 0 || class >= len(sp.curBuckets) {
			class = 0
		}
		sp.curBuckets[class][bucketIndex(int64(rec.DelayMS*1e3))]++
		sp.curDelayN[class]++
	}
}

// Flush closes the currently open window (if any). Drivers call it once
// at the end of the run so the final partial window reaches the ring and
// the alert engine before exposition.
func (sp *Sampler) Flush() {
	if sp == nil {
		return
	}
	sp.mu.Lock()
	defer sp.mu.Unlock()
	if sp.cur != nil {
		sp.closeLocked()
		sp.cur = nil
	}
}

// openLocked starts window idx, inheriting the running incident marker.
func (sp *Sampler) openLocked(idx int64) {
	sp.cur = &Window{
		Index:        idx,
		StartS:       float64(idx) * sp.interval,
		EndS:         float64(idx+1) * sp.interval,
		Incident:     sp.lastIncident,
		IncidentKind: sp.lastKind,
	}
	for c := range sp.curBuckets {
		for i := range sp.curBuckets[c] {
			sp.curBuckets[c][i] = 0
		}
		sp.curDelayN[c] = 0
	}
}

// closeLocked finalizes the current window — derives rates and per-class
// percentiles, appends to the ring, notifies onClose — and opens the next.
func (sp *Sampler) closeLocked() {
	w := sp.cur
	if taskN := w.Commits + w.Rejects + w.NoChange; taskN > 0 {
		w.RejectRatio = float64(w.Rejects) / float64(taskN)
	}
	if cN := w.Commits + w.Conflicts; cN > 0 {
		w.ConflictRatio = float64(w.Conflicts) / float64(cN)
	}
	if admN := w.Arrivals + w.Orphans; admN > 0 {
		w.DropRatio = float64(w.Drops+w.EvacRejects) / float64(admN)
	}
	w.CommitsPerS = float64(w.Commits) / sp.interval
	for c, name := range sp.classes {
		if sp.curDelayN[c] == 0 {
			continue
		}
		var counts [histBuckets]int64
		copy(counts[:], sp.curBuckets[c])
		out := []int64{0, 0}
		quantilesFromCounts(&counts, sp.curDelayN[c], []float64{0.50, 0.99}, out)
		w.Classes = append(w.Classes, ClassWindow{
			Class:   name,
			DelayN:  sp.curDelayN[c],
			P50US:   out[0],
			P99US:   out[1],
			buckets: append([]int64(nil), sp.curBuckets[c]...),
		})
	}
	closed := *w
	sp.windows.Append(closed)
	if sp.onClose != nil {
		sp.onClose(&closed, sp.windows.Tail(sp.tailNeed))
	}
	sp.openLocked(w.Index + 1)
}

// Tail returns the newest n closed windows, oldest-first.
func (sp *Sampler) Tail(n int) []Window {
	if sp == nil || n <= 0 {
		return nil
	}
	return sp.windows.Tail(n)
}

// Windows returns every held closed window, oldest-first.
func (sp *Sampler) Windows() []Window {
	if sp == nil {
		return nil
	}
	return sp.windows.Items()
}

// TotalWindows returns the number of windows ever closed (held or
// overwritten).
func (sp *Sampler) TotalWindows() int64 {
	if sp == nil {
		return 0
	}
	return sp.windows.Total()
}

// TimeseriesDoc is the /timeseries.json document shape (also what
// vcreport ingests offline).
type TimeseriesDoc struct {
	IntervalS    float64  `json:"interval_s"`
	WindowsTotal int64    `json:"windows_total"`
	Windows      []Window `json:"windows"`
}

// WriteJSON renders the held windows as the /timeseries.json document.
// Works on a nil sampler (empty document), so the endpoint can be mounted
// unconditionally.
func (sp *Sampler) WriteJSON(w io.Writer) error {
	doc := TimeseriesDoc{Windows: []Window{}}
	if sp != nil {
		doc.IntervalS = sp.Interval()
		doc.WindowsTotal = sp.TotalWindows()
		doc.Windows = sp.Windows()
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(doc)
}
