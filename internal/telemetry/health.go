package telemetry

import (
	"fmt"
	"math"
	"sort"
	"sync"
)

// This file is the health monitor: the "what is happening right now" layer
// over the cumulative registry. It is one stage on the serialized retire
// path, guarded by one mutex, with three outputs:
//
//   - /timeseries.json: the run cut into fixed-width virtual-time windows.
//     A window holds per-window deltas (events, task outcomes, drops,
//     healing outcomes, per-class delay histogram bucket counts), never
//     cumulative values, so windowed rates and percentiles fall out
//     locally.
//   - /alerts.json: SLO burn-rate rules, Google-SRE style, evaluated as
//     each window closes. A rule's burn over the last K windows is
//     (bad fraction)/(budget); it fires only when both a fast (default 5
//     windows) and a slow (default 60 windows) burn reach the threshold,
//     and resolves as soon as the fast burn drops back under it.
//   - /flightrec.json: the incident flight recorder. A trigger freezes a
//     dump of the recent windows, the tails of the decision-record and
//     span rings, the fleet's capacity-scale map and the per-region
//     counters. Triggers: "alert" (a rule fired), "fault" (a
//     capacity-reducing incident healed), "evac-reject" (healing dropped
//     sessions), "invariant" (CheckInvariants failed). Fault-path triggers
//     dedupe per incident id; at most maxDumps are kept, later ones are
//     counted as dropped.
//
// Evaluation order. Sink.Record calls observe before it bumps the event
// counters and appends the record to its ring. observe first advances the
// incident marker and virtual clock, then closes every window the record's
// time has passed; each close derives the window's rates, appends it to
// the ring, evaluates every rule, and a fire freezes its dump right there.
// Only then does the record fold into the open window. So an alert dump's
// record tail and region counters stop short of the record that crossed
// the window boundary.
//
// Determinism contract: windows are indexed by virtual event time
// (floor(TimeS/interval)) and filled only from the decision-record stream,
// which retires in event order, never from racing reads of live
// counters. Two runs with the same seed produce byte-identical
// /timeseries.json and /alerts.json (no wall-clock field is kept).

// Sizes of the health monitor's bounded state.
const (
	windowCap     = 512  // closed windows held
	alertEventCap = 4096 // transitions kept; a run that trips it is misconfigured
	maxDumps      = 8    // flight dumps kept
	dumpWindows   = 16   // windows per dump
	dumpRecords   = 64   // decision records per dump
	dumpSpans     = 128  // spans per dump
)

// ClassWindow is one SLO class's slice of a window: how many delay
// observations landed and where their quarter-octave percentiles sat.
type ClassWindow struct {
	Class  string `json:"class"`
	DelayN int64  `json:"delay_n"`
	P50US  int64  `json:"delay_p50_us"`
	P99US  int64  `json:"delay_p99_us"`

	// buckets holds the window's delay observations on the shared
	// quarter-octave scale (µs), so threshold-exceedance counts stay exact.
	// The JSON surface carries the derived readings only.
	buckets []int64
}

// aboveUS counts the window's delay observations lying in buckets strictly
// above the bucket holding targetUS (quarter-octave resolution, ≈ ±12%):
// the "bad events" of a delay rule.
func (cw *ClassWindow) aboveUS(targetUS int64) int64 {
	var bad int64
	for i := bucketIndex(targetUS) + 1; i < len(cw.buckets); i++ {
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

// TimeseriesDoc is the /timeseries.json document (also what vcreport
// ingests offline).
type TimeseriesDoc struct {
	IntervalS    float64  `json:"interval_s"`
	WindowsTotal int64    `json:"windows_total"`
	Windows      []Window `json:"windows"`
}

// Rule kinds.
const (
	// RuleDelay counts delay observations above TargetUS in Class (all
	// classes when Class is empty) as bad; total is the class's delay
	// observations.
	RuleDelay = "delay"
	// RuleAvailability counts dropped arrivals plus evacuation rejects as
	// bad; total is arrivals plus orphans.
	RuleAvailability = "availability"
)

// SLORule is one declarative SLO with its burn-rate alerting policy.
type SLORule struct {
	Name  string `json:"name"`
	Kind  string `json:"kind"` // RuleDelay or RuleAvailability
	Class string `json:"class,omitempty"`
	// TargetUS is the delay cap (µs) for RuleDelay.
	TargetUS int64 `json:"target_us,omitempty"`
	// Budget is the error budget: the tolerated bad-event fraction
	// (e.g. 0.01 = 1%). Must be > 0.
	Budget float64 `json:"budget"`
	// FastWindows/SlowWindows are the two evaluation horizons in sampler
	// windows (defaults 5 and 60). FireBurn is the burn-rate threshold
	// both must exceed to fire (default 10 — bad fraction at 10× budget).
	FastWindows int     `json:"fast_windows"`
	SlowWindows int     `json:"slow_windows"`
	FireBurn    float64 `json:"fire_burn"`
}

// withDefaults fills the zero-valued policy knobs.
func (r SLORule) withDefaults() SLORule {
	if r.FastWindows <= 0 {
		r.FastWindows = 5
	}
	if r.SlowWindows <= 0 {
		r.SlowWindows = 60
	}
	if r.FireBurn <= 0 {
		r.FireBurn = 10
	}
	if r.Budget <= 0 {
		r.Budget = 0.01
	}
	return r
}

// Validate checks a rule's shape.
func (r SLORule) Validate() error {
	if r.Name == "" {
		return fmt.Errorf("telemetry: SLO rule needs a name")
	}
	switch r.Kind {
	case RuleDelay:
		if r.TargetUS <= 0 {
			return fmt.Errorf("telemetry: delay rule %q needs a positive target", r.Name)
		}
	case RuleAvailability:
	default:
		return fmt.Errorf("telemetry: rule %q has unknown kind %q", r.Name, r.Kind)
	}
	if r.Budget < 0 || r.Budget > 1 {
		return fmt.Errorf("telemetry: rule %q budget %v outside [0, 1]", r.Name, r.Budget)
	}
	return nil
}

// burn is rule r's burn rate over the trailing k windows of tail:
// (bad fraction)/(budget), 0 when no eligible events landed.
func (r *SLORule) burn(tail []Window, k int) float64 {
	var bad, total int64
	for i := max(0, len(tail)-k); i < len(tail); i++ {
		w := &tail[i]
		switch r.Kind {
		case RuleDelay:
			for ci := range w.Classes {
				cw := &w.Classes[ci]
				if r.Class != "" && cw.Class != r.Class {
					continue
				}
				bad += cw.aboveUS(r.TargetUS)
				total += cw.DelayN
			}
		case RuleAvailability:
			bad += w.Drops + w.EvacRejects
			total += w.Arrivals + w.Orphans
		}
	}
	if total == 0 {
		return 0
	}
	return float64(bad) / float64(total) / r.Budget
}

// DefaultSLORules is the stock -slo rule set: an availability SLO over
// admission (1% budget) plus a p-high delay SLO per configured class at
// the given per-class µs targets (classes missing from targets get no
// delay rule).
func DefaultSLORules(classes []string, targetUS map[string]int64) []SLORule {
	rules := []SLORule{{
		Name:   "availability",
		Kind:   RuleAvailability,
		Budget: 0.01,
	}}
	for _, c := range classes {
		t, ok := targetUS[c]
		if !ok || t <= 0 {
			continue
		}
		rules = append(rules, SLORule{
			Name:     c + "-delay",
			Kind:     RuleDelay,
			Class:    c,
			TargetUS: t,
			Budget:   0.05,
		})
	}
	return rules
}

// AlertEvent is one fire or resolve transition on the deterministic alert
// timeline. Window/TimeS index the closed window that triggered the
// transition; Incident correlates with the fault schedule's incident ids.
type AlertEvent struct {
	Seq          int     `json:"seq"`
	Rule         string  `json:"rule"`
	State        string  `json:"state"` // "fire" | "resolve"
	Window       int64   `json:"window"`
	TimeS        float64 `json:"time_s"`
	FastBurn     float64 `json:"fast_burn"`
	SlowBurn     float64 `json:"slow_burn"`
	Incident     int     `json:"incident,omitempty"`
	IncidentKind string  `json:"incident_kind,omitempty"`
}

// RuleStatus summarizes one rule's run-to-date alerting activity.
type RuleStatus struct {
	Rule          string  `json:"rule"`
	Firing        bool    `json:"firing"`
	Fires         int     `json:"fires"`
	Resolves      int     `json:"resolves"`
	FiringWindows int64   `json:"firing_windows"`
	FiringS       float64 `json:"firing_s"`
	MaxFastBurn   float64 `json:"max_fast_burn"`
}

// AlertsDoc is the /alerts.json document (also what vcreport ingests
// offline).
type AlertsDoc struct {
	IntervalS float64      `json:"interval_s"`
	Rules     []SLORule    `json:"rules"`
	Status    []RuleStatus `json:"status"`
	Events    []AlertEvent `json:"events"`
	Dropped   int64        `json:"dropped,omitempty"`
}

// flightTriggers are the trigger kinds, pre-registered on
// vconf_flight_dumps_total so scrapers see every kind at 0.
var flightTriggers = []string{"alert", "fault", "evac-reject", "invariant"}

// AgentScale is one impaired agent's effective capacity scale (healthy
// agents at scale 1 are omitted from the map).
type AgentScale struct {
	Agent int     `json:"agent"`
	Scale float64 `json:"scale"`
}

// RegionHealth is one region's cumulative counter readings at dump time.
type RegionHealth struct {
	Region          int   `json:"region"`
	Commits         int64 `json:"commits"`
	Rejects         int64 `json:"rejects"`
	Arrivals        int64 `json:"arrivals"`
	Departures      int64 `json:"departures"`
	EvacOK          int64 `json:"evac_ok"`
	EvacRejects     int64 `json:"evac_rejects"`
	DegradedRejects int64 `json:"degraded_rejects"`
}

// FlightDump is one frozen incident snapshot.
type FlightDump struct {
	Seq          int     `json:"seq"`
	Trigger      string  `json:"trigger"`
	Reason       string  `json:"reason"`
	Incident     int     `json:"incident,omitempty"`
	IncidentKind string  `json:"incident_kind,omitempty"`
	TimeS        float64 `json:"time_s"`

	ActiveAlerts   []string       `json:"active_alerts,omitempty"`
	CapacityScales []AgentScale   `json:"capacity_scales,omitempty"`
	Regions        []RegionHealth `json:"regions,omitempty"`

	Windows []Window         `json:"windows,omitempty"`
	Records []DecisionRecord `json:"records,omitempty"`
	Spans   []SpanRecord     `json:"spans,omitempty"`
}

// FlightDoc is the /flightrec.json document.
type FlightDoc struct {
	Dumps   []FlightDump `json:"dumps"`
	Dropped int64        `json:"dropped,omitempty"`
}

// health is the monitor behind the three documents. Record, Flush,
// TriggerFlight and SetCapacityScale reach it from the serialized retire
// and fault paths. mu guards all of its state; interval, classes, rules,
// need and the metric handles are fixed by newHealth.
type health struct {
	s *Sink // the rings and region counters a dump reads

	mu       sync.Mutex
	interval float64  // window width in virtual seconds; 0: no windows
	classes  []string // delay class names, "default" without a class map

	cur     *Window              // the open window (nil before the first record and after Flush)
	buckets [][histBuckets]int64 // per class: the open window's delay bucket deltas
	delayN  []int64              // per class: the open window's delay observations
	windows *Ring[Window]        // closed windows (nil when interval is 0)

	// The incident marker and virtual clock of the newest record.
	incident     int
	incidentKind string
	timeS        float64

	rules         []SLORule
	status        []RuleStatus // status[i].Firing is rule i's state
	events        []AlertEvent
	eventsDropped int64
	need          int // windows a close reads: the deepest rule horizon or a dump's
	firingGauge   *Gauge
	transitions   [][2]*Counter // per rule: [fire, resolve]

	dumps        []FlightDump
	dumpsDropped int64
	dumped       map[int]bool    // incident ids already dumped by a fault-path trigger
	scales       map[int]float64 // impaired agents' capacity scales
	dumpCtr      map[string]*Counter
}

// newHealth builds the monitor and registers its families: the dump
// counter always, the alert families only when rules are set. everyS <= 0
// turns windows off unless rules need them (then 1s). Invalid rules panic.
func newHealth(s *Sink, everyS float64, rules []SLORule) *health {
	if everyS <= 0 && len(rules) > 0 {
		everyS = 1
	}
	h := &health{
		s:        s,
		interval: max(everyS, 0),
		dumped:   make(map[int]bool),
		scales:   make(map[int]float64),
		dumpCtr:  make(map[string]*Counter, len(flightTriggers)),
		need:     dumpWindows,
	}
	for _, t := range flightTriggers {
		h.dumpCtr[t] = s.reg.Counter("vconf_flight_dumps_total", "flight-recorder dumps frozen, by trigger",
			Label{Key: "trigger", Value: t})
	}
	if h.interval == 0 {
		return h
	}
	h.classes = s.classes
	if len(h.classes) == 0 {
		h.classes = []string{"default"}
	}
	h.buckets = make([][histBuckets]int64, len(h.classes))
	h.delayN = make([]int64, len(h.classes))
	h.windows = NewRing[Window](windowCap, nil)
	if len(rules) == 0 {
		return h
	}
	h.firingGauge = s.reg.Gauge("vconf_alerts_firing", "SLO burn-rate rules currently firing")
	for _, r := range rules {
		r = r.withDefaults()
		if err := r.Validate(); err != nil {
			panic(err)
		}
		h.rules = append(h.rules, r)
		h.status = append(h.status, RuleStatus{Rule: r.Name})
		h.transitions = append(h.transitions, [2]*Counter{
			s.reg.Counter("vconf_alert_transitions_total", "SLO alert transitions, by rule and state",
				Label{Key: "rule", Value: r.Name}, Label{Key: "state", Value: "fire"}),
			s.reg.Counter("vconf_alert_transitions_total", "SLO alert transitions, by rule and state",
				Label{Key: "rule", Value: r.Name}, Label{Key: "state", Value: "resolve"}),
		})
		h.need = max(h.need, r.FastWindows, r.SlowWindows)
	}
	return h
}

// observe takes one retired record: marker and clock first, then the
// window closes (rules and alert dumps included), then the record's fold
// into the open window.
func (h *health) observe(rec *DecisionRecord, class int) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.timeS = rec.TimeS
	if rec.Incident != 0 {
		h.incident, h.incidentKind = rec.Incident, rec.Kind
	}
	if h.interval == 0 {
		return
	}
	idx := max(int64(math.Floor(rec.TimeS/h.interval)), 0)
	if h.cur == nil {
		// This record folds into the window it opens, so the marker it
		// just set is the one the window would carry anyway.
		h.openLocked(idx, h.incident, h.incidentKind)
	}
	// A closed window hands its marker to the next one: gap windows
	// must not see this record's incident.
	for h.cur.Index < idx {
		h.closeLocked()
	}
	w := h.cur
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
		w.Incident, w.IncidentKind = rec.Incident, rec.Kind
	}
	w.Objective = rec.Objective
	w.Active = float64(rec.ActiveSessions)
	if rec.DelayMS > 0 {
		if class < 0 || class >= len(h.classes) {
			class = 0
		}
		h.buckets[class][bucketIndex(int64(rec.DelayMS*1e3))]++
		h.delayN[class]++
	}
}

// openLocked starts window idx carrying the given incident marker.
func (h *health) openLocked(idx int64, incident int, kind string) {
	h.cur = &Window{
		Index:        idx,
		StartS:       float64(idx) * h.interval,
		EndS:         float64(idx+1) * h.interval,
		Incident:     incident,
		IncidentKind: kind,
	}
	clear(h.buckets)
	clear(h.delayN)
}

// closeLocked finalizes the open window — rates, per-class percentiles —
// appends it to the ring, evaluates the rules on it and opens the next.
func (h *health) closeLocked() {
	w := h.cur
	if taskN := w.Commits + w.Rejects + w.NoChange; taskN > 0 {
		w.RejectRatio = float64(w.Rejects) / float64(taskN)
	}
	if cN := w.Commits + w.Conflicts; cN > 0 {
		w.ConflictRatio = float64(w.Conflicts) / float64(cN)
	}
	if admN := w.Arrivals + w.Orphans; admN > 0 {
		w.DropRatio = float64(w.Drops+w.EvacRejects) / float64(admN)
	}
	w.CommitsPerS = float64(w.Commits) / h.interval
	for c, name := range h.classes {
		if h.delayN[c] == 0 {
			continue
		}
		q := []int64{0, 0}
		quantilesFromCounts(&h.buckets[c], h.delayN[c], []float64{0.50, 0.99}, q)
		w.Classes = append(w.Classes, ClassWindow{
			Class:   name,
			DelayN:  h.delayN[c],
			P50US:   q[0],
			P99US:   q[1],
			buckets: append([]int64(nil), h.buckets[c][:]...),
		})
	}
	h.windows.Append(*w)
	if len(h.rules) > 0 {
		h.evaluateLocked(w)
	}
	h.openLocked(w.Index+1, w.Incident, w.IncidentKind)
}

// evaluateLocked runs every rule over the ring's tail ending at the just
// closed window w. A fire freezes an "alert" dump on the spot.
func (h *health) evaluateLocked(w *Window) {
	tail := h.windows.Tail(h.need)
	nFiring := 0
	for i := range h.rules {
		r, st := &h.rules[i], &h.status[i]
		fast, slow := r.burn(tail, r.FastWindows), r.burn(tail, r.SlowWindows)
		st.MaxFastBurn = max(st.MaxFastBurn, fast)
		switch {
		case !st.Firing && fast >= r.FireBurn && slow >= r.FireBurn:
			st.Firing = true
			st.Fires++
			h.transitionLocked(i, 0, w, fast, slow)
			reason := fmt.Sprintf("%s: fast burn %.2f, slow burn %.2f at window %d", r.Name, fast, slow, w.Index)
			h.freezeLocked("alert", reason, tail[max(0, len(tail)-dumpWindows):])
		case st.Firing && fast < r.FireBurn:
			st.Firing = false
			st.Resolves++
			h.transitionLocked(i, 1, w, fast, slow)
		}
		if st.Firing {
			st.FiringWindows++
			st.FiringS = float64(st.FiringWindows) * h.interval
			nFiring++
		}
	}
	h.firingGauge.Set(float64(nFiring))
}

// transitionLocked records rule i's fire (state 0) or resolve (state 1)
// at window w on the timeline and its counter.
func (h *health) transitionLocked(i, state int, w *Window, fast, slow float64) {
	if len(h.events) >= alertEventCap {
		h.eventsDropped++
	} else {
		h.events = append(h.events, AlertEvent{
			Seq:          len(h.events) + int(h.eventsDropped),
			Rule:         h.rules[i].Name,
			State:        [2]string{"fire", "resolve"}[state],
			Window:       w.Index,
			TimeS:        w.EndS,
			FastBurn:     fast,
			SlowBurn:     slow,
			Incident:     w.Incident,
			IncidentKind: w.IncidentKind,
		})
	}
	h.transitions[i][state].Inc()
}

// freezeLocked files one flight dump with the given window tail, unless
// its incident was already dumped by a fault-path trigger or the budget
// is spent.
func (h *health) freezeLocked(trigger, reason string, windows []Window) {
	// The first dump for an incident wins: later re-triggers (evac-reject
	// after fault, repeated degrades of one renewal) don't burn the budget.
	if (trigger == "fault" || trigger == "evac-reject") && h.incident != 0 {
		if h.dumped[h.incident] {
			return
		}
		h.dumped[h.incident] = true
	}
	if len(h.dumps) >= maxDumps {
		h.dumpsDropped++
		return
	}
	s := h.s
	d := FlightDump{
		Seq:          len(h.dumps),
		Trigger:      trigger,
		Reason:       reason,
		Incident:     h.incident,
		IncidentKind: h.incidentKind,
		TimeS:        h.timeS,
		Windows:      windows,
		Records:      s.rec.Tail(dumpRecords),
		Spans:        s.spans.Tail(dumpSpans),
	}
	for i, st := range h.status {
		if st.Firing {
			d.ActiveAlerts = append(d.ActiveAlerts, h.rules[i].Name)
		}
	}
	for a, sc := range h.scales {
		d.CapacityScales = append(d.CapacityScales, AgentScale{Agent: a, Scale: sc})
	}
	sort.Slice(d.CapacityScales, func(i, j int) bool { return d.CapacityScales[i].Agent < d.CapacityScales[j].Agent })
	for r := 0; r < s.regions; r++ {
		rh := RegionHealth{
			Region:          r,
			Arrivals:        s.arrivals[r].Value(),
			Departures:      s.departs[r].Value(),
			EvacOK:          s.evac[0][r].Value(),
			EvacRejects:     s.evac[1][r].Value(),
			DegradedRejects: s.degRejects[r].Value(),
		}
		for c := 0; c < s.numClasses; c++ {
			rh.Commits += s.outcomes[OutcomeCommit][c*s.regions+r].Value()
			rh.Rejects += s.outcomes[OutcomeReject][c*s.regions+r].Value()
		}
		d.Regions = append(d.Regions, rh)
	}
	h.dumps = append(h.dumps, d)
	if c := h.dumpCtr[trigger]; c != nil {
		c.Inc()
	}
}

// tailLocked is the newest n closed windows (nil without windows).
func (h *health) tailLocked(n int) []Window {
	if h.windows == nil {
		return nil
	}
	return h.windows.Tail(n)
}

// Flush closes the open window, so the final series, alert evaluation and
// file dumps cover the whole horizon. Drivers call it once at the end of a
// run; a later record opens a fresh window.
func (s *Sink) Flush() {
	if s == nil {
		return
	}
	h := s.health
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.cur != nil {
		h.closeLocked()
		h.cur = nil
	}
}

// TriggerFlight freezes one flight-recorder dump with the newest closed
// windows as its timeline. The orchestrator calls it after the record of
// the event that caused it, so the incident marker already names that
// event's incident.
func (s *Sink) TriggerFlight(trigger, reason string) {
	if s == nil {
		return
	}
	h := s.health
	h.mu.Lock()
	defer h.mu.Unlock()
	h.freezeLocked(trigger, reason, h.tailLocked(dumpWindows))
}

// SetCapacityScale updates the flight recorder's mirror of an agent's
// effective capacity scale. The orchestrator calls it wherever it pushes a
// scale into the ledger, so a dump never needs the orchestrator's lock.
// Healthy (scale 1) agents leave the sparse map.
func (s *Sink) SetCapacityScale(agent int, scale float64) {
	if s == nil {
		return
	}
	h := s.health
	h.mu.Lock()
	defer h.mu.Unlock()
	if scale == 1 {
		delete(h.scales, agent)
	} else {
		h.scales[agent] = scale
	}
}

// TimeseriesDoc returns the held closed windows, oldest first. Without
// windows (or on a nil sink) it is the valid empty document.
func (s *Sink) TimeseriesDoc() TimeseriesDoc {
	doc := TimeseriesDoc{Windows: []Window{}}
	if s == nil || s.health.windows == nil {
		return doc
	}
	h := s.health
	h.mu.Lock()
	defer h.mu.Unlock()
	doc.IntervalS = h.interval
	doc.WindowsTotal = h.windows.Total()
	doc.Windows = h.windows.Items()
	return doc
}

// AlertsDoc returns the rule set, per-rule status and the transition
// timeline. Without rules (or on a nil sink) it is the valid empty
// document.
func (s *Sink) AlertsDoc() AlertsDoc {
	doc := AlertsDoc{Rules: []SLORule{}, Status: []RuleStatus{}, Events: []AlertEvent{}}
	if s == nil || len(s.health.rules) == 0 {
		return doc
	}
	h := s.health
	h.mu.Lock()
	defer h.mu.Unlock()
	doc.IntervalS = h.interval
	doc.Rules = append(doc.Rules, h.rules...)
	doc.Status = append(doc.Status, h.status...)
	doc.Events = append(doc.Events, h.events...)
	doc.Dropped = h.eventsDropped
	return doc
}

// FlightDoc returns the frozen dumps in trigger order and how many
// triggers came after the budget was spent.
func (s *Sink) FlightDoc() FlightDoc {
	doc := FlightDoc{Dumps: []FlightDump{}}
	if s == nil {
		return doc
	}
	h := s.health
	h.mu.Lock()
	defer h.mu.Unlock()
	doc.Dumps = append(doc.Dumps, h.dumps...)
	doc.Dropped = h.dumpsDropped
	return doc
}
