package telemetry

import (
	"encoding/json"
	"io"
	"os"
	"sort"
	"sync"
)

// This file is the incident flight recorder: a bounded black box that, on
// trigger, freezes a correlated snapshot of what the control plane looked
// like — the sampler's recent windows, the tail of the decision-record
// and span rings, the fleet's capacity-scale map and per-region health
// counters — so every chaos incident ships its own post-mortem artifact at
// /flightrec.json (and vcsim -flightrec-out).
//
// Triggers: "alert" (an SLO burn-rate rule fired), "fault" (an injected
// capacity-reducing incident healed), "evac-reject" (healing had to drop
// sessions), "invariant" (CheckInvariants failed). Fault-path triggers
// dedupe per incident id so re-triggers never burn the dump budget; the
// bound is MaxDumps with a counted drop overflow.

// FlightConfig sizes the flight recorder.
type FlightConfig struct {
	// MaxDumps bounds retained dumps (<= 0 defaults to 8).
	MaxDumps int
	// Windows / Records / Spans bound each dump's timeline neighborhood
	// (defaults 16 / 64 / 128).
	Windows int
	Records int
	Spans   int
}

func (c FlightConfig) withDefaults() FlightConfig {
	if c.MaxDumps <= 0 {
		c.MaxDumps = 8
	}
	if c.Windows <= 0 {
		c.Windows = 16
	}
	if c.Records <= 0 {
		c.Records = 64
	}
	if c.Spans <= 0 {
		c.Spans = 128
	}
	return c
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

// FlightRecorder retains the frozen dumps plus the live state the dumps
// snapshot from: the fleet capacity-scale mirror and the running incident
// marker (both written from serialized paths, read at dump time without
// touching any orchestrator lock).
type FlightRecorder struct {
	mu      sync.Mutex
	cfg     FlightConfig
	dumps   []FlightDump
	dropped int64
	seen    map[int]bool // incident ids already dumped by fault-path triggers
	scales  map[int]float64

	lastIncident     int
	lastIncidentKind string
	lastTimeS        float64

	dumpCtr map[string]*Counter
	shard   int
}

func newFlightRecorder(cfg FlightConfig) *FlightRecorder {
	return &FlightRecorder{
		cfg:    cfg.withDefaults(),
		seen:   make(map[int]bool),
		scales: make(map[int]float64),
	}
}

// noteRecord advances the incident marker and virtual clock from one
// retired decision record.
func (f *FlightRecorder) noteRecord(rec *DecisionRecord) {
	f.mu.Lock()
	f.lastTimeS = rec.TimeS
	if rec.Incident != 0 {
		f.lastIncident = rec.Incident
		f.lastIncidentKind = rec.Kind
	}
	f.mu.Unlock()
}

// Dumps returns the retained dumps in trigger order.
func (f *FlightRecorder) Dumps() []FlightDump {
	if f == nil {
		return nil
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]FlightDump(nil), f.dumps...)
}

// Dropped returns how many triggers arrived after MaxDumps filled.
func (f *FlightRecorder) Dropped() int64 {
	if f == nil {
		return 0
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.dropped
}

// scalesLocked renders the capacity-scale mirror as a sorted sparse map
// (impaired agents only).
func (f *FlightRecorder) scalesLocked() []AgentScale {
	if len(f.scales) == 0 {
		return nil
	}
	out := make([]AgentScale, 0, len(f.scales))
	for a, s := range f.scales {
		out = append(out, AgentScale{Agent: a, Scale: s})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Agent < out[j].Agent })
	return out
}

// FlightDoc is the /flightrec.json document shape.
type FlightDoc struct {
	Dumps   []FlightDump `json:"dumps"`
	Dropped int64        `json:"dropped,omitempty"`
}

// WriteJSON renders the retained dumps. Works on a nil recorder (empty
// document), so the endpoint can be mounted unconditionally.
func (f *FlightRecorder) WriteJSON(w io.Writer) error {
	doc := FlightDoc{Dumps: []FlightDump{}}
	if f != nil {
		f.mu.Lock()
		doc.Dumps = append(doc.Dumps, f.dumps...)
		doc.Dropped = f.dropped
		f.mu.Unlock()
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(doc)
}

// WriteFile writes the dump document to path (the -flightrec-out format).
func (f *FlightRecorder) WriteFile(path string) error {
	out, err := os.Create(path)
	if err != nil {
		return err
	}
	werr := f.WriteJSON(out)
	if cerr := out.Close(); werr == nil {
		werr = cerr
	}
	return werr
}

// SetCapacityScale updates the flight recorder's fleet capacity mirror.
// The orchestrator calls this wherever it pushes effective scales into
// the ledger, so dump-time reads never need the orchestrator lock.
// Healthy (scale 1) agents are evicted from the sparse map.
func (s *Sink) SetCapacityScale(agent int, scale float64) {
	if s == nil || s.flight == nil {
		return
	}
	f := s.flight
	f.mu.Lock()
	if scale == 1 {
		delete(f.scales, agent)
	} else {
		f.scales[agent] = scale
	}
	f.mu.Unlock()
}

// Flight exposes the flight recorder (nil when disabled).
func (s *Sink) Flight() *FlightRecorder {
	if s == nil {
		return nil
	}
	return s.flight
}

// TriggerFlight freezes one flight-recorder dump with the sampler's
// recent windows as the timeline neighborhood. No-op when disabled.
// Callers hold no telemetry lock (the orchestrator's fault and invariant
// paths come through here).
func (s *Sink) TriggerFlight(trigger, reason string) {
	if s == nil || s.flight == nil {
		return
	}
	var tail []Window
	if s.sampler != nil {
		tail = s.sampler.Tail(s.flight.cfg.Windows)
	}
	s.triggerFlight(trigger, reason, tail, s.alerts.ActiveAlerts())
}

// triggerFlight is the common dump path. tail and active are pre-fetched
// by the caller: the alert-fire path arrives here while still holding the
// sampler and engine locks, so this function must never call back into
// either.
func (s *Sink) triggerFlight(trigger, reason string, tail []Window, active []string) {
	f := s.flight
	f.mu.Lock()
	// Fault-path triggers dedupe per incident: the first dump for an
	// incident wins, later re-triggers (evac-reject after fault, repeated
	// degrades of one renewal) don't burn the budget.
	if (trigger == "fault" || trigger == "evac-reject") && f.lastIncident != 0 {
		if f.seen[f.lastIncident] {
			f.mu.Unlock()
			return
		}
		f.seen[f.lastIncident] = true
	}
	if len(f.dumps) >= f.cfg.MaxDumps {
		f.dropped++
		f.mu.Unlock()
		return
	}
	d := FlightDump{
		Trigger:        trigger,
		Reason:         reason,
		Incident:       f.lastIncident,
		IncidentKind:   f.lastIncidentKind,
		TimeS:          f.lastTimeS,
		ActiveAlerts:   active,
		CapacityScales: f.scalesLocked(),
		Windows:        tail,
	}
	f.mu.Unlock()

	// Assemble the ring tails and counter readings outside the recorder
	// lock (ring reads take their own mutexes; counter reads are
	// lock-free).
	d.Records = s.rec.Tail(f.cfg.Records)
	d.Spans = s.spans.Tail(f.cfg.Spans)
	for r := 0; r < s.regions; r++ {
		rh := RegionHealth{
			Region:          r,
			Arrivals:        s.arrivals[r].Value(),
			Departures:      s.departs[r].Value(),
			EvacOK:          s.evacOK[r].Value(),
			EvacRejects:     s.evacRej[r].Value(),
			DegradedRejects: s.degRejects[r].Value(),
		}
		for c := 0; c < s.numClasses; c++ {
			rh.Commits += s.commits[c*s.regions+r].Value()
			rh.Rejects += s.rejects[c*s.regions+r].Value()
		}
		d.Regions = append(d.Regions, rh)
	}

	f.mu.Lock()
	if len(f.dumps) < f.cfg.MaxDumps {
		d.Seq = len(f.dumps)
		f.dumps = append(f.dumps, d)
		if f.dumpCtr != nil {
			if c := f.dumpCtr[trigger]; c != nil {
				c.Inc(f.shard)
			}
		}
	} else {
		f.dropped++
	}
	f.mu.Unlock()
}
