package telemetry

import (
	"math"
	"sort"
	"strconv"
	"time"
)

// TaskOutcome classifies one re-optimization task's terminal outcome for
// the per-region outcome counters.
type TaskOutcome int

const (
	OutcomeCommit TaskOutcome = iota
	OutcomeReject
	OutcomeNoChange
)

// Config sizes a Sink.
type Config struct {
	// Workers hints the counter shard width: one cache-line-padded cell
	// per solver worker plus one for the event loop. 0 defaults to 9
	// (8 workers + event loop); indices wrap, so an under-estimate is
	// safe — it costs sharing, never correctness.
	Workers int
	// TraceCapacity bounds the decision-record ring. 0 defaults to 4096.
	TraceCapacity int
	// SessionRegion maps session ID → region for per-region metric labels
	// (e.g. a geo-federated fleet's home regions). Nil labels everything
	// region 0.
	SessionRegion []int
	// Regions fixes the region count; 0 derives it from SessionRegion
	// (max+1, minimum 1).
	Regions int
	// SpanCapacity bounds the span ring. 0 defaults to 16384 (spans are
	// finer-grained than decision records: one event fans out into task,
	// phase and heal spans).
	SpanCapacity int
	// Classes names the SLO classes (e.g. workload.SLOClassNames); when
	// set, the commit/reject/no-change/conflict/latency families gain a
	// class label and SessionClass maps session ID → class index. Empty
	// keeps the PR 6 region-only label shape.
	Classes      []string
	SessionClass []int
	// SampleEveryS is the health monitor's window width in virtual
	// seconds: /timeseries.json and the SLO rules read its windows. <= 0
	// means no windows, or 1s when SLO rules are set.
	SampleEveryS float64
	// SLO declares the burn-rate alert rules evaluated as each window
	// closes. Invalid rules panic at New — a programmer error, like a
	// duplicate metric registration (validate with SLORule.Validate when
	// the rules come from user input).
	SLO []SLORule
}

// Sink is the instrumentation facade the orchestrator and schedulers call
// into. All methods are nil-receiver safe: a nil *Sink is the disabled
// state, reducing every call site to a pointer test with zero allocation
// (the alloc-pin tests enforce this), so hot paths carry no overhead when
// telemetry is off.
type Sink struct {
	reg   *Registry
	rec   *Ring[DecisionRecord]
	spans *Ring[SpanRecord]

	// spanSeq allocates causal span identities (atomic; 0 is reserved for
	// "no parent").
	spanSeq uint64

	sessionRegion []int
	regions       int
	sessionClass  []int
	classes       []string // empty when class labels are off
	numClasses    int      // max(1, len(classes))

	// Per-(class,region) handle slices indexed class*regions+region,
	// resolved once at construction so the hot path is an index, not a
	// registry lookup. Without configured classes the class dimension
	// collapses to 1 and labels stay region-only. arrivals/departs stay
	// per-region: the churn kind label already identifies them.
	commits   []*Counter
	rejects   []*Counter
	noChange  []*Counter
	conflicts []*Counter
	arrivals  []*Counter
	departs   []*Counter
	reoptLat  []*Histogram

	// Per-class SLO observability: post-decision session delay histograms,
	// running per-class delay sums backing the Jain fairness gauge.
	classDelay    []*Histogram
	classDelaySum []float64
	classDelayN   []int64
	fairness      *Gauge

	// Dist protocol families (pre-registered so scrapers see them at zero
	// even before any cross-region coordination runs).
	distFreeze   *Histogram
	distAbandons *Counter
	distRetries  *Counter

	// Ring-overwrite visibility for scrapers.
	recDropped  *Counter
	spanDropped *Counter

	// Fault-injection and self-healing instrumentation: injected fault
	// events by kind, orphaned sessions, per-region evacuation outcomes,
	// evacuation-latency and time-to-recovery histograms, and
	// rejects-during-degradation.
	faults      map[string]*Counter
	orphans     *Counter
	evacOK      []*Counter
	evacRej     []*Counter
	evacLat     *Histogram
	recoveryLat *Histogram
	degRejects  []*Counter

	// Global counters.
	stalls        *Counter
	drops         *Counter
	skips         *Counter
	invalidations *Counter
	cacheHits     *Counter
	cachePatches  *Counter
	cacheRebuilds *Counter
	phaseSnapshot *Counter
	phaseWalk     *Counter
	phaseCommit   *Counter
	walkEvaluated *Counter
	walkReused    *Counter
	walkAcross    *Counter

	// Gauges (event-loop writers only): the live placement.
	objective *Gauge
	active    *Gauge

	// health is the windowed sampler, the burn-rate alerts and the
	// incident flight recorder: one stage on the retire path.
	health *health

	// prevObjective backs ObjectiveDelta (Record is invoked from the
	// serialized event-retire path only).
	prevObjective float64
	haveObjective bool
	eventShard    int
}

// New builds an enabled sink. A nil *Sink (not New's result) is the
// disabled state.
func New(cfg Config) *Sink {
	if cfg.Workers <= 0 {
		cfg.Workers = 8
	}
	if cfg.TraceCapacity <= 0 {
		cfg.TraceCapacity = 4096
	}
	if cfg.SpanCapacity <= 0 {
		cfg.SpanCapacity = 16384
	}
	regions := cfg.Regions
	if regions <= 0 {
		regions = 1
		for _, r := range cfg.SessionRegion {
			if r+1 > regions {
				regions = r + 1
			}
		}
	}
	numClasses := len(cfg.Classes)
	if numClasses == 0 {
		numClasses = 1
	}
	s := &Sink{
		reg:           NewRegistry(cfg.Workers + 1),
		rec:           NewRing(cfg.TraceCapacity, func(r *DecisionRecord, q int64) { r.Seq = q }),
		spans:         NewRing(cfg.SpanCapacity, func(r *SpanRecord, q int64) { r.Seq = q }),
		sessionRegion: cfg.SessionRegion,
		regions:       regions,
		sessionClass:  cfg.SessionClass,
		classes:       cfg.Classes,
		numClasses:    numClasses,
		eventShard:    cfg.Workers,
	}
	s.commits = make([]*Counter, numClasses*regions)
	s.rejects = make([]*Counter, numClasses*regions)
	s.noChange = make([]*Counter, numClasses*regions)
	s.conflicts = make([]*Counter, numClasses*regions)
	s.reoptLat = make([]*Histogram, numClasses*regions)
	s.arrivals = make([]*Counter, regions)
	s.departs = make([]*Counter, regions)
	s.evacOK = make([]*Counter, regions)
	s.evacRej = make([]*Counter, regions)
	s.degRejects = make([]*Counter, regions)
	for c := 0; c < numClasses; c++ {
		for r := 0; r < regions; r++ {
			lbls := []Label{{Key: "region", Value: strconv.Itoa(r)}}
			if len(s.classes) > 0 {
				lbls = []Label{{Key: "class", Value: s.classes[c]}, {Key: "region", Value: strconv.Itoa(r)}}
			}
			i := c*regions + r
			s.commits[i] = s.reg.Counter("vconf_commits_total", "re-optimization proposals committed", lbls...)
			s.rejects[i] = s.reg.Counter("vconf_rejects_total", "re-optimization proposals rejected at commit validation", lbls...)
			s.noChange[i] = s.reg.Counter("vconf_nochange_total", "re-optimization walks that found no improvement", lbls...)
			s.conflicts[i] = s.reg.Counter("vconf_conflicts_total", "commit attempts that lost a cross-shard race", lbls...)
			s.reoptLat[i] = s.reg.Histogram("vconf_reopt_latency_ns", "per-event re-optimization barrier latency (ns)", lbls...)
		}
	}
	for r := 0; r < regions; r++ {
		lbl := Label{Key: "region", Value: strconv.Itoa(r)}
		s.arrivals[r] = s.reg.Counter("vconf_events_total", "churn events handled", Label{Key: "kind", Value: "arrive"}, lbl)
		s.departs[r] = s.reg.Counter("vconf_events_total", "churn events handled", Label{Key: "kind", Value: "depart"}, lbl)
		s.evacOK[r] = s.reg.Counter("vconf_evacuations_total", "orphaned sessions re-homed (ok) or dropped (reject) during healing",
			Label{Key: "result", Value: "ok"}, lbl)
		s.evacRej[r] = s.reg.Counter("vconf_evacuations_total", "orphaned sessions re-homed (ok) or dropped (reject) during healing",
			Label{Key: "result", Value: "reject"}, lbl)
		s.degRejects[r] = s.reg.Counter("vconf_degraded_rejects_total", "arrivals rejected while agents were failed or degraded", lbl)
	}
	s.classDelay = make([]*Histogram, numClasses)
	s.classDelaySum = make([]float64, numClasses)
	s.classDelayN = make([]int64, numClasses)
	for c := 0; c < numClasses; c++ {
		s.classDelay[c] = s.reg.Histogram("vconf_session_delay_us", "post-decision session mean-of-max delay (µs), by SLO class",
			Label{Key: "class", Value: s.className(c)})
	}
	s.fairness = s.reg.Gauge("vconf_class_delay_fairness", "Jain fairness index over per-class mean session delay (1 = perfectly fair)")
	s.distFreeze = s.reg.Histogram("vconf_dist_freeze_ns", "dist coordinator: per-session freeze hold (grant to release, ns)")
	s.distAbandons = s.reg.Counter("vconf_dist_abandons_total", "dist coordinator: frozen sessions abandoned by peer death or timeout")
	s.distRetries = s.reg.Counter("vconf_dist_retries_total", "dist runner: re-dialed coordination attempts after a failed exchange")
	s.recDropped = s.reg.Counter("vconf_trace_dropped_total", "ring records overwritten before scrape, by ring", Label{Key: "ring", Value: "decisions"})
	s.spanDropped = s.reg.Counter("vconf_trace_dropped_total", "ring records overwritten before scrape, by ring", Label{Key: "ring", Value: "spans"})
	s.faults = make(map[string]*Counter, len(faultKinds))
	for _, k := range faultKinds {
		s.faults[k] = s.reg.Counter("vconf_faults_injected_total", "fault events injected, by kind", Label{Key: "kind", Value: k})
	}
	s.orphans = s.reg.Counter("vconf_orphans_total", "sessions orphaned by failures and degradations")
	s.evacLat = s.reg.Histogram("vconf_evacuation_latency_ns", "per-orphan evacuation (re-home) latency (ns)")
	s.recoveryLat = s.reg.Histogram("vconf_time_to_recovery_ns", "per-incident time to recovery (ns)")
	s.stalls = s.reg.Counter("vconf_admission_stalls_total", "events whose admission waited in the pipelined scheduler")
	s.drops = s.reg.Counter("vconf_dropped_arrivals_total", "arrivals rejected at admission")
	s.skips = s.reg.Counter("vconf_skipped_departures_total", "departures for never-admitted sessions")
	s.invalidations = s.reg.Counter("vconf_delay_cache_invalidations_total", "delay-cache entries torn down by departures")
	s.cacheHits = s.reg.Counter("vconf_delay_cache_evals_total", "delay-cache evaluation outcomes", Label{Key: "result", Value: "hit"})
	s.cachePatches = s.reg.Counter("vconf_delay_cache_evals_total", "delay-cache evaluation outcomes", Label{Key: "result", Value: "patch"})
	s.cacheRebuilds = s.reg.Counter("vconf_delay_cache_evals_total", "delay-cache evaluation outcomes", Label{Key: "result", Value: "rebuild"})
	s.phaseSnapshot = s.reg.Counter("vconf_task_phase_ns_total", "cumulative task time per phase (ns)", Label{Key: "phase", Value: "snapshot"})
	s.phaseWalk = s.reg.Counter("vconf_task_phase_ns_total", "cumulative task time per phase (ns)", Label{Key: "phase", Value: "walk"})
	s.phaseCommit = s.reg.Counter("vconf_task_phase_ns_total", "cumulative task time per phase (ns)", Label{Key: "phase", Value: "commit"})
	s.walkEvaluated = s.reg.Counter("vconf_walk_hops_total", "refinement-walk hops, by where the candidate set came from", Label{Key: "result", Value: "evaluated"})
	s.walkReused = s.reg.Counter("vconf_walk_hops_total", "refinement-walk hops, by where the candidate set came from", Label{Key: "result", Value: "reused"})
	s.walkAcross = s.reg.Counter("vconf_walk_hops_total", "refinement-walk hops, by where the candidate set came from", Label{Key: "result", Value: "reused_across"})
	s.objective = s.reg.Gauge("vconf_objective", "Σ Φ_s over active sessions")
	s.active = s.reg.Gauge("vconf_active_sessions", "live session count")

	// The flight recorder is always on for an enabled sink: it costs
	// nothing until triggered, and -chaos runs without SLO rules still
	// want fault dumps.
	s.health = newHealth(s, cfg.SampleEveryS, cfg.SLO)
	return s
}

// Enabled reports whether the sink is live.
func (s *Sink) Enabled() bool { return s != nil }

// Registry exposes the metric registry (nil when disabled).
func (s *Sink) Registry() *Registry {
	if s == nil {
		return nil
	}
	return s.reg
}

// Recorder exposes the decision-record ring (nil when disabled).
func (s *Sink) Recorder() *Ring[DecisionRecord] {
	if s == nil {
		return nil
	}
	return s.rec
}

// EventShard is the counter shard reserved for the event loop / retire
// path (workers use their own indices).
func (s *Sink) EventShard() int {
	if s == nil {
		return 0
	}
	return s.eventShard
}

// RegionOf maps a session to its metric region (0 without a map).
func (s *Sink) RegionOf(session int) int {
	if s == nil || session < 0 || session >= len(s.sessionRegion) {
		return 0
	}
	r := s.sessionRegion[session]
	if r < 0 || r >= s.regions {
		return 0
	}
	return r
}

// Regions returns the label cardinality of the per-region series.
func (s *Sink) Regions() int {
	if s == nil {
		return 0
	}
	return s.regions
}

// ClassOf maps a session to its SLO class index (0 without a class map).
func (s *Sink) ClassOf(session int) int {
	if s == nil || session < 0 || session >= len(s.sessionClass) {
		return 0
	}
	c := s.sessionClass[session]
	if c < 0 || c >= s.numClasses {
		return 0
	}
	return c
}

// Classes returns the configured class names (nil when class labels are
// off).
func (s *Sink) Classes() []string {
	if s == nil {
		return nil
	}
	return s.classes
}

// className is the label value for class c ("default" when classes are
// unconfigured, so always-registered per-class families stay labeled).
func (s *Sink) className(c int) string {
	if c >= 0 && c < len(s.classes) {
		return s.classes[c]
	}
	return "default"
}

// crIndex flattens (class, region) into the per-(class,region) handle
// slices, clamping both out-of-range dimensions to 0.
func (s *Sink) crIndex(class, region int) int {
	if region < 0 || region >= s.regions {
		region = 0
	}
	if class < 0 || class >= s.numClasses {
		class = 0
	}
	return class*s.regions + region
}

// TaskOutcome counts one task's terminal outcome on the worker's counter
// shard, labeled with the task session's region and SLO class.
func (s *Sink) TaskOutcome(worker, region, class int, oc TaskOutcome) {
	if s == nil {
		return
	}
	i := s.crIndex(class, region)
	switch oc {
	case OutcomeCommit:
		s.commits[i].Inc(worker)
	case OutcomeReject:
		s.rejects[i].Inc(worker)
	case OutcomeNoChange:
		s.noChange[i].Inc(worker)
	}
}

// TaskConflict counts one lost cross-shard commit race.
func (s *Sink) TaskConflict(worker, region, class int) {
	if s == nil {
		return
	}
	s.conflicts[s.crIndex(class, region)].Inc(worker)
}

// TaskPhases accumulates one task's phase durations (ns).
func (s *Sink) TaskPhases(worker int, snapshotNs, walkNs, commitNs int64) {
	if s == nil {
		return
	}
	s.phaseSnapshot.Add(worker, snapshotNs)
	s.phaseWalk.Add(worker, walkNs)
	s.phaseCommit.Add(worker, commitNs)
}

// CacheEvals accumulates delay-cache outcome deltas from one task.
func (s *Sink) CacheEvals(worker int, hits, patches, rebuilds int64) {
	if s == nil {
		return
	}
	if hits != 0 {
		s.cacheHits.Add(worker, hits)
	}
	if patches != 0 {
		s.cachePatches.Add(worker, patches)
	}
	if rebuilds != 0 {
		s.cacheRebuilds.Add(worker, rebuilds)
	}
}

// WalkHops accumulates one refinement walk's hops: reused of them took
// their candidate set from the walk's memo, across of them from the
// session's memo of earlier walks, the rest evaluated it.
func (s *Sink) WalkHops(worker, hops, reused, across int) {
	if s == nil {
		return
	}
	s.walkEvaluated.Add(worker, int64(hops-reused-across))
	s.walkReused.Add(worker, int64(reused))
	s.walkAcross.Add(worker, int64(across))
}

// Record emits one decision record: it fills the derived fields (region,
// wall time, objective delta), updates the event-scoped metrics, and
// appends to the trace ring. Called from the serialized event-handling /
// retire path, never from workers.
func (s *Sink) Record(rec DecisionRecord) {
	if s == nil {
		return
	}
	rec.Region = s.RegionOf(rec.Session)
	class := s.ClassOf(rec.Session)
	if len(s.classes) > 0 {
		rec.Class = s.className(class)
	}
	if rec.WallNs == 0 {
		rec.WallNs = time.Now().UnixNano()
	}
	if s.haveObjective {
		rec.ObjectiveDelta = rec.Objective - s.prevObjective
	}
	s.prevObjective = rec.Objective
	s.haveObjective = true

	// Health monitoring rides the serialized retire path, before the
	// counters and the ring see this record (see health.go for the order).
	// Workers never see any of this.
	s.health.observe(&rec, class)

	sh := s.eventShard
	if rec.DelayMS > 0 {
		s.classDelay[class].Observe(int64(rec.DelayMS * 1e3))
		s.classDelaySum[class] += rec.DelayMS
		s.classDelayN[class]++
		s.fairness.Set(s.jainLocked())
	}
	switch rec.Kind {
	case "depart":
		s.departs[rec.Region].Inc(sh)
		if !rec.Admitted {
			s.skips.Inc(sh)
		}
	case "arrive":
		s.arrivals[rec.Region].Inc(sh)
		if !rec.Admitted {
			s.drops.Inc(sh)
		}
	default:
		// Fault-injection kinds count into their own family, never into the
		// churn event/drop/skip counters.
		if c := s.faults[rec.Kind]; c != nil {
			c.Inc(sh)
		}
	}
	if rec.Stalled {
		s.stalls.Inc(sh)
	}
	if rec.CacheInvalidated > 0 {
		s.invalidations.Add(sh, int64(rec.CacheInvalidated))
	}
	s.reoptLat[s.crIndex(class, rec.Region)].Observe(rec.LatencyNs)
	s.objective.Set(rec.Objective)
	s.active.Set(float64(rec.ActiveSessions))
	if s.rec.Append(rec) {
		s.recDropped.Inc(sh)
	}
}

// jainLocked computes the Jain fairness index (Σx)²/(n·Σx²) over the
// per-class mean delays with at least one observation. 1 means every class
// sees the same mean delay; 1/n means one class absorbs all of it. Called
// only from the serialized Record path (like the running sums it reads).
func (s *Sink) jainLocked() float64 {
	var sum, sumSq float64
	n := 0
	for c := 0; c < s.numClasses; c++ {
		if s.classDelayN[c] == 0 {
			continue
		}
		m := s.classDelaySum[c] / float64(s.classDelayN[c])
		sum += m
		sumSq += m * m
		n++
	}
	if n == 0 || sumSq == 0 {
		return 0
	}
	return sum * sum / (float64(n) * sumSq)
}

// DistFreeze observes one coordinator freeze hold (grant → release, ns).
func (s *Sink) DistFreeze(ns int64) {
	if s == nil {
		return
	}
	s.distFreeze.Observe(ns)
}

// DistAbandon counts one frozen session abandoned by peer death/timeout.
func (s *Sink) DistAbandon() {
	if s == nil {
		return
	}
	s.distAbandons.Inc(s.eventShard)
}

// DistRetry counts one re-dialed runner attempt after a failed exchange.
func (s *Sink) DistRetry() {
	if s == nil {
		return
	}
	s.distRetries.Inc(s.eventShard)
}

// faultKinds are the record kinds routed to vconf_faults_injected_total
// (workload.EventKind.String() for the fault kinds).
var faultKinds = []string{"agent-fail", "agent-recover", "region-outage", "region-recover", "degrade", "flash-crowd"}

// Evacuation counts one orphan's re-home attempt (ok or reject) and its
// latency. Called from the serialized fault-handling path.
func (s *Sink) Evacuation(region int, ok bool, latencyNs int64) {
	if s == nil {
		return
	}
	if region < 0 || region >= s.regions {
		region = 0
	}
	sh := s.eventShard
	s.orphans.Inc(sh)
	if ok {
		s.evacOK[region].Inc(sh)
	} else {
		s.evacRej[region].Inc(sh)
	}
	s.evacLat.Observe(latencyNs)
}

// Incident records one incident's time-to-recovery.
func (s *Sink) Incident(ttrNs int64) {
	if s == nil {
		return
	}
	s.recoveryLat.Observe(ttrNs)
}

// DegradedReject counts one arrival rejected while the fleet was impaired.
func (s *Sink) DegradedReject(region int) {
	if s == nil {
		return
	}
	if region < 0 || region >= s.regions {
		region = 0
	}
	s.degRejects[region].Inc(s.eventShard)
}

// CounterfactualSummary aggregates counterfactual-k over the held records:
// the count of committed decisions with a valid 2nd-best gap, plus the
// mean and p99 of that gap (the regret had the runner-up been chosen).
func (s *Sink) CounterfactualSummary() (n int, mean, p99 float64) {
	if s == nil {
		return 0, 0, 0
	}
	var gaps []float64
	for _, rec := range s.rec.Items() {
		if rec.CfValid && rec.Commits > 0 {
			gaps = append(gaps, rec.CfGap)
		}
	}
	if len(gaps) == 0 {
		return 0, 0, 0
	}
	sum := 0.0
	for _, g := range gaps {
		sum += g
	}
	sort.Float64s(gaps)
	idx := int(math.Ceil(0.99*float64(len(gaps)))) - 1
	if idx < 0 {
		idx = 0
	}
	return len(gaps), sum / float64(len(gaps)), gaps[idx]
}
