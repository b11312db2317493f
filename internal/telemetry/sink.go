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
	// OutcomeNone: the task ended without an outcome (its session had
	// departed, or the walk failed).
	OutcomeNone TaskOutcome = iota
	OutcomeCommit
	OutcomeReject
	OutcomeNoChange
)

// outcomeFamilies names the counter family each TaskOutcome counts into
// (OutcomeNone counts nowhere).
var outcomeFamilies = [...]struct{ name, help string }{
	OutcomeCommit:   {"vconf_commits_total", "re-optimization proposals committed"},
	OutcomeReject:   {"vconf_rejects_total", "re-optimization proposals rejected at commit validation"},
	OutcomeNoChange: {"vconf_nochange_total", "re-optimization walks that found no improvement"},
}

// The label values of the Task families counted from the three TaskResult
// triples, in TaskResult's field order.
var (
	evalResults = [...]string{"hit", "patch", "rebuild"}
	taskPhases  = [...]string{"snapshot", "walk", "commit"}
	hopSources  = [...]string{"evaluated", "reused", "reused_across"}
)

// TaskResult is what one finished re-optimization task reports: its
// outcome, its lost commit races, its walk's hops and, with a sink, its
// phase times and delay-cache outcomes. The worker that runs the task is
// its only writer; Sink.Task counts it once the event's tasks have all
// finished.
type TaskResult struct {
	Outcome   TaskOutcome
	Conflicts int
	// Hops is the number of hops the task's walks took; Reused of them took
	// their candidate set from the walk's memo, ReusedAcross from the
	// session's memo of earlier walks, the rest evaluated it.
	Hops, Reused, ReusedAcross int
	// SnapshotNs, WalkNs and CommitNs are the task's phase times.
	SnapshotNs, WalkNs, CommitNs int64
	// CacheHits, CachePatches and CacheRebuilds are the task's delay-cache
	// evaluation outcomes.
	CacheHits, CachePatches, CacheRebuilds int64
}

// Config sizes a Sink.
type Config struct {
	// Deprecated: Workers has no effect; it is kept so callers that set it
	// still compile. Counters are single atomics written by the event
	// stages (Record, Task, ...), never by solver workers.
	Workers int
	// TraceCapacity bounds the decision-record ring. 0 defaults to 4096.
	TraceCapacity int
	// SessionRegion maps session ID → region for per-region metric labels
	// (e.g. a geo-federated fleet's home regions): a record counts under
	// its trigger session's region, a task under its own session's, an
	// evacuation or degraded reject under its orphan's or arrival's. Nil
	// labels everything region 0.
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
	// resolved once at construction so a count is an index, not a
	// registry lookup. Without configured classes the class dimension
	// collapses to 1 and labels stay region-only. outcomes is indexed by
	// TaskOutcome (OutcomeNone's slice is nil). arrivals/departs stay
	// per-region: the churn kind label already identifies them.
	outcomes  [len(outcomeFamilies)][]*Counter
	conflicts []*Counter
	arrivals  []*Counter
	departs   []*Counter
	reoptLat  []*Histogram

	// Per-class SLO observability: post-decision session delay histograms,
	// running per-class delay sums backing the Jain fairness gauge, and the
	// buffer the gauge's per-class means are gathered in.
	classDelay    []*Histogram
	classDelaySum []float64
	classDelayN   []int64
	classMeans    []float64
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
	// events by kind, orphaned sessions, per-region evacuation outcomes
	// (evac[0] re-homed, evac[1] dropped), evacuation-latency and
	// time-to-recovery histograms, and rejects-during-degradation.
	faults      map[string]*Counter
	orphans     *Counter
	evac        [2][]*Counter
	evacLat     *Histogram
	recoveryLat *Histogram
	degRejects  []*Counter

	// Global counters; each array is one family indexed by its label's
	// values (evalResults, taskPhases, hopSources).
	stalls     *Counter
	drops      *Counter
	skips      *Counter
	cacheEvals [len(evalResults)]*Counter
	phases     [len(taskPhases)]*Counter
	walkHops   [len(hopSources)]*Counter

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
}

// New builds an enabled sink. A nil *Sink (not New's result) is the
// disabled state.
func New(cfg Config) *Sink {
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
		reg:           NewRegistry(),
		rec:           NewRing(cfg.TraceCapacity, func(r *DecisionRecord, q int64) { r.Seq = q }),
		spans:         NewRing(cfg.SpanCapacity, func(r *SpanRecord, q int64) { r.Seq = q }),
		sessionRegion: cfg.SessionRegion,
		regions:       regions,
		sessionClass:  cfg.SessionClass,
		classes:       cfg.Classes,
		numClasses:    numClasses,
	}
	// The handles append in index order: class*regions+region, then region.
	for c := 0; c < numClasses; c++ {
		for r := 0; r < regions; r++ {
			lbls := []Label{{Key: "region", Value: strconv.Itoa(r)}}
			if len(s.classes) > 0 {
				lbls = []Label{{Key: "class", Value: s.classes[c]}, {Key: "region", Value: strconv.Itoa(r)}}
			}
			for o := OutcomeCommit; o < TaskOutcome(len(outcomeFamilies)); o++ {
				f := outcomeFamilies[o]
				s.outcomes[o] = append(s.outcomes[o], s.reg.Counter(f.name, f.help, lbls...))
			}
			s.conflicts = append(s.conflicts, s.reg.Counter("vconf_conflicts_total", "commit attempts that lost a cross-shard race", lbls...))
			s.reoptLat = append(s.reoptLat, s.reg.Histogram("vconf_reopt_latency_ns", "per-event re-optimization barrier latency (ns)", lbls...))
		}
	}
	for r := 0; r < regions; r++ {
		lbl := Label{Key: "region", Value: strconv.Itoa(r)}
		s.arrivals = append(s.arrivals, s.reg.Counter("vconf_events_total", "churn events handled", Label{Key: "kind", Value: "arrive"}, lbl))
		s.departs = append(s.departs, s.reg.Counter("vconf_events_total", "churn events handled", Label{Key: "kind", Value: "depart"}, lbl))
		for k, result := range [2]string{"ok", "reject"} {
			s.evac[k] = append(s.evac[k], s.reg.Counter("vconf_evacuations_total",
				"orphaned sessions re-homed (ok) or dropped (reject) during healing", Label{Key: "result", Value: result}, lbl))
		}
		s.degRejects = append(s.degRejects, s.reg.Counter("vconf_degraded_rejects_total", "arrivals rejected while agents were failed or degraded", lbl))
	}
	s.classDelaySum = make([]float64, numClasses)
	s.classDelayN = make([]int64, numClasses)
	s.classMeans = make([]float64, 0, numClasses)
	for c := 0; c < numClasses; c++ {
		s.classDelay = append(s.classDelay, s.reg.Histogram("vconf_session_delay_us", "post-decision session mean-of-max delay (µs), by SLO class",
			Label{Key: "class", Value: s.className(c)}))
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
	for k, v := range evalResults {
		s.cacheEvals[k] = s.reg.Counter("vconf_delay_cache_evals_total", "delay-cache evaluation outcomes", Label{Key: "result", Value: v})
	}
	for k, v := range taskPhases {
		s.phases[k] = s.reg.Counter("vconf_task_phase_ns_total", "cumulative task time per phase (ns)", Label{Key: "phase", Value: v})
	}
	for k, v := range hopSources {
		s.walkHops[k] = s.reg.Counter("vconf_walk_hops_total", "refinement-walk hops, by where the candidate set came from", Label{Key: "result", Value: v})
	}
	s.objective = s.reg.Gauge("vconf_objective", "Σ Φ_s over active sessions")
	s.active = s.reg.Gauge("vconf_active_sessions", "live session count")

	// The flight recorder is always on for an enabled sink: it costs
	// nothing until triggered, and -chaos runs without SLO rules still
	// want fault dumps.
	s.health = newHealth(s, cfg.SampleEveryS, cfg.SLO)
	return s
}

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

// regionOf maps a session to its metric region (0 without a map or out
// of range).
func (s *Sink) regionOf(session int) int {
	if session < 0 || session >= len(s.sessionRegion) {
		return 0
	}
	r := s.sessionRegion[session]
	if r < 0 || r >= s.regions {
		return 0
	}
	return r
}

// classOf maps a session to its SLO class index (0 without a class map or
// out of range).
func (s *Sink) classOf(session int) int {
	if session < 0 || session >= len(s.sessionClass) {
		return 0
	}
	c := s.sessionClass[session]
	if c < 0 || c >= s.numClasses {
		return 0
	}
	return c
}

// className is the label value for class c ("default" when classes are
// unconfigured, so always-registered per-class families stay labeled).
func (s *Sink) className(c int) string {
	if c >= 0 && c < len(s.classes) {
		return s.classes[c]
	}
	return "default"
}

// crIndex flattens session's (class, region) labels into the
// per-(class,region) handle slices.
func (s *Sink) crIndex(session int) int {
	return s.classOf(session)*s.regions + s.regionOf(session)
}

// Task counts one finished re-optimization task of session under the
// session's (class, region) labels: its outcome and lost commit races,
// plus its phase times, delay-cache outcomes and walk hops. The event's
// re-optimization stage calls it once per task after the event's tasks
// have all finished.
func (s *Sink) Task(session int, r TaskResult) {
	if s == nil {
		return
	}
	i := s.crIndex(session)
	if c := s.outcomes[r.Outcome]; c != nil {
		c[i].Inc()
	}
	if r.Conflicts != 0 {
		s.conflicts[i].Add(int64(r.Conflicts))
	}
	for k, v := range [len(taskPhases)]int64{r.SnapshotNs, r.WalkNs, r.CommitNs} {
		s.phases[k].Add(v)
	}
	for k, v := range [len(evalResults)]int64{r.CacheHits, r.CachePatches, r.CacheRebuilds} {
		s.cacheEvals[k].Add(v)
	}
	for k, v := range [len(hopSources)]int{r.Hops - r.Reused - r.ReusedAcross, r.Reused, r.ReusedAcross} {
		s.walkHops[k].Add(int64(v))
	}
}

// Record emits one decision record: it fills the derived fields (region,
// wall time, objective delta), updates the event-scoped metrics, and
// appends to the trace ring. Called from the serialized event-handling /
// retire path, never from workers.
func (s *Sink) Record(rec DecisionRecord) {
	if s == nil {
		return
	}
	rec.Region = s.regionOf(rec.Session)
	class := s.classOf(rec.Session)
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

	if rec.DelayMS > 0 {
		s.classDelay[class].Observe(int64(rec.DelayMS * 1e3))
		s.classDelaySum[class] += rec.DelayMS
		s.classDelayN[class]++
		s.classMeans = s.classMeans[:0]
		for c, n := range s.classDelayN {
			if n > 0 {
				s.classMeans = append(s.classMeans, s.classDelaySum[c]/float64(n))
			}
		}
		s.fairness.Set(Jain(s.classMeans))
	}
	switch rec.Kind {
	case "depart":
		s.departs[rec.Region].Inc()
		if !rec.Admitted {
			s.skips.Inc()
		}
	case "arrive":
		s.arrivals[rec.Region].Inc()
		if !rec.Admitted {
			s.drops.Inc()
		}
	default:
		// Fault-injection kinds count into their own family, never into the
		// churn event/drop/skip counters.
		if c := s.faults[rec.Kind]; c != nil {
			c.Inc()
		}
	}
	if rec.Stalled {
		s.stalls.Inc()
	}
	s.reoptLat[class*s.regions+rec.Region].Observe(rec.LatencyNs)
	s.objective.Set(rec.Objective)
	s.active.Set(float64(rec.ActiveSessions))
	if s.rec.Append(rec) {
		s.recDropped.Inc()
	}
}

// Jain is the fairness index (Σx)²/(n·Σx²) ∈ (0, 1], 0 for no values or
// all zeros. Over per-class mean delays, 1 means every class sees the same
// mean; 1/n means one class absorbs all of the delay.
func Jain(xs []float64) float64 {
	var sum, sumSq float64
	for _, x := range xs {
		sum += x
		sumSq += x * x
	}
	if len(xs) == 0 || sumSq == 0 {
		return 0
	}
	return sum * sum / (float64(len(xs)) * sumSq)
}

// NearestRank reads the q-quantile of an ascending-sorted slice by the
// nearest-rank rule (0 when empty).
func NearestRank(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[min(max(i, 0), len(sorted)-1)]
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
	s.distAbandons.Inc()
}

// DistRetry counts one re-dialed runner attempt after a failed exchange.
func (s *Sink) DistRetry() {
	if s == nil {
		return
	}
	s.distRetries.Inc()
}

// faultKinds are the record kinds routed to vconf_faults_injected_total
// (workload.EventKind.String() for the fault kinds).
var faultKinds = []string{"agent-fail", "agent-recover", "region-outage", "region-recover", "degrade", "flash-crowd"}

// Evacuation counts one orphaned session's re-home attempt (ok or reject)
// under the session's region, and its latency. Called from the serialized
// fault-handling path.
func (s *Sink) Evacuation(session int, ok bool, latencyNs int64) {
	if s == nil {
		return
	}
	result := 0
	if !ok {
		result = 1
	}
	s.orphans.Inc()
	s.evac[result][s.regionOf(session)].Inc()
	s.evacLat.Observe(latencyNs)
}

// Incident records one incident's time-to-recovery.
func (s *Sink) Incident(ttrNs int64) {
	if s == nil {
		return
	}
	s.recoveryLat.Observe(ttrNs)
}

// DegradedReject counts one arrival of session rejected while the fleet
// was impaired, under the session's region.
func (s *Sink) DegradedReject(session int) {
	if s == nil {
		return
	}
	s.degRejects[s.regionOf(session)].Inc()
}

// CounterfactualSummary aggregates counterfactual-k over the held records:
// the count of committed decisions with a valid 2nd-best gap, plus the
// mean and p99 of that gap (the regret had the runner-up been chosen).
func (s *Sink) CounterfactualSummary() (n int, mean, p99 float64) {
	if s == nil {
		return 0, 0, 0
	}
	var gaps []float64
	sum := 0.0
	for _, rec := range s.rec.Items() {
		if rec.CfValid && rec.Commits > 0 {
			gaps = append(gaps, rec.CfGap)
			sum += rec.CfGap
		}
	}
	if len(gaps) == 0 {
		return 0, 0, 0
	}
	sort.Float64s(gaps)
	return len(gaps), sum / float64(len(gaps)), NearestRank(gaps, 0.99)
}
