// Package orchestrator is the online control plane for session churn: it
// consumes arrival/departure event streams (internal/workload's Poisson
// schedules), maintains the live assignment, and re-optimizes incrementally
// instead of from scratch — the systems realization of the paper's §IV-A-4
// claim that the Markov-approximation chain is "robust to variations due to
// session dynamics".
//
// Architecture (scheduler → shard pool → commit → migrate):
//
//  1. Every event goes through the scheduler in internal/pipeline. Its
//     admission stage applies the arrival or departure against the
//     authoritative assignment under the state lock: arrivals bootstrap
//     through the configured policy (AgRank or Nrst), departures release
//     their load from the capacity ledger. Admission also fixes the
//     event's footprint — the sessions it owns. Events are admitted,
//     re-optimize and retire in arrival order, re-optimizing one at a
//     time; admission may run up to Config.MaxInFlight events ahead of
//     retirement (default 1: one event at a time), and an event waits
//     while an in-flight footprint claims its session.
//  2. The event then triggers incremental re-optimization of the *touched*
//     session set — the arriving/departing session plus active sessions
//     sharing agents with it — on a sharded solver pool: worker goroutines
//     that snapshot the state, run a bounded Markov-approximation
//     refinement (core.WalkSession) warm-started from the live assignment,
//     and keep the best state seen along the walk.
//  3. Each worker's proposal is merged back through the lock-striped
//     capacity ledger (internal/shard): the proposal's touched agents are
//     routed to their ID-range shards, those shards are locked in
//     canonical order, capacity is re-validated per shard against *live*
//     usage (FitsRepairDelta), and the swap is applied atomically. Commits
//     whose routes are disjoint hold disjoint lock sets and proceed fully
//     in parallel; a commit that loses a cross-shard race (a routed
//     shard's epoch moved since the worker's snapshot) retries against a
//     fresh snapshot a bounded number of times. Delay and
//     objective-improvement guards don't need locking at all: Φ_s depends
//     only on session s's own variables, and a session is owned by at most
//     one event, and within it one task, at a time.
//  4. Accepted proposals become data-plane migrations: when a
//     confsim.Runtime is attached, every committed decision runs the
//     dual-feed protocol (§V-A), so re-optimization never interrupts
//     streams. The runtime is ticked to each event's time as the event is
//     admitted.
//
// Fault events (faults.go) ride the same stages: admission applies the
// failure or recovery and heals under the state lock — evicting the
// sessions on violating agents, re-homing them through the bootstrap
// policy — and the re-homed or re-balanced sessions are the event's
// re-optimization set; retire does the incident accounting. Healing
// rewrites sessions no footprint names, so the scheduler admits a fault
// only when nothing is in flight.
//
// The hot path uses delta cost evaluation (cost.ObjectiveCache): because
// Φ = Σ_s Φ_s and Φ_s depends only on session s's own variables, a commit
// invalidates exactly one session, and objective telemetry after an event
// costs O(touched) instead of O(all sessions).
package orchestrator

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"time"

	"vconf/internal/assign"
	"vconf/internal/confsim"
	"vconf/internal/core"
	"vconf/internal/cost"
	"vconf/internal/model"
	"vconf/internal/pipeline"
	"vconf/internal/shard"
	"vconf/internal/sim"
	"vconf/internal/telemetry"
	"vconf/internal/workload"
)

// Config tunes the orchestrator.
type Config struct {
	// Shards is the solver pool size (worker goroutines), and the capacity
	// ledger's stripe count (internal/shard): one ID-range stripe per
	// worker. Defaults to GOMAXPROCS.
	Shards int
	// HopBudget bounds the Markov refinement walk per re-optimization task.
	// Defaults to 24 hops.
	HopBudget int
	// MaxReoptSessions caps the touched-session set re-optimized per event
	// (the triggering session always included). Defaults to 8.
	MaxReoptSessions int
	// Deprecated: Pipeline has no effect. Every event goes through the
	// scheduler; MaxInFlight sets how far admission runs ahead.
	Pipeline bool
	// MaxInFlight bounds the events in flight at once (admitted, not yet
	// retired). Events are admitted, re-optimize and retire in arrival
	// order, re-optimizing one at a time; MaxInFlight is how far admission
	// may run ahead of that, so the next events' admissions overlap the
	// current re-optimization. Defaults to 1, which runs one event at a
	// time, deterministically. Public snapshot methods (Assignment,
	// CheckInvariants, ...) must only be called quiesced: between
	// HandleEvent calls or after Run returns.
	MaxInFlight int
	// AgentRegion maps agent → region (len NumAgents). Required to handle
	// regional fault events (EventRegionOutage/EventRegionRecover); nil
	// rejects them. GenerateSyntheticFleetRegions fleets assign agent i to
	// region i mod Regions (workload.AgentRegions builds the map).
	AgentRegion []int
	// Core parameterizes the refinement chain (β, objective scale, seed).
	// The countdown is irrelevant here — workers hop back to back.
	Core core.Config
	// Telemetry, when non-nil, receives per-decision trace records and
	// feeds the metric registry (counters, per-region histograms) from
	// every instrumented path: event handling, the shard commit pipeline,
	// the delay cache and the event scheduler. Nil (the default)
	// disables instrumentation at zero hot-path cost — every call site
	// reduces to a pointer test, pinned by the alloc tests.
	Telemetry *telemetry.Sink
	// rebuildDelayBase turns off the reuse of prepared state on every scratch
	// the orchestrator owns, so each evaluation rebuilds its delay base: the
	// reference path the package's golden and fault differentials replay
	// against.
	rebuildDelayBase bool
	// ledgerShards, when positive, fixes the capacity ledger's stripe count
	// (clamped to the agent count) apart from the worker count: the tests'
	// per-agent and single-stripe ledgers.
	ledgerShards int
}

// DefaultConfig returns the orchestrator defaults over the paper's chain
// settings.
func DefaultConfig(seed int64) Config {
	return Config{Core: core.DefaultConfig(seed)}
}

const (
	// improvementEps is the minimum Φ_s decrease a proposal must deliver to
	// commit; smaller deltas are dropped as noise.
	improvementEps = 1e-9
	// commitRetries bounds how many times a task re-snapshots and re-walks
	// after losing a cross-shard commit race (shard.Conflict).
	commitRetries = 2
	// memoTableBytes caps what the walk memo table allocates (see the
	// package README).
	memoTableBytes = 256 << 10
)

// withDefaults fills zero fields and validates.
func (c Config) withDefaults() (Config, error) {
	if c.Shards == 0 {
		c.Shards = runtime.GOMAXPROCS(0)
	}
	if c.HopBudget == 0 {
		c.HopBudget = 24
	}
	if c.MaxReoptSessions == 0 {
		c.MaxReoptSessions = 8
	}
	if c.MaxInFlight == 0 {
		c.MaxInFlight = 1
	}
	if c.Shards < 1 || c.HopBudget < 1 || c.MaxReoptSessions < 1 || c.MaxInFlight < 1 {
		return c, fmt.Errorf("orchestrator: invalid config: shards=%d hops=%d reopt=%d max in-flight=%d",
			c.Shards, c.HopBudget, c.MaxReoptSessions, c.MaxInFlight)
	}
	if err := c.Core.Validate(); err != nil {
		return c, err
	}
	return c, nil
}

// Stats aggregates orchestrator activity counters.
type Stats struct {
	Events     int
	Arrivals   int
	Departures int
	// Dropped counts arrivals rejected at admission (no feasible bootstrap).
	Dropped int
	// Skipped counts departures for sessions that were never live — the
	// schedule echo of a dropped arrival (churn schedules are generated
	// offline and record a departure for every scheduled arrival).
	Skipped int
	// Tasks counts re-optimization tasks dispatched to the shard pool.
	Tasks int
	// Commits, Rejects and NoChange classify task outcomes: proposal
	// accepted, proposal failed commit-time validation, walk found no
	// improvement.
	Commits  int
	Rejects  int
	NoChange int
	// Conflicts counts sharded commit attempts that lost a cross-shard race
	// (a routed shard's epoch moved and validation failed); each one either
	// retried against a fresh snapshot or, past the retry budget, became a
	// Reject.
	Conflicts int
	// WalkHops counts the hops the tasks' refinement walks executed;
	// WalkReused those among them that started from a state their walk had
	// already been in and reused its candidate set, and WalkReusedAcross
	// those that started from a state new to the walk whose candidate set an
	// earlier walk of the session had certified — in this incarnation of the
	// session or an earlier one, since the memo table keeps a departed
	// session's states (core.WalkSession). The rest evaluated theirs. With
	// more than one worker, WalkReusedAcross depends on timing: the
	// sessions share the table's bytes.
	WalkHops         int
	WalkReused       int
	WalkReusedAcross int
	// Migrations counts data-plane decisions executed (≥ Commits: one commit
	// can migrate several variables).
	Migrations int
	// ReoptTotal and ReoptMax track the wall-clock re-optimization latency
	// per event (dispatch of its tasks until the last one finishes).
	ReoptTotal time.Duration
	ReoptMax   time.Duration
	// ReoptP50 and ReoptP99 are per-event re-optimization latency
	// percentiles, estimated from a fixed log-scale histogram (quarter-
	// octave buckets, so values carry ≈±12% bucket resolution at O(1)
	// memory regardless of run length).
	ReoptP50 time.Duration
	ReoptP99 time.Duration
	// Incidents counts capacity-reducing fault events handled (agent
	// failures, region outages, deeper degradations); Orphans the sessions
	// they evicted, split into Evacuated (re-homed on the surviving fleet)
	// and EvacRejects (no feasible placement; the session went down).
	Incidents   int
	Orphans     int
	Evacuated   int
	EvacRejects int
	// DegradedRejects counts arrival drops that happened while any agent
	// was failed or degraded — the paper fleet never rejects, so these
	// separate "capacity-starved by the incident" from ordinary tight-fleet
	// drops.
	DegradedRejects int
	// RecoverP50 and RecoverP99 are per-incident time-to-recovery
	// percentiles (healing start through the incident's retire, right after
	// its re-optimization), from the same log-scale histogram machinery as
	// the reopt latencies.
	RecoverP50 time.Duration
	RecoverP99 time.Duration
	// AdmissionStalls, ReoptWaits, QueueDepthPeak and InFlightPeak are
	// event-scheduler telemetry: events whose admission had to wait at the
	// queue head (in-flight cap or a claimed trigger session), events
	// admitted while an earlier event was still in flight (so their
	// re-optimization waited for it), and the high-water marks of the
	// pending queue and the in-flight set. They depend on goroutine timing.
	AdmissionStalls int
	ReoptWaits      int
	QueueDepthPeak  int
	InFlightPeak    int
}

// EventReport describes the handling of one churn event.
type EventReport struct {
	Event workload.Event
	// Admitted is false for an arrival dropped at admission.
	Admitted bool
	// Reopt is the session set handed to the shard pool.
	Reopt []model.SessionID
	// Commits/Rejects/NoChange are this event's task outcomes.
	Commits, Rejects, NoChange int
	// Conflicts counts this event's lost cross-shard commit races
	// (retried or not). Unlike the outcome tallies it is timing-dependent
	// whenever workers overlap, so differential tests must not compare it.
	Conflicts int
	// Orphans/Evacuated/EvacRejects describe a fault event's healing: the
	// sessions the incident evicted, and how many were re-homed vs dropped.
	Orphans, Evacuated, EvacRejects int
	// Latency is the wall-clock duration of the event's re-optimization
	// (zero when it re-optimized nothing).
	Latency time.Duration
	// Objective is Σ Φ_s over active sessions after the event
	// (delta-evaluated).
	Objective float64
	// ActiveSessions counts live sessions after the event.
	ActiveSessions int
}

// Orchestrator is the online control plane. HandleEvent/Run/RunSource drive
// it; shared state is guarded by the state lock, the capacity ledger's
// stripe locks and session ownership, so the public API is safe for
// sequential use while workers run concurrently.
type Orchestrator struct {
	ev   *cost.Evaluator
	sc   *model.Scenario
	cfg  Config
	boot core.Bootstrapper

	// mu is the state lock: it guards the cache, stats, runtime mirror,
	// clock, committed-agents index and error slot. Capacity lives behind
	// the ledger's own stripe locks, and assignment accesses from workers
	// are serialized by session ownership (see dispatch), so mu is held only
	// for brief metadata updates.
	mu sync.Mutex
	a  *assign.Assignment
	// ledger is the authoritative lock-striped capacity ledger.
	ledger *shard.Ledger
	// nbrIdx is the proximity index behind Core.NeighborWindow > 0,
	// shared read-only by workers: it defines each session's candidate
	// agent set, which lets workers snapshot only the shards their walk can
	// read (O(session·window) instead of O(fleet) per task).
	nbrIdx *assign.ProximityIndex
	cache  *cost.ObjectiveCache
	rt     *confsim.Runtime
	now    float64
	stats  Stats
	lat    *telemetry.Histogram
	// Fault-injection state (see faults.go), guarded by mu: per-agent
	// failed flags and base (partial-degradation) scales, per-region outage
	// flags, the impaired-agent count driving rejects-during-degradation
	// accounting, and the per-incident time-to-recovery histogram.
	failed      []bool
	baseScale   []float64
	regionOut   []bool
	agentRegion []int
	numRegions  int
	impaired    int
	ttr         *telemetry.Histogram
	// tel is the optional telemetry sink (Config.Telemetry); nil disables
	// every instrumentation site at the cost of a pointer test.
	tel    *telemetry.Sink
	refErr error // first worker error, surfaced by the next HandleEvent

	// pipe is the event scheduler; touchIdx[s] is active
	// session s's committed agent set (ascending, nonzero-usage agents),
	// maintained under mu at every bootstrap/commit/departure so footprint
	// and touched-set computation never read an in-flight session's
	// assignment state.
	pipe     *pipeline.Scheduler
	touchIdx [][]model.AgentID
	// memo holds the candidate sets the workers' walks certified, for every
	// session and across its departures.
	memo *core.MemoTable

	tasks     chan reoptTask
	closeOnce sync.Once
	eventIdx  int
}

// New builds an orchestrator and starts its shard pool. Call Close when
// done. A custom bootstrapper should wrap agrank.ErrInfeasible or
// baseline.ErrInfeasible to signal that an arrival cannot be admitted (a
// counted drop); any other bootstrap error aborts event handling.
func New(ev *cost.Evaluator, boot core.Bootstrapper, cfg Config) (*Orchestrator, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	if boot == nil {
		return nil, fmt.Errorf("orchestrator: nil bootstrapper")
	}
	sc := ev.Scenario()
	o := &Orchestrator{
		ev:       ev,
		sc:       sc,
		cfg:      cfg,
		boot:     boot,
		a:        assign.New(sc),
		cache:    cost.NewObjectiveCache(ev),
		lat:      telemetry.NewHistogram(),
		ttr:      telemetry.NewHistogram(),
		tel:      cfg.Telemetry,
		touchIdx: make([][]model.AgentID, sc.NumSessions()),
		memo:     core.NewMemoTable(memoTableBytes, sc.NumSessions()),
		tasks:    make(chan reoptTask),
	}
	o.failed = make([]bool, sc.NumAgents())
	o.baseScale = make([]float64, sc.NumAgents())
	for i := range o.baseScale {
		o.baseScale[i] = 1
	}
	if cfg.AgentRegion != nil {
		if len(cfg.AgentRegion) != sc.NumAgents() {
			return nil, fmt.Errorf("orchestrator: agent-region map covers %d of %d agents",
				len(cfg.AgentRegion), sc.NumAgents())
		}
		for a, r := range cfg.AgentRegion {
			if r < 0 {
				return nil, fmt.Errorf("orchestrator: agent %d mapped to negative region %d", a, r)
			}
			if r+1 > o.numRegions {
				o.numRegions = r + 1
			}
		}
		o.agentRegion = cfg.AgentRegion
		o.regionOut = make([]bool, o.numRegions)
	}
	// The objective cache's refresh scratch (guarded by o.mu) reuses the
	// state it last prepared, so the reference rebuild path covers it too.
	o.cache.SetDelayCacheEnabled(!cfg.rebuildDelayBase)
	p := cfg.ledgerShards
	if p <= 0 {
		p = cfg.Shards
	}
	o.ledger = shard.New(sc, p)
	if w := cfg.Core.NeighborWindow; w > 0 && w < sc.NumAgents() {
		o.nbrIdx = assign.NewProximityIndex(sc, w)
	}
	if o.pipe, err = pipeline.New(pipeline.Config{MaxInFlight: cfg.MaxInFlight}); err != nil {
		return nil, err
	}
	for i := 0; i < cfg.Shards; i++ {
		go o.worker(i)
	}
	return o, nil
}

// Close stops accepting events and returns at once: events already
// submitted finish in the background, and the shard pool stops after the
// last of them, since an event's re-optimization may still be feeding it.
// It may be called from inside RunSource's onReport; RunSource then stops
// at its next submission with pipeline.ErrClosed. The orchestrator must
// not be used afterwards.
func (o *Orchestrator) Close() {
	o.closeOnce.Do(func() {
		done := o.pipe.Close()
		go func() {
			<-done
			close(o.tasks)
		}()
	})
}

// AttachRuntime wires a data-plane runtime: subsequent arrivals, departures
// and committed re-optimizations are mirrored as activations, deactivations
// and dual-feed migrations, and the runtime is ticked forward to each
// event's time as the event is admitted. The runtime must not be used
// concurrently by the caller while the orchestrator runs.
func (o *Orchestrator) AttachRuntime(rt *confsim.Runtime) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.rt = rt
}

// HandleEvent applies one event and runs the incremental re-optimization
// it triggers. It submits the event to the scheduler and blocks until the
// event retires — which, since events retire in arrival order, also means
// the orchestrator is quiesced when it returns; stream events through Run
// or RunSource at MaxInFlight > 1 to overlap them.
func (o *Orchestrator) HandleEvent(e workload.Event) (EventReport, error) {
	if err := o.takeRefErr(); err != nil {
		return EventReport{}, err
	}
	st, ch, err := o.submitEvent(e, nil)
	if err != nil {
		return EventReport{}, err
	}
	rep := st.rep
	<-ch
	// Drain (a no-op wait here: our event retiring means the queue is
	// empty under the single-caller discipline) surfaces and clears any
	// stream error, so a failed event reports once and the orchestrator
	// keeps working.
	if err := o.pipe.Drain(); err != nil {
		// A failed admission never happened: release its event index, so
		// task seeds of later events do not depend on recovered errors.
		// Safe under the single-caller discipline: st.seq is necessarily the
		// last index assigned.
		if st.admitErr != nil {
			o.eventIdx = st.seq
		}
		return *rep, err
	}
	if err := o.takeRefErr(); err != nil {
		return *rep, err
	}
	return *rep, nil
}

// Trace-lane layout for the span export (see telemetry.StartRoot): spans on
// one lane nest by time containment, so each serially-consistent execution
// context gets its own lane.
const (
	// pipelineLanes rotates in-flight events across lanes 1..pipelineLanes.
	pipelineLanes = 61
	// taskLaneBase + worker ID carries that worker's task spans.
	taskLaneBase = 100
)

// eventSpanName maps an event kind to its span name (static strings: span
// starts stay allocation-free).
func eventSpanName(k workload.EventKind) string {
	switch k {
	case workload.EventArrival:
		return "event:arrive"
	case workload.EventDeparture:
		return "event:depart"
	default:
		return "event:" + k.String()
	}
}

// observeDelay returns the post-decision session delay of an admitted
// arrival's session — the per-class SLO reading — and 0 for every other
// event or without a sink. Pure observation: the evaluation runs on a
// pooled scratch, whose prepared state never changes a result, so
// nil-vs-enabled runs stay bit-identical.
// The caller must still own the trigger session's variables: the event's
// reopt stage calls it before the scheduler releases the footprint.
func (o *Orchestrator) observeDelay(e workload.Event, admitted bool) float64 {
	if o.tel == nil || e.Kind != workload.EventArrival || !admitted {
		return 0
	}
	return o.ev.ReportSession(o.a, model.SessionID(e.Session)).MeanDelayMS
}

// emitRecord publishes one event's decision record to the telemetry sink
// (no-op when telemetry is disabled). Event-scoped counters (events by
// kind, stalls, drops, latency histograms, objective gauges) are derived
// inside the sink from the record itself, and the task families were
// counted from the same result slots the record sums, so the two views
// reconcile exactly. The decisive hop is that of the event's first
// committed task in re-optimization-set order.
func (o *Orchestrator) emitRecord(st *eventState) {
	if o.tel == nil {
		return
	}
	rep := st.rep
	rec := telemetry.DecisionRecord{
		TimeS:          rep.Event.TimeS,
		Session:        int(rep.Event.Session),
		Admitted:       rep.Admitted,
		Stalled:        st.stalled,
		Reopt:          len(rep.Reopt),
		Commits:        rep.Commits,
		Rejects:        rep.Rejects,
		NoChange:       rep.NoChange,
		Conflicts:      rep.Conflicts,
		LatencyNs:      rep.Latency.Nanoseconds(),
		Objective:      rep.Objective,
		ActiveSessions: rep.ActiveSessions,
		// Fault-path outcomes ride on the record so the windowed sampler
		// sees them on the serialized retire stream (zero for churn kinds).
		Incident:    rep.Event.Incident,
		Orphans:     rep.Orphans,
		Evacuated:   rep.Evacuated,
		EvacRejects: rep.EvacRejects,
		DelayMS:     st.delayMS,
		ChosenAgent: -1,
	}
	for i := range st.results {
		r := &st.results[i]
		rec.SnapshotNs += r.SnapshotNs
		rec.WalkNs += r.WalkNs
		rec.CommitNs += r.CommitNs
		rec.CacheWarm += int(r.CacheHits + r.CachePatches)
		rec.CacheCold += int(r.CacheRebuilds)
		if rec.ChosenAgent < 0 && r.Outcome == telemetry.OutcomeCommit {
			rec.ChosenAgent = r.cfAgent
			if !math.IsInf(r.cfGap, 1) {
				rec.CfGap = r.cfGap
				rec.CfValid = true
			}
		}
	}
	switch rep.Event.Kind {
	case workload.EventArrival:
		rec.Kind = "arrive"
	case workload.EventDeparture:
		rec.Kind = "depart"
	default:
		// Fault kinds label themselves.
		rec.Kind = rep.Event.Kind.String()
	}
	o.tel.Record(rec)
}

// advanceClock moves orchestrator time monotonically.
func (o *Orchestrator) advanceClock(timeS float64) {
	if timeS > o.now {
		o.now = timeS
	}
}

// tickLocked advances the attached data plane to timeS, so the dual-feed
// overhead of the migrations committed so far lands in its telemetry.
// Caller holds o.mu.
func (o *Orchestrator) tickLocked(timeS float64) error {
	if o.rt == nil {
		return nil
	}
	if dt := timeS - o.rt.Now(); dt > 1e-9 {
		if _, err := o.rt.Tick(dt); err != nil {
			return err
		}
	}
	return nil
}

// capReopt assembles the final re-optimization set: the trigger session
// first (if still active, i.e. arrivals), then touched sessions, capped.
func (o *Orchestrator) capReopt(trigger model.SessionID, touched []model.SessionID) []model.SessionID {
	out := make([]model.SessionID, 0, o.cfg.MaxReoptSessions)
	if trigger >= 0 {
		out = append(out, trigger)
	}
	for _, s := range touched {
		if len(out) >= o.cfg.MaxReoptSessions {
			break
		}
		out = append(out, s)
	}
	return out
}

// Run processes an event schedule in order: RunSource over the slice,
// collecting the reports. When a runtime is attached, the data plane is
// ticked across event gaps and to horizonS at the end, so dual-feed
// overheads land in telemetry. The orchestrator is fully drained when Run
// returns.
func (o *Orchestrator) Run(events []workload.Event, horizonS float64) ([]EventReport, error) {
	reports := make([]EventReport, 0, len(events))
	err := o.RunSource(sim.NewSliceSource(events), horizonS, func(rep EventReport) error {
		reports = append(reports, rep)
		return nil
	})
	return reports, err
}

// Assignment returns a snapshot of the live assignment.
func (o *Orchestrator) Assignment() *assign.Assignment {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.a.Clone()
}

// Objective returns Σ Φ_s over active sessions (delta-evaluated).
func (o *Orchestrator) Objective() float64 {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.cache.TotalObjective(o.a)
}

// ActiveSessions returns the live session set in ascending order.
func (o *Orchestrator) ActiveSessions() []model.SessionID {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.cache.ActiveSessions()
}

// Now returns the orchestrator's virtual time (the latest event timestamp).
func (o *Orchestrator) Now() float64 {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.now
}

// Stats returns a copy of the activity counters, including the latency
// percentiles and the scheduler telemetry.
func (o *Orchestrator) Stats() Stats {
	qs := []float64{0.50, 0.99}
	o.mu.Lock()
	st := o.stats
	lat := o.lat.QuantilesDuration(qs)
	ttr := o.ttr.QuantilesDuration(qs)
	st.ReoptP50, st.ReoptP99 = lat[0], lat[1]
	st.RecoverP50, st.RecoverP99 = ttr[0], ttr[1]
	o.mu.Unlock()
	ps := o.pipe.Stats()
	st.AdmissionStalls = ps.AdmissionStalls
	st.ReoptWaits = ps.ReoptWaits
	st.QueueDepthPeak = ps.QueueDepthPeak
	st.InFlightPeak = ps.InFlightPeak
	return st
}

// Recomputes exposes the delta-evaluation cost meter: cumulative
// per-session objective recomputations.
func (o *Orchestrator) Recomputes() int {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.cache.Recomputes()
}

// CheckInvariants verifies the live state: every active session complete
// and delay-feasible, the ledger within every capacity, and the ledger
// usage reconciling against the active sessions' loads recomputed from the
// assignment — which catches lost, duplicated or half-committed sessions
// after concurrent commit storms. Used by tests after every event. A
// failure freezes a flight-recorder dump before returning, so the black
// box captures the state that tripped the check.
func (o *Orchestrator) CheckInvariants() error {
	err := o.checkInvariants()
	if err != nil {
		o.tel.TriggerFlight("invariant", err.Error())
	}
	return err
}

func (o *Orchestrator) checkInvariants() error {
	o.mu.Lock()
	defer o.mu.Unlock()
	if !o.ledger.Fits(nil) {
		return fmt.Errorf("orchestrator: ledger violates capacity: agents %v", o.ledger.Violations())
	}
	for s := range o.cache.EachActive() {
		if !o.a.SessionComplete(s) {
			return fmt.Errorf("orchestrator: active session %d incomplete", s)
		}
		if !cost.DelayFeasible(o.a, s) {
			return fmt.Errorf("orchestrator: active session %d violates the delay cap", s)
		}
	}
	// Reconciliation: ledger usage must equal Σ active-session loads.
	// Task counts are integers and must match exactly; bandwidth sums were
	// accumulated in commit order, so they get float-accumulation slack.
	want := cost.NewLedger(o.sc)
	scr := o.ev.NewScratch()
	for s := range o.cache.EachActive() {
		want.Add(o.ev.SessionLoadSparse(o.a, s, scr))
	}
	gotDown, gotUp, gotTasks := o.ledger.Usage()
	wantDown, wantUp, wantTasks := want.Usage()
	const eps = 1e-6
	for l := 0; l < o.sc.NumAgents(); l++ {
		if gotTasks[l] != wantTasks[l] {
			return fmt.Errorf("orchestrator: agent %d ledger tasks %d, assignment implies %d",
				l, gotTasks[l], wantTasks[l])
		}
		if diff := gotDown[l] - wantDown[l]; diff > eps || diff < -eps {
			return fmt.Errorf("orchestrator: agent %d ledger download %.9f, assignment implies %.9f",
				l, gotDown[l], wantDown[l])
		}
		if diff := gotUp[l] - wantUp[l]; diff > eps || diff < -eps {
			return fmt.Errorf("orchestrator: agent %d ledger upload %.9f, assignment implies %.9f",
				l, gotUp[l], wantUp[l])
		}
	}
	return nil
}

func (o *Orchestrator) takeRefErr() error {
	o.mu.Lock()
	defer o.mu.Unlock()
	err := o.refErr
	o.refErr = nil
	return err
}
