// Package orchestrator is the online control plane for session churn: it
// consumes arrival/departure event streams (internal/workload's Poisson
// schedules), maintains the live assignment, and re-optimizes incrementally
// instead of from scratch — the systems realization of the paper's §IV-A-4
// claim that the Markov-approximation chain is "robust to variations due to
// session dynamics".
//
// Architecture (event loop → shard pool → commit → migrate):
//
//  1. The event loop applies each arrival or departure against the
//     authoritative assignment under the commit lock: arrivals bootstrap
//     through the configured policy (AgRank or Nrst), departures release
//     their load from the capacity ledger.
//  2. The event then triggers incremental re-optimization of the *touched*
//     session set — the arriving/departing session plus active sessions
//     sharing agents with it — on a sharded solver pool: worker goroutines
//     that snapshot the state, run a bounded Markov-approximation
//     refinement (core.HopSession) warm-started from the live assignment,
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
//     one task per event. Config.LedgerShards < 0 selects the legacy
//     single-lock commit path instead (bit-identical at P = 1), kept for
//     differential tests and before/after benchmarks.
//  4. Accepted proposals become data-plane migrations: when a
//     confsim.Runtime is attached, every committed decision runs the
//     dual-feed protocol (§V-A), so re-optimization never interrupts
//     streams.
//
// The hot path uses delta cost evaluation (cost.ObjectiveCache): because
// Φ = Σ_s Φ_s and Φ_s depends only on session s's own variables, a commit
// invalidates exactly one session, and objective telemetry after an event
// costs O(touched) instead of O(all sessions).
package orchestrator

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	"vconf/internal/agrank"
	"vconf/internal/assign"
	"vconf/internal/baseline"
	"vconf/internal/confsim"
	"vconf/internal/core"
	"vconf/internal/cost"
	"vconf/internal/model"
	"vconf/internal/pipeline"
	"vconf/internal/shard"
	"vconf/internal/telemetry"
	"vconf/internal/workload"
)

// Config tunes the orchestrator.
type Config struct {
	// Shards is the solver pool size (worker goroutines). Defaults to
	// GOMAXPROCS.
	Shards int
	// LedgerShards selects the capacity-ledger backend and its stripe
	// count. 0 (default) runs the lock-striped shard pipeline
	// (internal/shard) with one ID-range shard per worker; a positive value
	// fixes the shard count explicitly (clamped to the agent count); -1
	// selects the legacy single-lock commit path (snapshot and commit both
	// serialize on one mutex), kept for differential testing and
	// before/after benchmarks. The P=1 sharded pipeline is bit-identical to
	// the single-lock path.
	LedgerShards int
	// CommitRetries bounds how many times a worker re-snapshots and
	// re-walks after losing a cross-shard commit race (shard.Conflict).
	// 0 defaults to 2; -1 disables retries entirely (every conflict
	// becomes a reject — useful for bounding worst-case task latency and
	// for measuring raw conflict rates). Sharded backend only.
	CommitRetries int
	// HopBudget bounds the Markov refinement walk per re-optimization task.
	// Defaults to 24 hops.
	HopBudget int
	// MaxReoptSessions caps the touched-session set re-optimized per event
	// (the triggering session always included). Defaults to 8.
	MaxReoptSessions int
	// ImprovementEps is the minimum Φ_s decrease a proposal must deliver to
	// commit; smaller deltas are dropped as noise. Defaults to 1e-9.
	ImprovementEps float64
	// Pipeline switches HandleEvent/Run onto the dependency-aware event
	// scheduler (internal/pipeline): multiple events proceed concurrently
	// when their conflict footprints (owned sessions + routed ledger
	// stripes) are disjoint, and queue behind the specific events they
	// conflict with otherwise; reports still retire in arrival order. False
	// (the default) keeps the per-event barrier path verbatim. Requires the
	// sharded ledger backend (LedgerShards ≥ 0); with MaxInFlight = 1 the
	// pipelined path is bit-identical to the serial one (differential
	// tests pin it). Public snapshot methods (Assignment, CheckInvariants,
	// ...) must only be called quiesced: between HandleEvent calls or after
	// Run returns.
	Pipeline bool
	// MaxInFlight bounds concurrently in-flight events in pipelined mode
	// (admitted, re-optimization not yet complete). Defaults to Shards.
	MaxInFlight int
	// FootprintSlack widens each event's stripe footprint by that many
	// neighboring ID-range stripes per side (pipelined mode): larger
	// footprints admit less in parallel but lose fewer commits to
	// cross-event conflicts. -1 claims every stripe (fully conservative:
	// re-optimization stages serialize). Default 0. Without a candidate
	// window (Core.NeighborWindow = 0) walks can reach any agent, so
	// footprints always cover every stripe regardless of slack.
	FootprintSlack int
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
	// the delay cache and the pipelined scheduler. Nil (the default)
	// disables instrumentation at zero hot-path cost — every call site
	// reduces to a pointer test, pinned by the alloc tests.
	Telemetry *telemetry.Sink
}

// DefaultConfig returns the orchestrator defaults over the paper's chain
// settings.
func DefaultConfig(seed int64) Config {
	return Config{Core: core.DefaultConfig(seed)}
}

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
	if c.ImprovementEps == 0 {
		c.ImprovementEps = 1e-9
	}
	switch {
	case c.CommitRetries == 0:
		c.CommitRetries = 2
	case c.CommitRetries == -1:
		c.CommitRetries = 0
	}
	if c.Shards < 1 || c.HopBudget < 1 || c.MaxReoptSessions < 1 || c.ImprovementEps < 0 {
		return c, fmt.Errorf("orchestrator: invalid config: shards=%d hops=%d reopt=%d eps=%v",
			c.Shards, c.HopBudget, c.MaxReoptSessions, c.ImprovementEps)
	}
	if c.LedgerShards < -1 || c.CommitRetries < 0 {
		return c, fmt.Errorf("orchestrator: invalid config: ledger shards=%d commit retries=%d",
			c.LedgerShards, c.CommitRetries)
	}
	if c.Pipeline {
		if c.LedgerShards < 0 {
			return c, fmt.Errorf("orchestrator: Pipeline requires the sharded ledger backend (LedgerShards ≥ 0)")
		}
		if c.MaxInFlight == 0 {
			c.MaxInFlight = c.Shards
		}
		if c.MaxInFlight < 1 || c.FootprintSlack < -1 {
			return c, fmt.Errorf("orchestrator: invalid pipeline config: max in-flight=%d footprint slack=%d",
				c.MaxInFlight, c.FootprintSlack)
		}
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
	// WalkHops counts the hops the tasks' refinement walks executed, and
	// WalkReused those among them that started from a state their walk had
	// already evaluated and reused its candidate set (core.WalkSession).
	WalkHops   int
	WalkReused int
	// Migrations counts data-plane decisions executed (≥ Commits: one commit
	// can migrate several variables).
	Migrations int
	// ReoptTotal and ReoptMax track the wall-clock re-optimization latency
	// per event (the shard-pool barrier).
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
	// percentiles (fault application through the healing barrier), from the
	// same log-scale histogram machinery as the reopt latencies.
	RecoverP50 time.Duration
	RecoverP99 time.Duration
	// AdmissionStalls, ReoptWaits, QueueDepthPeak and InFlightPeak are
	// pipelined-scheduler telemetry (zero with Pipeline off): events whose
	// admission had to wait (in-flight cap or a claimed trigger session),
	// events whose re-optimization queued behind a conflicting in-flight
	// event, and the high-water marks of the pending queue and the
	// in-flight set.
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
	// Latency is the wall-clock duration of the re-optimization barrier.
	Latency time.Duration
	// Objective is Σ Φ_s over active sessions after the event
	// (delta-evaluated).
	Objective float64
	// ActiveSessions counts live sessions after the event.
	ActiveSessions int
}

// Orchestrator is the online control plane. HandleEvent/Run drive it; all
// state is guarded by the commit lock, and the shard pool synchronizes
// through it, so the public API is safe for sequential use while workers
// run concurrently.
type Orchestrator struct {
	ev   *cost.Evaluator
	sc   *model.Scenario
	cfg  Config
	boot core.Bootstrapper

	// mu is the state lock: it guards the cache, stats, runtime mirror,
	// clock and error slot, plus — in single-lock mode only — every
	// assignment and ledger access. In sharded mode capacity lives behind
	// the shard ledger's own stripe locks, and assignment accesses from
	// workers are serialized by session ownership (see dispatch), so mu is
	// held only for brief metadata updates.
	mu sync.Mutex
	a  *assign.Assignment
	// ledger is the authoritative capacity ledger; exactly one of the two
	// concrete backends below is non-nil behind it.
	ledger cost.LedgerAPI
	dense  *cost.Ledger  // single-lock backend (Config.LedgerShards < 0)
	shl    *shard.Ledger // lock-striped backend (default)
	// nbrIdx is the proximity index behind Core.NeighborWindow > 0,
	// shared read-only by workers: it defines each session's candidate
	// agent set, which lets sharded workers snapshot only the shards their
	// walk can read (O(session·window) instead of O(fleet) per task).
	nbrIdx *assign.ProximityIndex
	cache  *cost.ObjectiveCache
	// scr is the commit-path evaluation scratch, guarded by the commit lock
	// (workers hold their own; see pool.go).
	scr   *cost.Scratch
	rt    *confsim.Runtime
	now   float64
	stats Stats
	lat   *telemetry.Histogram
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

	// Pipelined-mode state (nil/unused with Config.Pipeline off). pipe is
	// the dependency-aware event scheduler; touchIdx[s] is active session
	// s's committed agent set (ascending, nonzero-usage agents), maintained
	// under mu at every bootstrap/commit/departure so footprint and
	// touched-set computation never read an in-flight session's assignment
	// state.
	pipe     *pipeline.Scheduler
	touchIdx [][]model.AgentID

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
		ev:    ev,
		sc:    sc,
		cfg:   cfg,
		boot:  boot,
		a:     assign.New(sc),
		cache: cost.NewObjectiveCache(ev),
		scr:   ev.NewScratch(),
		lat:   telemetry.NewHistogram(),
		ttr:   telemetry.NewHistogram(),
		tel:   cfg.Telemetry,
		tasks: make(chan reoptTask),
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
	// The commit-path scratch and the objective cache's refresh scratch
	// (both guarded by o.mu) keep their own per-session delay caches; the
	// reference rebuild path threads through here too, so RebuildDelayBase
	// disables the cache on every evaluation path the orchestrator owns.
	o.scr.SetDelayCacheEnabled(!cfg.Core.RebuildDelayBase)
	o.cache.SetDelayCacheEnabled(!cfg.Core.RebuildDelayBase)
	if cfg.LedgerShards < 0 {
		o.dense = cost.NewLedger(sc)
		o.ledger = o.dense
	} else {
		p := cfg.LedgerShards
		if p == 0 {
			p = cfg.Shards
		}
		o.shl = shard.New(sc, p)
		o.ledger = o.shl
	}
	if w := cfg.Core.NeighborWindow; w > 0 && w < sc.NumAgents() {
		o.nbrIdx = assign.NewProximityIndex(sc, w)
	}
	if cfg.Pipeline {
		sch, err := pipeline.New(pipeline.Config{MaxInFlight: cfg.MaxInFlight})
		if err != nil {
			return nil, err
		}
		o.pipe = sch
		o.touchIdx = make([][]model.AgentID, sc.NumSessions())
	}
	for i := 0; i < cfg.Shards; i++ {
		go o.worker(i)
	}
	return o, nil
}

// Close stops the event scheduler (draining in-flight events) and the shard
// pool. The orchestrator must not be used afterwards.
func (o *Orchestrator) Close() {
	o.closeOnce.Do(func() {
		if o.pipe != nil {
			o.pipe.Close()
		}
		close(o.tasks)
	})
}

// AttachRuntime wires a data-plane runtime: subsequent arrivals, departures
// and committed re-optimizations are mirrored as activations, deactivations
// and dual-feed migrations. The runtime must not be used concurrently by
// the caller while the orchestrator runs.
func (o *Orchestrator) AttachRuntime(rt *confsim.Runtime) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.rt = rt
}

// HandleEvent applies one churn event and runs the incremental
// re-optimization it triggers, blocking until the shard pool drains. In
// pipelined mode it submits the event to the scheduler and blocks until the
// event retires — which, since events retire in arrival order, also means
// the orchestrator is quiesced when it returns; stream events through Run
// to overlap them.
func (o *Orchestrator) HandleEvent(e workload.Event) (EventReport, error) {
	if o.pipe != nil {
		return o.handleEventPipelined(e)
	}
	if err := o.takeRefErr(); err != nil {
		return EventReport{}, err
	}
	if e.Kind.IsFault() {
		return o.handleFault(e)
	}
	if e.Session < 0 || e.Session >= o.sc.NumSessions() {
		return EventReport{}, fmt.Errorf("orchestrator: event session %d outside [0, %d)", e.Session, o.sc.NumSessions())
	}
	s := model.SessionID(e.Session)
	rep := EventReport{Event: e, Admitted: true}
	// The serial path is one event at a time, so the whole control plane
	// shares the single control lane and spans nest by time containment.
	esp := o.tel.StartRoot(eventSpanName(e.Kind), "event", laneControl)

	var reopt []model.SessionID
	switch e.Kind {
	case workload.EventArrival:
		admitted, touched, err := o.applyArrival(e.TimeS, s)
		if err != nil {
			return rep, err
		}
		rep.Admitted = admitted
		reopt = touched
	case workload.EventDeparture:
		touched, live, err := o.applyDeparture(e.TimeS, s)
		if err != nil {
			return rep, err
		}
		rep.Admitted = live
		reopt = touched
	default:
		return rep, fmt.Errorf("orchestrator: invalid event kind %d", e.Kind)
	}

	rep.Reopt = reopt
	var tally *eventTally
	if o.tel != nil {
		tally = &eventTally{chosenAgent: -1}
	}
	if len(reopt) > 0 {
		before := o.snapshotStats()
		rep.Latency = o.dispatch(reopt, tally, esp)
		after := o.snapshotStats()
		rep.Commits = after.Commits - before.Commits
		rep.Rejects = after.Rejects - before.Rejects
		rep.NoChange = after.NoChange - before.NoChange
		rep.Conflicts = after.Conflicts - before.Conflicts
	}

	o.mu.Lock()
	o.stats.Events++
	o.stats.ReoptTotal += rep.Latency
	if rep.Latency > o.stats.ReoptMax {
		o.stats.ReoptMax = rep.Latency
	}
	o.lat.ObserveDuration(rep.Latency)
	rep.Objective = o.cache.TotalObjective(o.a)
	rep.ActiveSessions = o.cache.NumActive()
	o.mu.Unlock()
	o.observeDelay(tally, e, rep.Admitted)
	o.eventIdx++
	esp.EndArg(int64(e.Session))
	o.emitRecord(&rep, tally, false)
	if err := o.takeRefErr(); err != nil {
		return rep, err
	}
	return rep, nil
}

// Trace-lane layout for the span export (see telemetry.StartRoot): spans on
// one lane nest by time containment, so each serially-consistent execution
// context gets its own lane.
const (
	// laneControl carries the serial event path and all fault healing
	// (heals always run with the pipeline drained).
	laneControl = 0
	// pipelineLanes rotates in-flight pipelined events across lanes
	// 1..pipelineLanes.
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

// observeDelay fills the tally's post-decision session delay for admitted
// arrivals — the per-class SLO reading. Pure observation (enabled-telemetry
// runs read, never write, extra state), so nil-vs-enabled runs stay
// bit-identical. Callers must still own the trigger session's variables:
// the serial path is quiesced here; the pipelined path calls this at the
// end of its reopt stage, before the scheduler releases the footprint.
func (o *Orchestrator) observeDelay(tally *eventTally, e workload.Event, admitted bool) {
	if o.tel == nil || tally == nil || e.Kind != workload.EventArrival || !admitted {
		return
	}
	tally.delayMS = cost.SessionDelaysOf(o.a, model.SessionID(e.Session)).MeanOfMaxMS
}

// emitRecord publishes one event's decision record to the telemetry sink
// (no-op when telemetry is disabled). Event-scoped counters (events by
// kind, stalls, drops, latency histograms, objective gauges) are derived
// inside the sink from the record itself; task-scoped counters were already
// bumped worker-side, so the two views reconcile exactly. tally may be nil
// only when o.tel is nil.
func (o *Orchestrator) emitRecord(rep *EventReport, tally *eventTally, stalled bool) {
	if o.tel == nil {
		return
	}
	rec := telemetry.DecisionRecord{
		TimeS:          rep.Event.TimeS,
		Session:        int(rep.Event.Session),
		Admitted:       rep.Admitted,
		Stalled:        stalled,
		Reopt:          len(rep.Reopt),
		Commits:        rep.Commits,
		Rejects:        rep.Rejects,
		NoChange:       rep.NoChange,
		Conflicts:      rep.Conflicts,
		LatencyNs:      rep.Latency.Nanoseconds(),
		ChosenAgent:    -1,
		Objective:      rep.Objective,
		ActiveSessions: rep.ActiveSessions,
		// Fault-path outcomes ride on the record so the windowed sampler
		// sees them on the serialized retire stream (zero for churn kinds).
		Incident:    rep.Event.Incident,
		Orphans:     rep.Orphans,
		Evacuated:   rep.Evacuated,
		EvacRejects: rep.EvacRejects,
	}
	switch rep.Event.Kind {
	case workload.EventArrival:
		rec.Kind = "arrive"
	case workload.EventDeparture:
		rec.Kind = "depart"
		if rep.Admitted {
			// A live departure tears down the session's delay-cache entry.
			rec.CacheInvalidated = 1
		}
	default:
		// Fault kinds label themselves; evictions tore down one delay-cache
		// entry per orphan.
		rec.Kind = rep.Event.Kind.String()
		rec.CacheInvalidated = rep.Orphans
	}
	if tally != nil {
		rec.DelayMS = tally.delayMS
		rec.SnapshotNs = tally.snapshotNs
		rec.WalkNs = tally.walkNs
		rec.CommitNs = tally.commitNs
		rec.CacheWarm = tally.cacheWarm
		rec.CacheCold = tally.cacheCold
		rec.ChosenAgent = tally.chosenAgent
		if tally.cfValid {
			rec.CfGap = tally.cfGap
			rec.CfValid = true
		}
	}
	o.tel.Record(rec)
	if o.pipe != nil {
		ps := o.pipe.Stats()
		o.tel.SchedulerStats(ps.AdmissionStalls, ps.ReoptWaits, ps.QueueDepthPeak, ps.InFlightPeak)
	}
	if o.shl != nil {
		ls := o.shl.Stats()
		o.tel.LedgerStats(ls.Committed, ls.Conflicts, ls.Infeasible)
	}
}

// applyArrival bootstraps session s and returns (admitted, touched set).
func (o *Orchestrator) applyArrival(timeS float64, s model.SessionID) (bool, []model.SessionID, error) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.advanceClock(timeS)
	o.stats.Arrivals++
	if o.cache.Active(s) {
		return false, nil, fmt.Errorf("orchestrator: arrival for already-active session %d", s)
	}
	if err := o.boot(o.a, s, o.ledger); err != nil {
		// Admission infeasibility (the bootstrapper rolled the session back)
		// is an expected drop; anything else — misconfiguration, a buggy
		// custom bootstrapper — must surface loudly, not read as churn.
		if errors.Is(err, agrank.ErrInfeasible) || errors.Is(err, baseline.ErrInfeasible) {
			o.stats.Dropped++
			if o.impaired > 0 {
				o.stats.DegradedRejects++
				o.tel.DegradedReject(o.tel.RegionOf(int(s)))
			}
			return false, nil, nil
		}
		return false, nil, fmt.Errorf("orchestrator: bootstrap session %d: %w", s, err)
	}
	o.cache.SetActive(s, true)
	if o.rt != nil {
		if err := o.rt.ActivateSession(s, o.a); err != nil {
			return false, nil, err
		}
	}
	touched := o.touchedLocked(s, o.agentsOf(o.cache.SessionLoad(o.a, s)))
	return true, o.capReopt(s, touched), nil
}

// applyDeparture releases session s and returns (touched set, whether the
// session was live). A departure for a session that was never admitted — the
// echo of a dropped arrival — is a benign skip.
func (o *Orchestrator) applyDeparture(timeS float64, s model.SessionID) ([]model.SessionID, bool, error) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.advanceClock(timeS)
	o.stats.Departures++
	if !o.cache.Active(s) {
		o.stats.Skipped++
		return nil, false, nil
	}
	agents := o.agentsOf(o.cache.SessionLoad(o.a, s))
	o.ledger.RemoveSparse(o.cache.SessionLoad(o.a, s))
	for _, u := range o.sc.Session(s).Users {
		o.a.SetUserAgent(u, assign.Unassigned)
	}
	for _, f := range o.a.SessionFlows(s) {
		if err := o.a.SetFlowAgent(f, assign.Unassigned); err != nil {
			return nil, false, err
		}
	}
	// Departure invalidation, under the state lock: the objective cache's
	// refresh scratch drops its delay entry inside SetActive, and the
	// commit scratch drops its own here — a re-arrival rebuilds cold
	// instead of patching a fully-torn-down matrix. (Worker scratches need
	// no notification: their cached entries re-validate against the
	// session's decision variables on next use.)
	o.cache.SetActive(s, false)
	o.scr.InvalidateDelay(s)
	if o.rt != nil {
		o.rt.DeactivateSession(s)
	}
	// The departed session freed capacity on its agents: sessions loading
	// those agents may now have better moves available.
	touched := o.touchedLocked(s, agents)
	return o.capReopt(model.SessionID(-1), touched), true, nil
}

// advanceClock moves orchestrator time monotonically.
func (o *Orchestrator) advanceClock(timeS float64) {
	if timeS > o.now {
		o.now = timeS
	}
}

// agentsOf returns the set of agents a session load touches.
func (o *Orchestrator) agentsOf(sl *cost.SparseLoad) []bool {
	set := make([]bool, o.sc.NumAgents())
	if sl != nil {
		sl.MarkAgents(set)
	}
	return set
}

// touchedLocked lists active sessions (≠ trigger) with load on any of the
// given agents, in ascending session order. Caller holds the commit lock.
// Each membership test is O(touched agents of the session), not O(fleet).
func (o *Orchestrator) touchedLocked(trigger model.SessionID, agents []bool) []model.SessionID {
	var out []model.SessionID
	for s := range o.cache.EachActive() {
		if s == trigger {
			continue
		}
		if o.cache.SessionLoad(o.a, s).OverlapsAgents(agents) {
			out = append(out, s)
		}
	}
	return out
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

// Run processes an event schedule in order. When a runtime is attached, the
// data plane is ticked across event gaps and to horizonS at the end, so
// dual-feed overheads land in telemetry. Returns the per-event reports. In
// pipelined mode events are streamed into the scheduler and overlap when
// their footprints allow; reports still come back in schedule order, and
// the orchestrator is fully drained when Run returns.
func (o *Orchestrator) Run(events []workload.Event, horizonS float64) ([]EventReport, error) {
	if o.pipe != nil {
		return o.runPipelined(events, horizonS)
	}
	reports := make([]EventReport, 0, len(events))
	for i, e := range events {
		// The schedule contract is non-decreasing time; reject violations
		// instead of silently regressing the clock (advanceClock would
		// otherwise just ignore them).
		if i > 0 && e.TimeS < events[i-1].TimeS {
			return reports, fmt.Errorf("orchestrator: out-of-order event %d at t=%v after t=%v",
				i, e.TimeS, events[i-1].TimeS)
		}
		if rt := o.runtime(); rt != nil {
			if dt := e.TimeS - rt.Now(); dt > 1e-9 {
				if _, err := rt.Tick(dt); err != nil {
					return reports, err
				}
			}
		}
		rep, err := o.HandleEvent(e)
		if err != nil {
			return reports, err
		}
		reports = append(reports, rep)
	}
	if rt := o.runtime(); rt != nil {
		if dt := horizonS - rt.Now(); dt > 1e-9 {
			if _, err := rt.Tick(dt); err != nil {
				return reports, err
			}
		}
	}
	return reports, nil
}

func (o *Orchestrator) runtime() *confsim.Runtime {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.rt
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
// percentiles and (in pipelined mode) the scheduler telemetry.
func (o *Orchestrator) Stats() Stats {
	qs := []float64{0.50, 0.99}
	o.mu.Lock()
	st := o.stats
	lat := o.lat.QuantilesDuration(qs)
	ttr := o.ttr.QuantilesDuration(qs)
	st.ReoptP50, st.ReoptP99 = lat[0], lat[1]
	st.RecoverP50, st.RecoverP99 = ttr[0], ttr[1]
	o.mu.Unlock()
	if o.pipe != nil {
		ps := o.pipe.Stats()
		st.AdmissionStalls = ps.AdmissionStalls
		st.ReoptWaits = ps.ReoptWaits
		st.QueueDepthPeak = ps.QueueDepthPeak
		st.InFlightPeak = ps.InFlightPeak
	}
	return st
}

// snapshotStats copies the raw counters only — the serial HandleEvent path
// diffs it around each dispatch, so it skips the derived percentile and
// scheduler-telemetry fills Stats performs.
func (o *Orchestrator) snapshotStats() Stats {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.stats
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
	p := o.ev.Params()
	for s := range o.cache.EachActive() {
		want.Add(p.SessionLoadOf(o.a, s))
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
