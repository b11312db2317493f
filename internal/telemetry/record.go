package telemetry

// DecisionRecord is the structured trace of one churn event's handling:
// what arrived, how admission went, what the re-optimization did and how
// long each phase took, how the caches behaved, and the counterfactual-k
// reading — the gap between the committed placement and the 2nd-best
// candidate at the decisive hop, captured from the already-evaluated hop
// loop at no extra evaluation cost.
type DecisionRecord struct {
	// Seq is the record's position in the full stream (assigned by the
	// ring; stable even after it wraps).
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
	// CacheWarm/CacheCold count the BeginSession calls of the event's tasks
	// that started from their scratch's prepared state (hit or patch) vs
	// rebuilt it.
	CacheWarm int `json:"cache_warm"`
	CacheCold int `json:"cache_cold"`
	// ChosenAgent is the decisive hop's target agent of the event's first
	// committed proposal in re-optimization-set order (-1 when nothing
	// committed). CfGap is counterfactual-k: Φ(2nd-best candidate) −
	// Φ(chosen candidate) at that hop — positive means the chosen placement
	// beat the runner-up by that margin; CfValid is false when no second
	// candidate existed.
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
	// depend on racing reads of live counters.
	Incident    int `json:"incident,omitempty"`
	Orphans     int `json:"orphans,omitempty"`
	Evacuated   int `json:"evacuated,omitempty"`
	EvacRejects int `json:"evac_rejects,omitempty"`
}
