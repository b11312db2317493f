// Package confsim simulates the data plane of the cloud conferencing system:
// the substrate standing in for the paper's C++/OpenCV prototype on EC2
// (§V-A). Users emit frames at a fixed rate, agents relay and transcode them
// according to the live control-plane assignment, and assignment migrations
// run the paper's dual-feed protocol — the migrating client sends its stream
// to both the old and the new agent for a short interval (<30 ms in the
// paper), trading a small traffic overhead for zero streaming interruption.
//
// The runtime advances on a virtual clock in fixed ticks and reports
// *measured* observables: steady-state inter-agent traffic plus migration
// overhead plus small measurement jitter, mirroring the fluctuations the
// paper attributes to "perturbations on actual data and assignment
// migrations" (Fig. 4).
package confsim

import (
	"fmt"
	"math"

	"vconf/internal/assign"
	"vconf/internal/cost"
	"vconf/internal/model"
)

// Config tunes the runtime.
type Config struct {
	// FrameRateFPS is the video frame rate (paper: 30 fps).
	FrameRateFPS float64
	// DualFeed enables the migration protocol of §V-A: when true, a
	// migrating stream feeds old and new agents simultaneously for
	// DualFeedWindowS, so destinations never freeze; when false, each
	// migration freezes the affected destinations for FreezeFrames frames
	// ("a frozen screen for a short period as 2-3 frames are delayed").
	DualFeed bool
	// DualFeedWindowS is the dual-feed overlap duration in seconds
	// (paper: <30 ms on average).
	DualFeedWindowS float64
	// FreezeFrames is the per-migration freeze length without dual feed.
	FreezeFrames int
	// JitterFrac scales deterministic measurement jitter applied to traffic
	// and delay readings (e.g. 0.02 = ±2%). Zero disables jitter.
	JitterFrac float64
	// SegmentSeconds enables segmentation-based transcoding migration
	// (§IV-C, citing Jokhio et al. [15]): a transcoding-task migration
	// (FlowMove) takes effect only at the next segment boundary — the old
	// agent finishes the current segment, the new agent starts the next —
	// so no dual feed and no redundant traffic are needed for transcoder
	// moves. Zero disables segmentation (flow moves dual-feed like user
	// moves).
	SegmentSeconds float64
	// Seed drives the jitter sequence.
	Seed int64
}

// DefaultConfig matches the paper's prototype: 30 fps, dual-feed migration
// with a 30 ms overlap, 2% measurement jitter.
func DefaultConfig(seed int64) Config {
	return Config{
		FrameRateFPS:    30,
		DualFeed:        true,
		DualFeedWindowS: 0.03,
		FreezeFrames:    3,
		JitterFrac:      0.02,
		Seed:            seed,
	}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.FrameRateFPS <= 0 {
		return fmt.Errorf("confsim: frame rate must be positive")
	}
	if c.DualFeedWindowS < 0 || c.JitterFrac < 0 || c.FreezeFrames < 0 || c.SegmentSeconds < 0 {
		return fmt.Errorf("confsim: negative config value")
	}
	return nil
}

// dualFeed is one in-flight migration overlap.
type dualFeed struct {
	startS float64
	untilS float64
	mbps   float64 // redundant stream bitrate during the overlap
}

// Runtime is the data-plane simulator. Not safe for concurrent use.
type Runtime struct {
	sc     *model.Scenario
	params cost.Params
	cfg    Config
	loads  cost.Scratch // prices each tick's inter-agent traffic

	cur    *assign.Assignment
	active map[model.SessionID]bool

	now       float64
	feeds     []dualFeed
	jitterSeq uint64
	// pendingFlows are transcoder migrations deferred to the next segment
	// boundary (SegmentSeconds > 0).
	pendingFlows []pendingFlowMove

	// Cumulative counters.
	framesRelayed     int64
	framesTranscoded  int64
	frozenFrames      int64
	migrations        int64
	segmentHandoffs   int64
	overheadMbpsTicks float64 // ∫ overhead dt, for reporting average overhead
}

// pendingFlowMove is a transcoder migration waiting for a segment boundary.
type pendingFlowMove struct {
	effectiveAtS float64
	decision     assign.Decision
}

// New creates a runtime over the scenario. The assignment starts empty;
// attach sessions with ActivateSession or install a full one with
// SetAssignment.
func New(sc *model.Scenario, params cost.Params, cfg Config) (*Runtime, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Runtime{
		sc:     sc,
		params: params,
		cfg:    cfg,
		cur:    assign.New(sc),
		active: make(map[model.SessionID]bool, sc.NumSessions()),
	}, nil
}

// SetAssignment installs a full assignment snapshot; every complete session
// becomes active.
func (r *Runtime) SetAssignment(a *assign.Assignment) {
	r.cur = a.Clone()
	for s := 0; s < r.sc.NumSessions(); s++ {
		r.active[model.SessionID(s)] = r.cur.SessionComplete(model.SessionID(s))
	}
}

// ActivateSession marks a (complete) session live on the data plane.
func (r *Runtime) ActivateSession(s model.SessionID, a *assign.Assignment) error {
	if !a.SessionComplete(s) {
		return fmt.Errorf("confsim: session %d assignment incomplete", s)
	}
	for _, u := range r.sc.Session(s).Users {
		r.cur.SetUserAgent(u, a.UserAgent(u))
	}
	for _, f := range a.SessionFlows(s) {
		m, _ := a.FlowAgent(f)
		if err := r.cur.SetFlowAgent(f, m); err != nil {
			return err
		}
	}
	r.active[s] = true
	return nil
}

// DeactivateSession removes a session from the data plane.
func (r *Runtime) DeactivateSession(s model.SessionID) {
	r.active[s] = false
	for _, u := range r.sc.Session(s).Users {
		r.cur.SetUserAgent(u, assign.Unassigned)
	}
	for _, f := range r.cur.SessionFlows(s) {
		_ = r.cur.SetFlowAgent(f, assign.Unassigned)
	}
}

// Migrate applies a control-plane decision to the data plane at virtual time
// nowS, running the dual-feed protocol. The affected stream's bitrate is
// charged as redundant traffic for the overlap window (the paper's
// "migration cost"); without dual feed, destination users freeze instead.
func (r *Runtime) Migrate(nowS float64, d assign.Decision) error {
	r.advance(nowS)
	var streamMbps float64
	var affectedDst int
	switch d.Kind {
	case assign.UserMove:
		u := r.sc.User(d.User)
		streamMbps = r.sc.Reps.Bitrate(u.Upstream)
		affectedDst = len(r.sc.Participants(d.User))
	case assign.FlowMove:
		if r.cfg.SegmentSeconds > 0 {
			// Segmentation-based transcoding migration: the old agent
			// finishes the current segment; the transcoder switches at the
			// next boundary with no redundant transfer and no freeze.
			boundary := nextSegmentBoundary(nowS, r.cfg.SegmentSeconds)
			r.pendingFlows = append(r.pendingFlows, pendingFlowMove{
				effectiveAtS: boundary,
				decision:     d,
			})
			r.migrations++
			return nil
		}
		src := r.sc.User(d.Flow.Src)
		streamMbps = r.sc.Reps.Bitrate(src.Upstream)
		affectedDst = 1
	default:
		return fmt.Errorf("confsim: invalid migration decision")
	}
	if _, err := r.cur.Apply(d); err != nil {
		return fmt.Errorf("confsim: migrate: %w", err)
	}
	r.migrations++
	if r.cfg.DualFeed {
		r.feeds = append(r.feeds, dualFeed{startS: nowS, untilS: nowS + r.cfg.DualFeedWindowS, mbps: streamMbps})
	} else {
		r.frozenFrames += int64(r.cfg.FreezeFrames * affectedDst)
	}
	return nil
}

// nextSegmentBoundary returns the first segment boundary strictly after t.
func nextSegmentBoundary(t, segment float64) float64 {
	n := math.Floor(t/segment) + 1
	return n * segment
}

// Telemetry is one tick's measured observables.
type Telemetry struct {
	TimeS float64
	// InterAgentMbps is the measured inter-agent traffic: steady state per
	// the current assignment, plus dual-feed overhead, plus jitter.
	InterAgentMbps float64
	// SteadyMbps is the jitter-free control-plane traffic (for tests).
	SteadyMbps float64
	// OverheadMbps is the dual-feed redundant traffic active this tick.
	OverheadMbps float64
	// MeanDelayMS is the measured conferencing delay (with jitter).
	MeanDelayMS float64
	// FramesRelayed counts frames forwarded across all flows this tick.
	FramesRelayed int64
	// FramesTranscoded counts frames that passed a transcoder this tick.
	FramesTranscoded int64
	// ActiveSessions is the number of live sessions.
	ActiveSessions int
}

// Tick advances the runtime by dtS seconds and measures the system.
func (r *Runtime) Tick(dtS float64) (Telemetry, error) {
	if dtS <= 0 {
		return Telemetry{}, fmt.Errorf("confsim: tick duration must be positive, got %v", dtS)
	}
	start := r.now

	// Dual-feed overhead active during [start, start+dt], measured before
	// the clock advance garbage-collects expired feeds. A feed created
	// mid-window (Migrate may be called with a timestamp before the current
	// tick boundary) only counts its true overlap.
	overhead := 0.0
	for _, f := range r.feeds {
		if f.untilS > start {
			overlap := min(f.untilS, start+dtS) - max(f.startS, start)
			if overlap > 0 {
				overhead += f.mbps * overlap / dtS
			}
		}
	}
	r.overheadMbpsTicks += overhead * dtS

	r.advance(start + dtS)

	var steady, delayAcc float64
	var users int
	var flows, transcodedFlows int
	for s := 0; s < r.sc.NumSessions(); s++ {
		sid := model.SessionID(s)
		if !r.active[sid] {
			continue
		}
		sl := r.params.SessionLoadSparse(r.cur, sid, &r.loads)
		steady += sl.TotalInterTraffic()
		sd := cost.SessionDelaysOf(r.cur, sid)
		n := r.sc.Session(sid).Size()
		delayAcc += sd.MeanOfMaxMS * float64(n)
		users += n
		flows += n * (n - 1)
		for _, u := range r.sc.Session(sid).Users {
			for _, v := range r.sc.Participants(u) {
				if r.sc.Theta(u, v) {
					transcodedFlows++
				}
			}
		}
	}

	framesPerFlow := int64(r.cfg.FrameRateFPS * dtS)
	relayed := int64(flows) * framesPerFlow
	transcoded := int64(transcodedFlows) * framesPerFlow
	r.framesRelayed += relayed
	r.framesTranscoded += transcoded

	meanDelay := 0.0
	if users > 0 {
		meanDelay = delayAcc / float64(users)
	}

	tel := Telemetry{
		TimeS:            r.now,
		SteadyMbps:       steady,
		OverheadMbps:     overhead,
		InterAgentMbps:   (steady + overhead) * (1 + r.jitter()),
		MeanDelayMS:      meanDelay * (1 + r.jitter()),
		FramesRelayed:    relayed,
		FramesTranscoded: transcoded,
	}
	for _, on := range r.active {
		if on {
			tel.ActiveSessions++
		}
	}
	return tel, nil
}

// Stats reports cumulative data-plane counters.
type Stats struct {
	FramesRelayed    int64
	FramesTranscoded int64
	FrozenFrames     int64
	Migrations       int64
	// SegmentHandoffs counts transcoder migrations executed at segment
	// boundaries (SegmentSeconds > 0).
	SegmentHandoffs int64
	// TotalOverheadMbpsS is ∫ dual-feed overhead dt (Mbps·s ≈ Mb of
	// redundant transfer / 1).
	TotalOverheadMbpsS float64
}

// Stats returns the cumulative counters.
func (r *Runtime) Stats() Stats {
	return Stats{
		FramesRelayed:    r.framesRelayed,
		FramesTranscoded: r.framesTranscoded,
		FrozenFrames:     r.frozenFrames,
		Migrations:       r.migrations,
		SegmentHandoffs:  r.segmentHandoffs,

		TotalOverheadMbpsS: r.overheadMbpsTicks,
	}
}

// Assignment returns a snapshot of the data plane's current assignment.
func (r *Runtime) Assignment() *assign.Assignment { return r.cur.Clone() }

// Now returns the runtime's virtual time.
func (r *Runtime) Now() float64 { return r.now }

func (r *Runtime) advance(toS float64) {
	if toS > r.now {
		r.now = toS
	}
	// Garbage-collect expired feeds.
	kept := r.feeds[:0]
	for _, f := range r.feeds {
		if f.untilS > r.now {
			kept = append(kept, f)
		}
	}
	r.feeds = kept
	// Execute segment handoffs whose boundary has passed.
	pending := r.pendingFlows[:0]
	for _, pm := range r.pendingFlows {
		if pm.effectiveAtS <= r.now {
			if _, err := r.cur.Apply(pm.decision); err == nil {
				r.segmentHandoffs++
			}
		} else {
			pending = append(pending, pm)
		}
	}
	r.pendingFlows = pending
}

// jitter returns a deterministic pseudo-random value in
// [−JitterFrac, +JitterFrac].
func (r *Runtime) jitter() float64 {
	if r.cfg.JitterFrac == 0 {
		return 0
	}
	r.jitterSeq++
	z := uint64(r.cfg.Seed)*0x9e3779b9 + r.jitterSeq*0xbf58476d1ce4e5b9
	z ^= z >> 29
	z *= 0x94d049bb133111eb
	z ^= z >> 32
	u := float64(z>>11) / float64(1<<53) // [0,1)
	return (2*u - 1) * r.cfg.JitterFrac
}
