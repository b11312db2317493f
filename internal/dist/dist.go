// Package dist deploys Alg. 1 as an actual network protocol: a Coordinator
// process owning the authoritative assignment state, and one Runner per
// session computing WAIT/HOP locally and committing over a net.Conn. The
// transport is the caller's: the coordinator serves any net.Listener and a
// runner dials through any dial function (TCP in the vconf facade, an
// in-memory net.Pipe network in this package's tests).
//
// The wire protocol realizes the FREEZE/UNFREEZE mutual exclusion of §IV-A
// as explicit frames:
//
//	runner → coordinator  FREEZE    {session}
//	coordinator → runner  GRANTED   {λ vector, γ vector}
//	runner → coordinator  COMMIT    {moved, decision}
//	coordinator → runner  COMMITTED | REJECT
//
// Between GRANTED and COMMITTED the coordinator holds the global freeze
// lock, so exactly one session migrates at a time — the same mutual
// exclusion the paper's intra-cloud FREEZE broadcast establishes. The
// runner computes the hop from the granted snapshot with the shared
// core.HopSessionWith logic on a scratch of its own (its delay cache
// re-validates the session's entry against every granted snapshot), so the
// distributed deployment and the in-process engines walk statistically
// identical chains.
//
// Frames are newline-delimited JSON over a byte stream; both ends of an
// exchange run in lockstep, so no framing beyond the newline is needed. A
// coordinator deadline over the whole exchange bounds how long a crashed or
// stalled runner can hold the freeze.
package dist

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"time"

	"vconf/internal/assign"
	"vconf/internal/core"
	"vconf/internal/cost"
	"vconf/internal/model"
	"vconf/internal/telemetry"
)

// Span track lanes for the dist protocol, in the shared telemetry lane
// plan (orchestrator owns 0..199): server freezes serialize on one lane
// (the freeze lock admits one at a time), client exchanges spread over a
// small block keyed by session so concurrent runners don't visually
// overlap.
const (
	distServerLane     = 200
	distClientLaneBase = 240
	distClientLanes    = 32
)

// Frame type tags.
const (
	frameFreeze    = "freeze"
	frameGranted   = "granted"
	frameCommit    = "commit"
	frameCommitted = "committed"
	frameReject    = "reject"
	frameError     = "error"
)

// wireDecision serializes an assign.Decision.
type wireDecision struct {
	Kind int `json:"kind"`
	User int `json:"user,omitempty"`
	Src  int `json:"src,omitempty"`
	Dst  int `json:"dst,omitempty"`
	To   int `json:"to"`
}

func toWire(d assign.Decision) *wireDecision {
	return &wireDecision{
		Kind: int(d.Kind),
		User: int(d.User),
		Src:  int(d.Flow.Src),
		Dst:  int(d.Flow.Dst),
		To:   int(d.To),
	}
}

func (w *wireDecision) decision() assign.Decision {
	return assign.Decision{
		Kind: assign.DecisionKind(w.Kind),
		User: model.UserID(w.User),
		Flow: model.Flow{Src: model.UserID(w.Src), Dst: model.UserID(w.Dst)},
		To:   model.AgentID(w.To),
	}
}

// frame is one protocol message in either direction.
type frame struct {
	Type    string `json:"type"`
	Session int    `json:"session,omitempty"`
	// Users and Flows carry the full λ and γ vectors of the authoritative
	// assignment in a GRANTED frame (γ in the scenario's canonical flow
	// order).
	Users    []int         `json:"users,omitempty"`
	Flows    []int         `json:"flows,omitempty"`
	Moved    bool          `json:"moved,omitempty"`
	Decision *wireDecision `json:"decision,omitempty"`
	Err      string        `json:"err,omitempty"`
}

// DefaultFreezeHold bounds how long a granted freeze may last — GRANTED
// write, COMMIT read and ack write — before the coordinator drops the
// connection and releases the lock.
const DefaultFreezeHold = 10 * time.Second

// ErrPeerDied marks the far end of a protocol exchange dying (EOF, reset, or
// a deadline expiry) mid-handshake. Match with errors.Is.
var ErrPeerDied = errors.New("dist: peer died")

// PeerError records which protocol phase the peer vanished in. It satisfies
// errors.Is(err, ErrPeerDied) and unwraps to the underlying network error.
type PeerError struct {
	Phase   string // "dial", "freeze", "granted", "commit", "ack"
	Session int
	Err     error
}

func (e *PeerError) Error() string {
	return fmt.Sprintf("dist: peer died in %s phase (session %d): %v", e.Phase, e.Session, e.Err)
}

func (e *PeerError) Unwrap() error { return e.Err }

// Is reports ErrPeerDied so callers can classify without the concrete type.
func (e *PeerError) Is(target error) bool { return target == ErrPeerDied }

// Config tunes the coordinator's failure handling. The zero value selects
// the defaults.
type Config struct {
	// FreezeHold bounds how long a granted freeze may last before the
	// coordinator drops the connection and releases the lock. It covers the
	// GRANTED write as well as the COMMIT read, so a peer that stops reading
	// cannot keep the fleet frozen either. Defaults to DefaultFreezeHold.
	FreezeHold time.Duration
	// Telemetry receives the protocol metric families
	// (vconf_dist_freeze_ns, vconf_dist_abandons_total,
	// vconf_dist_retries_total) and per-phase server spans. Nil disables
	// instrumentation entirely.
	Telemetry *telemetry.Sink
}

func (cfg Config) withDefaults() Config {
	if cfg.FreezeHold <= 0 {
		cfg.FreezeHold = DefaultFreezeHold
	}
	return cfg
}

// Coordinator owns the authoritative assignment and serializes hops through
// the freeze lock. Safe for concurrent connections.
type Coordinator struct {
	ev  *cost.Evaluator
	ln  net.Listener
	cfg Config
	tel *telemetry.Sink

	mu     sync.Mutex // the FREEZE lock, held from GRANTED to COMMITTED
	a      *assign.Assignment
	ledger *cost.Ledger
	scr    *cost.Scratch // prices commits; guarded by mu

	statsMu sync.Mutex
	stats   Stats

	closeOnce sync.Once
	closeErr  error
	connWG    sync.WaitGroup // acceptLoop and every serve goroutine

	connMu sync.Mutex
	closed bool // set by Close; no connection registers after it
	conns  map[net.Conn]struct{}
}

// Stats counts granted freezes and how each one ended. Every grant ends in
// exactly one of the other four, so once no exchange is in flight
// Grants = Commits + Stays + Rejects + Abandons.
type Stats struct {
	Grants   int // freezes that took the lock
	Commits  int // hops that migrated
	Stays    int // hops that found no feasible move
	Rejects  int // commits that failed validation
	Abandons int // peer died, or outlasted FreezeHold, before its COMMIT
}

// NewCoordinator starts a coordinator serving ln with the given complete
// initial assignment. The coordinator owns ln: Close closes it, and so does
// a failed constructor.
func NewCoordinator(ev *cost.Evaluator, a *assign.Assignment, ln net.Listener, cfg Config) (*Coordinator, error) {
	sc := ev.Scenario()
	for s := 0; s < sc.NumSessions(); s++ {
		if !a.SessionComplete(model.SessionID(s)) {
			ln.Close()
			return nil, fmt.Errorf("dist: coordinator needs a complete assignment; session %d is not", s)
		}
	}
	c := &Coordinator{
		ev:     ev,
		ln:     ln,
		cfg:    cfg.withDefaults(),
		tel:    cfg.Telemetry,
		a:      a.Clone(),
		ledger: ev.Params().LedgerOf(a),
		scr:    ev.NewScratch(),
		conns:  make(map[net.Conn]struct{}),
	}
	c.connWG.Add(1)
	go c.acceptLoop()
	return c, nil
}

// Addr returns the coordinator's listen address.
func (c *Coordinator) Addr() string { return c.ln.Addr().String() }

// Close stops the listener, closes live connections (an idle runner would
// otherwise park a serve goroutine in a deadline-free read forever), and
// waits for the accept loop and the handlers to drain. Safe to call more
// than once and concurrently.
func (c *Coordinator) Close() error {
	c.closeOnce.Do(func() {
		c.closeErr = c.ln.Close()
		c.connMu.Lock()
		c.closed = true
		for conn := range c.conns {
			conn.Close()
		}
		c.connMu.Unlock()
		c.connWG.Wait()
	})
	return c.closeErr
}

// Stats returns the freeze counters.
func (c *Coordinator) Stats() Stats {
	c.statsMu.Lock()
	defer c.statsMu.Unlock()
	return c.stats
}

// Assignment returns a snapshot of the authoritative assignment.
func (c *Coordinator) Assignment() *assign.Assignment {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.a.Clone()
}

func (c *Coordinator) acceptLoop() {
	defer c.connWG.Done()
	for {
		conn, err := c.ln.Accept()
		if err != nil {
			return // listener closed
		}
		// Register only while open: a connection accepted just before Close
		// would otherwise miss Close's sweep and park its handler in a
		// deadline-free read after Close returned.
		c.connMu.Lock()
		if c.closed {
			c.connMu.Unlock()
			conn.Close()
			return
		}
		c.conns[conn] = struct{}{}
		c.connWG.Add(1)
		c.connMu.Unlock()
		go func() {
			defer c.connWG.Done()
			defer func() {
				conn.Close()
				c.connMu.Lock()
				delete(c.conns, conn)
				c.connMu.Unlock()
			}()
			c.serve(conn)
		}()
	}
}

// serve handles one runner connection: any number of FREEZE→COMMIT
// exchanges in sequence.
func (c *Coordinator) serve(conn net.Conn) {
	dec := json.NewDecoder(bufio.NewReader(conn))
	enc := json.NewEncoder(conn)
	for {
		conn.SetDeadline(time.Time{}) // idle between freezes is fine
		var req frame
		if err := dec.Decode(&req); err != nil {
			return
		}
		if req.Type != frameFreeze {
			enc.Encode(frame{Type: frameError, Err: fmt.Sprintf("expected %s, got %s", frameFreeze, req.Type)})
			return
		}
		if req.Session < 0 || req.Session >= c.ev.Scenario().NumSessions() {
			enc.Encode(frame{Type: frameError, Err: fmt.Sprintf("unknown session %d", req.Session)})
			return
		}
		if err := c.handleFreeze(conn, dec, enc, req.Session); err != nil {
			return
		}
	}
}

// handleFreeze runs one GRANTED→COMMIT exchange under the freeze lock.
// The freeze-hold histogram spans lock acquisition to release — the window
// during which the whole fleet is frozen for this one session.
func (c *Coordinator) handleFreeze(conn net.Conn, dec *json.Decoder, enc *json.Encoder, session int) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.bump(&c.stats.Grants)
	held := time.Now()
	srv := c.tel.StartRoot("dist:freeze", "dist", distServerLane)
	defer func() {
		c.tel.DistFreeze(time.Since(held).Nanoseconds())
		srv.EndArg(int64(session))
	}()

	grant := c.tel.StartSpan("grant", srv)
	sc := c.ev.Scenario()
	granted := frame{Type: frameGranted, Session: session}
	granted.Users = make([]int, sc.NumUsers())
	for u := 0; u < sc.NumUsers(); u++ {
		granted.Users[u] = int(c.a.UserAgent(model.UserID(u)))
	}
	flows := c.a.Flows()
	granted.Flows = make([]int, len(flows))
	for i, f := range flows {
		l, _ := c.a.FlowAgent(f)
		granted.Flows[i] = int(l)
	}
	// The freeze is now held: bound the whole exchange, GRANTED write
	// included — a peer that never reads would otherwise block the write,
	// and the fleet, forever.
	conn.SetDeadline(time.Now().Add(c.cfg.FreezeHold))
	if err := enc.Encode(granted); err != nil {
		return c.abandon("granted", session, err)
	}
	grant.End()

	wait := c.tel.StartSpan("await-commit", srv)
	var com frame
	if err := dec.Decode(&com); err != nil {
		return c.abandon("commit", session, err)
	}
	wait.End()
	commit := c.tel.StartSpan("commit", srv)
	defer commit.End()
	if com.Type != frameCommit {
		c.bump(&c.stats.Rejects)
		enc.Encode(frame{Type: frameError, Err: fmt.Sprintf("expected %s, got %s", frameCommit, com.Type)})
		return errors.New("dist: protocol violation")
	}

	if !com.Moved || com.Decision == nil {
		c.bump(&c.stats.Stays)
		return enc.Encode(frame{Type: frameCommitted, Session: session})
	}

	// Never trust the wire: the commit must target the frozen session, and
	// the decision must belong to it — otherwise the load accounting below
	// would charge the wrong session (or index out of range).
	sid := model.SessionID(session)
	d := com.Decision.decision()
	if com.Session != session {
		c.bump(&c.stats.Rejects)
		return enc.Encode(frame{Type: frameReject, Session: session,
			Err: fmt.Sprintf("commit for session %d under freeze of %d", com.Session, session)})
	}
	owner, err := cost.TouchedSession(sc, d)
	if err != nil || owner != sid {
		c.bump(&c.stats.Rejects)
		return enc.Encode(frame{Type: frameReject, Session: session, Err: "decision outside the frozen session"})
	}
	if d.To < 0 || int(d.To) >= sc.NumAgents() {
		c.bump(&c.stats.Rejects)
		return enc.Encode(frame{Type: frameReject, Session: session, Err: fmt.Sprintf("unknown agent %d", d.To)})
	}
	// Price the decision on the state it moves from: the assignment changes
	// only once the move is known to fit and to keep the delay cap.
	c.ev.BeginSession(c.a, sid, c.scr)
	curLoad := c.scr.CurLoad()
	c.ledger.Remove(curLoad)
	newLoad, err := c.ev.NeighbourLoad(c.a, sid, d, c.scr)
	if err == nil {
		if _, delayOK := c.ev.CandidatePhi(c.a, sid, d, c.scr); !delayOK || !c.ledger.FitsRepairDelta(newLoad, curLoad) {
			err = errors.New("infeasible commit")
		} else {
			_, err = c.a.Apply(d)
		}
	}
	if err != nil {
		c.ledger.Add(curLoad)
		c.bump(&c.stats.Rejects)
		return enc.Encode(frame{Type: frameReject, Session: session, Err: err.Error()})
	}
	c.ledger.Add(newLoad)
	c.bump(&c.stats.Commits)
	return enc.Encode(frame{Type: frameCommitted, Session: session})
}

// abandon ends a freeze whose peer vanished mid-exchange (EOF or reset is
// immediate; a silent stall trips the FreezeHold deadline). The deferred
// unlock releases the frozen state the moment handleFreeze returns — the
// authoritative assignment never changed, so no rollback is needed, but the
// half-open exchange is recorded for operators.
func (c *Coordinator) abandon(phase string, session int, err error) error {
	c.bump(&c.stats.Abandons)
	c.tel.DistAbandon()
	return &PeerError{Phase: phase, Session: session, Err: err}
}

func (c *Coordinator) bump(counter *int) {
	c.statsMu.Lock()
	*counter++
	c.statsMu.Unlock()
}

// Runner executes one session's WAIT/HOP loop against a remote Coordinator.
type Runner struct {
	ev  *cost.Evaluator
	s   model.SessionID
	cfg core.Config
	hop *core.HopScratch
	// TimeScale compresses virtual seconds into wall time: a countdown of c
	// virtual seconds sleeps c×TimeScale. Defaults to 1 ms per virtual
	// second.
	TimeScale time.Duration
	// MaxAttempts bounds how many times one FREEZE→COMMIT round-trip is
	// attempted before Run gives up with a PeerError, redialing between
	// attempts. Defaults to 1 (no retries). Retrying restarts the whole
	// exchange from a fresh FREEZE — any freeze abandoned mid-flight was
	// already released by the coordinator, and a commit whose ack was lost
	// simply becomes the base state of the retried hop's snapshot.
	MaxAttempts int
	// BackoffBase and BackoffMax shape the exponential backoff between
	// attempts: the delay doubles per failure from BackoffBase, capped at
	// BackoffMax, with ±50% jitter drawn from the runner's seeded stream.
	// Default 5ms base, 250ms cap.
	BackoffBase time.Duration
	BackoffMax  time.Duration
	// Telemetry receives client-side per-phase spans and the retry
	// counter; nil disables instrumentation. ParentSpan, when active,
	// parents each exchange span (e.g. under an orchestrator heal span)
	// so distributed hops show up inside the triggering incident's flame;
	// otherwise exchanges root on a per-session client lane.
	Telemetry  *telemetry.Sink
	ParentSpan telemetry.Span
}

// clientSpan starts one exchange-scoped span, parented to ParentSpan when
// the caller threaded one in, rooted on the session's client lane when not.
func (r *Runner) clientSpan(name string) telemetry.Span {
	if r.ParentSpan.Active() {
		return r.Telemetry.StartSpan(name, r.ParentSpan)
	}
	return r.Telemetry.StartRoot(name, "dist", distClientLaneBase+int32(int(r.s)%distClientLanes))
}

// NewRunner builds the runner for one session.
func NewRunner(ev *cost.Evaluator, session model.SessionID, cfg core.Config) (*Runner, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if int(session) < 0 || int(session) >= ev.Scenario().NumSessions() {
		return nil, fmt.Errorf("dist: unknown session %d", session)
	}
	return &Runner{
		ev: ev, s: session, cfg: cfg, hop: core.NewHopScratch(ev),
		TimeScale:   time.Millisecond,
		MaxAttempts: 1,
		BackoffBase: 5 * time.Millisecond,
		BackoffMax:  250 * time.Millisecond,
	}, nil
}

// Run connects to the coordinator through dial and executes up to maxHops
// hops, returning the number performed. A context cancellation or deadline
// is a clean stop, not an error. Network faults (peer death in any phase,
// refused dials) are retried up to MaxAttempts times per round-trip with
// exponential backoff, redialing each time; exhausting the budget surfaces a
// PeerError matching errors.Is(err, ErrPeerDied).
func (r *Runner) Run(ctx context.Context, dial func(context.Context) (net.Conn, error), maxHops int) (int, error) {
	// Independent per-session randomness, deterministically seeded per
	// session (backoff jitter draws from the same stream).
	rng := rand.New(rand.NewSource(r.cfg.Seed + int64(r.s)*7919))

	var conn net.Conn
	var dec *json.Decoder
	var enc *json.Encoder
	drop := func() {
		if conn != nil {
			conn.Close()
			conn = nil
		}
	}
	defer drop()
	connect := func() error {
		c, err := dial(ctx)
		if err != nil {
			return &PeerError{Phase: "dial", Session: int(r.s), Err: err}
		}
		if deadline, ok := ctx.Deadline(); ok {
			c.SetDeadline(deadline)
		}
		conn = c
		dec = json.NewDecoder(bufio.NewReader(c))
		enc = json.NewEncoder(c)
		return nil
	}
	attempts := r.MaxAttempts
	if attempts < 1 {
		attempts = 1
	}

	hops := 0
	for hops < maxHops {
		// WAIT: exponential countdown with mean 1/τ, compressed by TimeScale.
		wait := time.Duration(rng.ExpFloat64() * r.cfg.MeanCountdownS * float64(r.TimeScale))
		timer := time.NewTimer(wait)
		select {
		case <-ctx.Done():
			timer.Stop()
			return hops, nil
		case <-timer.C:
		}

		// One FREEZE→COMMIT round-trip, restarted from scratch on network
		// faults: an abandoned freeze was already released by the
		// coordinator, and a commit whose ack was lost simply becomes part
		// of the snapshot the retried hop computes against.
		var lastErr error
		done := false
		for att := 0; att < attempts; att++ {
			if att > 0 {
				r.Telemetry.DistRetry()
				if err := r.backoff(ctx, rng, att); err != nil {
					return hops, nil
				}
			}
			if conn == nil {
				dsp := r.clientSpan("dist:dial")
				if err := connect(); err != nil {
					if ctx.Err() != nil {
						return hops, nil
					}
					lastErr = err
					continue
				}
				dsp.End()
			}
			retry, err := r.exchange(dec, enc, rng)
			if err == nil {
				done = true
				break
			}
			if ctx.Err() != nil {
				return hops, nil
			}
			if !retry {
				return hops, err
			}
			drop()
			lastErr = err
		}
		if !done {
			return hops, lastErr
		}
		hops++
	}
	return hops, nil
}

// exchange runs one full FREEZE→GRANTED→COMMIT→ack round-trip on the live
// connection. The bool classifies a failure as a retryable network fault
// (peer death) versus a fatal protocol violation.
// Failed exchanges abandon their spans un-Ended (never recorded); the
// retry counter carries that signal instead.
func (r *Runner) exchange(dec *json.Decoder, enc *json.Encoder, rng *rand.Rand) (retry bool, err error) {
	ex := r.clientSpan("dist:exchange")
	freeze := r.Telemetry.StartSpan("freeze", ex)
	if err := enc.Encode(frame{Type: frameFreeze, Session: int(r.s)}); err != nil {
		return true, &PeerError{Phase: "freeze", Session: int(r.s), Err: err}
	}
	var granted frame
	if err := dec.Decode(&granted); err != nil {
		return true, &PeerError{Phase: "granted", Session: int(r.s), Err: err}
	}
	if granted.Type != frameGranted {
		return false, fmt.Errorf("dist: expected %s, got %s (%s)", frameGranted, granted.Type, granted.Err)
	}
	freeze.End()

	// HOP: rebuild the granted snapshot locally and run the shared hop
	// logic against it.
	hop := r.Telemetry.StartSpan("hop", ex)
	a, ledger, err := r.restore(granted)
	if err != nil {
		return false, err
	}
	res, err := core.HopSessionWith(a, r.s, r.ev, ledger, r.cfg, rng, r.hop)
	if err != nil {
		return false, fmt.Errorf("dist: hop session %d: %w", r.s, err)
	}
	hop.End()
	commit := r.Telemetry.StartSpan("commit", ex)
	com := frame{Type: frameCommit, Session: int(r.s), Moved: res.Moved}
	if res.Moved {
		com.Decision = toWire(res.Decision)
	}
	if err := enc.Encode(com); err != nil {
		return true, &PeerError{Phase: "commit", Session: int(r.s), Err: err}
	}
	var ack frame
	if err := dec.Decode(&ack); err != nil {
		return true, &PeerError{Phase: "ack", Session: int(r.s), Err: err}
	}
	switch ack.Type {
	case frameCommitted, frameReject:
		commit.End()
		moved := int64(0)
		if res.Moved {
			moved = 1
		}
		ex.EndArg(moved)
		return false, nil
	default:
		return false, fmt.Errorf("dist: unexpected ack %s (%s)", ack.Type, ack.Err)
	}
}

// backoff sleeps before retry attempt att: exponential from BackoffBase,
// capped at BackoffMax, with ±50% jitter from the runner's seeded stream so
// herds of runners don't re-dial a recovering coordinator in lockstep.
func (r *Runner) backoff(ctx context.Context, rng *rand.Rand, att int) error {
	base := r.BackoffBase
	if base <= 0 {
		base = 5 * time.Millisecond
	}
	ceil := r.BackoffMax
	if ceil <= 0 {
		ceil = 250 * time.Millisecond
	}
	d := base << uint(att-1)
	if d <= 0 || d > ceil {
		d = ceil
	}
	d = d/2 + time.Duration(rng.Int63n(int64(d)))
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-timer.C:
		return nil
	}
}

// restore rebuilds an assignment and the other-sessions ledger from a
// GRANTED frame. It trusts the wire no more than the coordinator does: an
// agent outside [0, NumAgents) is a protocol error, not an index.
func (r *Runner) restore(granted frame) (*assign.Assignment, *cost.Ledger, error) {
	sc := r.ev.Scenario()
	a := assign.New(sc)
	if len(granted.Users) != sc.NumUsers() || len(granted.Flows) != len(a.Flows()) {
		return nil, nil, fmt.Errorf("dist: granted snapshot shape mismatch")
	}
	for _, agents := range [][]int{granted.Users, granted.Flows} {
		for _, l := range agents {
			if l < 0 || l >= sc.NumAgents() {
				return nil, nil, fmt.Errorf("dist: granted snapshot names unknown agent %d", l)
			}
		}
	}
	for u, l := range granted.Users {
		a.SetUserAgent(model.UserID(u), model.AgentID(l))
	}
	for i, f := range a.Flows() {
		if err := a.SetFlowAgent(f, model.AgentID(granted.Flows[i])); err != nil {
			return nil, nil, err
		}
	}
	return a, r.ev.Params().LedgerOf(a), nil
}
