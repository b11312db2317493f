package dist

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"vconf/internal/assign"
	"vconf/internal/core"
	"vconf/internal/cost"
	"vconf/internal/model"
)

func waitFor(t *testing.T, what string, f func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if f() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// killingNet is a pipe network whose peer closes every connection the
// moment it is accepted, counting them.
func killingNet(t *testing.T) (*pipeNet, *int32) {
	pn := newPipeNet()
	t.Cleanup(func() { pn.Close() })
	var accepts int32
	go func() {
		for {
			c, err := pn.Accept()
			if err != nil {
				return
			}
			atomic.AddInt32(&accepts, 1)
			c.Close()
		}
	}()
	return pn, &accepts
}

// freezeGranted sends FREEZE for session and reads the GRANTED reply.
func freezeGranted(t *testing.T, dec *json.Decoder, enc *json.Encoder, session int) frame {
	t.Helper()
	if err := enc.Encode(frame{Type: frameFreeze, Session: session}); err != nil {
		t.Fatal(err)
	}
	var g frame
	if err := dec.Decode(&g); err != nil || g.Type != frameGranted {
		t.Fatalf("freeze of session %d: granted = %+v, err %v", session, g, err)
	}
	return g
}

// TestRunnerBoundedRetryOnPeerDeath kills the coordinator side of every
// connection mid-handshake: the runner must redial exactly MaxAttempts times
// and then surface a typed peer-death error, not hang or spin forever.
func TestRunnerBoundedRetryOnPeerDeath(t *testing.T) {
	ev, _ := distStack(t, 11)
	pn, accepts := killingNet(t)

	cfg := core.DefaultConfig(11)
	cfg.MeanCountdownS = 0.001
	r, err := NewRunner(ev, 0, cfg)
	if err != nil {
		t.Fatal(err)
	}
	r.MaxAttempts = 3
	r.BackoffBase = time.Millisecond
	r.BackoffMax = 4 * time.Millisecond

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	hops, err := r.Run(ctx, pn.Dial, 1)
	if err == nil {
		t.Fatal("runner succeeded against a peer that dies on every attempt")
	}
	if !errors.Is(err, ErrPeerDied) {
		t.Fatalf("error %v does not match ErrPeerDied", err)
	}
	var pe *PeerError
	if !errors.As(err, &pe) || pe.Phase == "" {
		t.Fatalf("error %v is not a phase-tagged PeerError", err)
	}
	if hops != 0 {
		t.Fatalf("counted %d hops with no live coordinator", hops)
	}
	if got := atomic.LoadInt32(accepts); got != 3 {
		t.Fatalf("runner dialed %d times, want exactly MaxAttempts = 3", got)
	}
}

// TestRunnerRetriesThroughFlakyDialer proves retry-after-failure end to end:
// the runner's first two connections die on arrival, later ones reach a
// real coordinator — the run must complete all its hops anyway.
func TestRunnerRetriesThroughFlakyDialer(t *testing.T) {
	coord, pn := pipeCoordinator(t, 12, Config{})
	dead, _ := killingNet(t)
	var dials int32
	dial := func(ctx context.Context) (net.Conn, error) {
		if atomic.AddInt32(&dials, 1) <= 2 {
			return dead.Dial(ctx)
		}
		return pn.Dial(ctx)
	}

	cfg := core.DefaultConfig(12)
	cfg.MeanCountdownS = 0.001
	r, err := NewRunner(coord.ev, 0, cfg)
	if err != nil {
		t.Fatal(err)
	}
	r.MaxAttempts = 4
	r.BackoffBase = time.Millisecond
	r.BackoffMax = 4 * time.Millisecond

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	hops, err := r.Run(ctx, dial, 3)
	if err != nil {
		t.Fatalf("run through flaky dialer: %v", err)
	}
	if hops != 3 {
		t.Fatalf("completed %d hops, want 3", hops)
	}
	if atomic.LoadInt32(&dials) <= 2 {
		t.Fatal("no connection was killed; the retry path was not exercised")
	}
}

// TestFreezeReleasedOnPeerDeath is the FREEZE→COMMIT drop regression: a peer
// that dies while holding the freeze must release it immediately (not after
// the FreezeHold deadline), the abandoned exchange must be counted, and the
// next freeze must proceed normally.
func TestFreezeReleasedOnPeerDeath(t *testing.T) {
	coord, pn := pipeCoordinator(t, 13, Config{})

	// A freezes session 0, then crashes while holding the lock.
	a, adec, aenc := rawConn(t, pn)
	freezeGranted(t, adec, aenc, 0)
	a.Close()

	// B's freeze must be granted promptly — far below the 10s default hold.
	if err := probeFreeze(pn, 2*time.Second); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "abandon accounting", func() bool { return coord.Stats().Abandons == 1 })
	if st := coord.Stats(); st.Stays != 1 || st.Grants != 2 {
		t.Fatalf("stats = %+v, want 2 grants and 1 stay", st)
	}
}

// TestFreezeHoldDeadline pins the configurable hold: a peer that goes silent
// (without dying) while holding the freeze is evicted after FreezeHold and
// the lock handed to the next freeze.
func TestFreezeHoldDeadline(t *testing.T) {
	coord, pn := pipeCoordinator(t, 14, Config{FreezeHold: 100 * time.Millisecond})

	a, adec, aenc := rawConn(t, pn)
	defer a.Close() // stays open, just silent
	freezeGranted(t, adec, aenc, 0)

	if err := probeFreeze(pn, 2*time.Second); err != nil {
		t.Fatalf("freeze behind a silent holder: %v", err)
	}
	waitFor(t, "hold-expiry abandon", func() bool { return coord.Stats().Abandons == 1 })
}

// TestFreezeHoldCoversGrantedWrite: a peer that sends FREEZE and then never
// reads blocks the GRANTED write itself. The hold must bound that write too,
// or the lock is never released.
func TestFreezeHoldCoversGrantedWrite(t *testing.T) {
	const hold = 50 * time.Millisecond
	coord, pn := pipeCoordinator(t, 16, Config{FreezeHold: hold})

	a, _, aenc := rawConn(t, pn)
	defer a.Close() // open, never read
	if err := aenc.Encode(frame{Type: frameFreeze, Session: 0}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "A to take the freeze", func() bool { return coord.Stats().Grants == 1 })

	if err := probeFreeze(pn, 2*hold); err != nil {
		t.Fatal(err)
	}
	if st := coord.Stats(); st.Abandons != 1 {
		t.Fatalf("stats = %+v, want the unread grant abandoned", st)
	}
}

// TestCoordinatorSurvivesPeerDeathEveryPhase crashes a peer at every point
// of the protocol state machine, then proves the coordinator still serves a
// clean exchange and shuts down without wedged handlers.
func TestCoordinatorSurvivesPeerDeathEveryPhase(t *testing.T) {
	coord, pn := pipeCoordinator(t, 15, Config{})

	phases := []struct {
		name  string
		drive func(t *testing.T, dec *json.Decoder, enc *json.Encoder)
	}{
		{"pre-freeze", func(t *testing.T, dec *json.Decoder, enc *json.Encoder) {}},
		{"post-freeze", func(t *testing.T, dec *json.Decoder, enc *json.Encoder) {
			enc.Encode(frame{Type: frameFreeze, Session: 0})
		}},
		{"holding-freeze", func(t *testing.T, dec *json.Decoder, enc *json.Encoder) {
			freezeGranted(t, dec, enc, 0)
		}},
		{"post-commit", func(t *testing.T, dec *json.Decoder, enc *json.Encoder) {
			freezeGranted(t, dec, enc, 0)
			enc.Encode(frame{Type: frameCommit, Session: 0, Moved: false})
		}},
	}
	for _, ph := range phases {
		c, dec, enc := rawConn(t, pn)
		c.SetDeadline(time.Now().Add(5 * time.Second))
		ph.drive(t, dec, enc)
		c.Close()

		// The coordinator must hand the freeze to a fresh peer promptly
		// after every crash.
		if err := probeFreeze(pn, 2*time.Second); err != nil {
			t.Fatalf("%s: %v", ph.name, err)
		}
	}

	// Close must drain every handler: a wedged serve goroutine (held lock or
	// deadline-free read) would hang here.
	done := make(chan error, 1)
	go func() { done <- coord.Close() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("close: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("coordinator close wedged on a leaked handler")
	}
}

// TestCoordinatorCloseUnderDialStorm closes a coordinator while eight
// dialers hammer it, from two goroutines at once: neither Close may panic
// or hang, and no connection may outlive them.
func TestCoordinatorCloseUnderDialStorm(t *testing.T) {
	coord, pn := pipeCoordinator(t, 17, Config{})
	var dialers sync.WaitGroup
	var served int32
	for i := 0; i < 8; i++ {
		dialers.Add(1)
		go func(session int) {
			defer dialers.Done()
			for {
				c, err := pn.Dial(context.Background())
				if err != nil {
					return // listener closed
				}
				c.SetDeadline(time.Now().Add(time.Second))
				if json.NewEncoder(c).Encode(frame{Type: frameFreeze, Session: session}) == nil {
					atomic.AddInt32(&served, 1)
				}
				c.Close()
			}
		}(i)
	}
	waitFor(t, "dial storm", func() bool { return atomic.LoadInt32(&served) >= 16 })

	var closers sync.WaitGroup
	for i := 0; i < 2; i++ {
		closers.Add(1)
		go func() {
			defer closers.Done()
			if err := coord.Close(); err != nil {
				t.Errorf("close: %v", err)
			}
		}()
	}
	closed := make(chan struct{})
	go func() { closers.Wait(); dialers.Wait(); close(closed) }()
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("close wedged under a dial storm")
	}
	coord.connMu.Lock()
	defer coord.connMu.Unlock()
	if n := len(coord.conns); n != 0 {
		t.Fatalf("%d connections registered after Close returned", n)
	}
}

// gateListener holds each accepted connection until proceed is closed,
// widening the window between Accept and registration.
type gateListener struct {
	*pipeNet
	accepted, closed, proceed chan struct{}
}

func (g *gateListener) Accept() (net.Conn, error) {
	c, err := g.pipeNet.Accept()
	if err == nil {
		close(g.accepted)
		<-g.proceed
	}
	return c, err
}

func (g *gateListener) Close() error {
	close(g.closed)
	return g.pipeNet.Close()
}

// TestCloseCatchesConnectionAcceptedDuringClose accepts a connection just
// before Close shuts the listener and registers it just after. Close must
// still wait for it and close it: the idle peer must see EOF, not a
// handler parked in a read forever.
func TestCloseCatchesConnectionAcceptedDuringClose(t *testing.T) {
	ev, start := distStack(t, 20)
	ln := &gateListener{pipeNet: newPipeNet(), accepted: make(chan struct{}),
		closed: make(chan struct{}), proceed: make(chan struct{})}
	coord, err := NewCoordinator(ev, start, ln, Config{})
	if err != nil {
		t.Fatal(err)
	}
	peer, err := ln.Dial(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer peer.Close()
	<-ln.accepted
	done := make(chan error, 1)
	go func() { done <- coord.Close() }()
	<-ln.closed
	time.Sleep(10 * time.Millisecond) // let an unguarded Close sweep and return
	close(ln.proceed)
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("close wedged")
	}
	peer.SetReadDeadline(time.Now().Add(time.Second))
	if _, err := peer.Read(make([]byte, 1)); !errors.Is(err, io.EOF) {
		t.Fatalf("peer read after Close: %v, want EOF", err)
	}
}

// TestRunnerRejectsHostileGrant drives a runner against a hand-written
// coordinator whose GRANTED snapshot names an agent outside the fleet, for
// a user and for a transcoding flow. The runner must fail the exchange with
// a protocol error — not panic, and not retry it as a peer death.
func TestRunnerRejectsHostileGrant(t *testing.T) {
	ev, start := distStack(t, 18)
	sc := ev.Scenario()
	honest := func() frame {
		g := frame{Type: frameGranted, Users: make([]int, sc.NumUsers())}
		for u := range g.Users {
			g.Users[u] = int(start.UserAgent(model.UserID(u)))
		}
		for _, f := range start.Flows() {
			l, _ := start.FlowAgent(f)
			g.Flows = append(g.Flows, int(l))
		}
		return g
	}
	cases := map[string]func(g *frame){
		"user":      func(g *frame) { g.Users[0] = 9999 },
		"user-neg":  func(g *frame) { g.Users[len(g.Users)-1] = -1 },
		"flow":      func(g *frame) { g.Flows[0] = sc.NumAgents() },
		"flow-last": func(g *frame) { g.Flows[len(g.Flows)-1] = 9999 },
	}
	if len(start.Flows()) == 0 {
		t.Fatal("fixture has no transcoding flows")
	}
	for name, corrupt := range cases {
		t.Run(name, func(t *testing.T) {
			pn := newPipeNet()
			defer pn.Close()
			var accepts int32
			go func() {
				for {
					c, err := pn.Accept()
					if err != nil {
						return
					}
					atomic.AddInt32(&accepts, 1)
					var req frame
					if json.NewDecoder(c).Decode(&req) == nil {
						g := honest()
						corrupt(&g)
						json.NewEncoder(c).Encode(g)
					}
					c.Close()
				}
			}()
			cfg := core.DefaultConfig(18)
			cfg.MeanCountdownS = 0.001
			r, err := NewRunner(ev, 0, cfg)
			if err != nil {
				t.Fatal(err)
			}
			r.MaxAttempts = 3
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			hops, err := r.Run(ctx, pn.Dial, 1)
			if err == nil || errors.Is(err, ErrPeerDied) {
				t.Fatalf("hostile grant: err = %v, want a protocol error", err)
			}
			if n := atomic.LoadInt32(&accepts); hops != 0 || n != 1 {
				t.Fatalf("hops = %d after %d dials, want 0 after 1", hops, n)
			}
		})
	}
}

// infeasibleMove finds a user move of session 0 that breaks a capacity or
// delay constraint of start.
func infeasibleMove(t testing.TB, ev *cost.Evaluator, start *assign.Assignment) assign.Decision {
	t.Helper()
	a := start.Clone()
	sc := ev.Scenario()
	for _, u := range sc.Session(0).Users {
		from := a.UserAgent(u)
		for l := 0; l < sc.NumAgents(); l++ {
			a.SetUserAgent(u, model.AgentID(l))
			bad := ev.CheckFeasible(a) != nil
			a.SetUserAgent(u, from)
			if bad {
				return assign.Decision{Kind: assign.UserMove, User: u, To: model.AgentID(l)}
			}
		}
	}
	t.Fatal("no infeasible move of session 0 in the fixture")
	return assign.Decision{}
}

// TestRejectedCommitRestoresLedger commits an infeasible move by hand: the
// coordinator must reject it and leave its ledger exactly as the assignment
// implies.
func TestRejectedCommitRestoresLedger(t *testing.T) {
	coord, pn := pipeCoordinator(t, 19, Config{})
	d := infeasibleMove(t, coord.ev, coord.Assignment())
	c, dec, enc := rawConn(t, pn)
	defer c.Close()
	c.SetDeadline(time.Now().Add(2 * time.Second))
	freezeGranted(t, dec, enc, 0)
	if err := enc.Encode(frame{Type: frameCommit, Session: 0, Moved: true, Decision: toWire(d)}); err != nil {
		t.Fatal(err)
	}
	var ack frame
	if err := dec.Decode(&ack); err != nil || ack.Type != frameReject {
		t.Fatalf("infeasible commit: ack = %+v, err %v", ack, err)
	}
	if err := checkCoordinator(coord); err != nil {
		t.Fatal(err)
	}
}
