package dist

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"sync"
	"testing"
	"time"

	"vconf/internal/assign"
	"vconf/internal/core"
	"vconf/internal/cost"
	"vconf/internal/model"
)

// soakHold is the fault soak's FreezeHold, compressed to milliseconds like
// its countdowns and backoff.
const soakHold = 40 * time.Millisecond

// fault is one planned misbehaviour of a runner's connection, fired the nth
// time the runner's exchanges reach phase.
type fault struct {
	phase string // "freeze", "granted", "commit" or "ack"
	nth   int
	kind  string // "kill", "stall", "hang" or "corrupt"
}

var soakPhases = []string{"freeze", "granted", "commit", "ack"}

// faultPlan is one runner's share of a schedule. It outlives the runner's
// reconnections; only the runner's goroutine touches it.
type faultPlan struct {
	faults  []fault
	seen    map[string]int
	rng     *rand.Rand
	agents  int
	hung    chan<- struct{} // a peer reports here as it hangs
	release <-chan struct{} // closing it wakes a hung peer
}

// enter delays the frame about to cross the wire by up to a millisecond,
// then fires the fault planned for this occurrence of phase, if any. It
// returns the frame to write, which a corrupt fault rewrites.
func (p *faultPlan) enter(conn net.Conn, phase string, frameBytes []byte) ([]byte, error) {
	time.Sleep(time.Duration(p.rng.Int63n(int64(time.Millisecond))))
	p.seen[phase]++
	for _, f := range p.faults {
		if f.phase != phase || f.nth != p.seen[phase] {
			continue
		}
		switch f.kind {
		case "kill":
			conn.Close()
			return nil, net.ErrClosed
		case "stall": // past FreezeHold, then carry on
			time.Sleep(soakHold * 3 / 2)
		case "hang": // a wedged process: silent until the schedule ends
			p.hung <- struct{}{}
			<-p.release
		case "corrupt": // the COMMIT arrives naming another agent
			var fr frame
			if json.Unmarshal(frameBytes, &fr) == nil && fr.Decision != nil {
				fr.Decision.To = p.rng.Intn(p.agents)
				b, _ := json.Marshal(fr)
				frameBytes = append(b, '\n')
			}
		}
	}
	return frameBytes, nil
}

// faultConn is a runner's end of a connection with its plan's faults
// injected. The phase is read off the frame stream: writing FREEZE is the
// freeze phase, the first read after it the granted phase, writing COMMIT
// the commit phase and the first read after it the ack phase.
type faultConn struct {
	net.Conn
	plan    *faultPlan
	pending string // the read phase the last write opened, until entered
}

func (c *faultConn) Write(p []byte) (int, error) {
	phase, next := "freeze", "granted"
	if bytes.Contains(p, []byte(`"type":"commit"`)) {
		phase, next = "commit", "ack"
	}
	c.pending = next
	q, err := c.plan.enter(c.Conn, phase, p)
	if err != nil {
		return 0, err
	}
	if _, err := c.Conn.Write(q); err != nil {
		return 0, err
	}
	return len(p), nil
}

func (c *faultConn) Read(p []byte) (int, error) {
	if phase := c.pending; phase != "" {
		c.pending = ""
		if _, err := c.plan.enter(c.Conn, phase, nil); err != nil {
			return 0, err
		}
	}
	return c.Conn.Read(p)
}

// probeFreeze checks that the freeze lock is free: a fresh FREEZE must be
// GRANTED, and its no-move COMMIT acknowledged, within wait.
func probeFreeze(pn *pipeNet, wait time.Duration) error {
	ctx, cancel := context.WithTimeout(context.Background(), wait)
	defer cancel()
	conn, err := pn.Dial(ctx)
	if err != nil {
		return err
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(wait))
	dec, enc := json.NewDecoder(bufio.NewReader(conn)), json.NewEncoder(conn)
	var g, ack frame
	if err := enc.Encode(frame{Type: frameFreeze}); err != nil {
		return err
	}
	if err := dec.Decode(&g); err != nil || g.Type != frameGranted {
		return fmt.Errorf("freeze lock not free within %v: %+v, %v", wait, g, err)
	}
	if err := enc.Encode(frame{Type: frameCommit}); err != nil {
		return err
	}
	if err := dec.Decode(&ack); err != nil || ack.Type != frameCommitted {
		return fmt.Errorf("probe commit: %+v, %v", ack, err)
	}
	return nil
}

// checkCoordinator checks a quiescent coordinator: every granted freeze
// ended exactly once, the ledger matches the assignment's loads (tasks
// exactly, bandwidth within the orchestrator's 1e-6), and the authoritative
// assignment is feasible.
func checkCoordinator(c *Coordinator) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if st := c.Stats(); st.Grants != st.Commits+st.Stays+st.Rejects+st.Abandons {
		return fmt.Errorf("grants do not end exactly once: %+v", st)
	}
	gotDown, gotUp, gotTasks := c.ledger.Usage()
	wantDown, wantUp, wantTasks := c.ev.Params().LedgerOf(c.a).Usage()
	const eps = 1e-6
	for l := range gotTasks {
		if gotTasks[l] != wantTasks[l] || math.Abs(gotDown[l]-wantDown[l]) > eps || math.Abs(gotUp[l]-wantUp[l]) > eps {
			return fmt.Errorf("agent %d: ledger (%.9f, %.9f, %d), assignment implies (%.9f, %.9f, %d)",
				l, gotDown[l], gotUp[l], gotTasks[l], wantDown[l], wantUp[l], wantTasks[l])
		}
	}
	return c.ev.CheckFeasible(c.a)
}

// soakSchedule runs 2–4 runners of 3 hops each against a fresh coordinator,
// each runner's connection carrying up to two seeded faults (kill, stall or
// corrupt, in a random phase); in one schedule in two, one runner also
// hangs for good. Once every runner has returned or hung, the freeze lock
// must be free within 2 × FreezeHold; then the hung peer is released and,
// with the coordinator closed, its state is checked.
func soakSchedule(ev *cost.Evaluator, start *assign.Assignment, seed int64) (Stats, error) {
	rng := rand.New(rand.NewSource(seed))
	sc := ev.Scenario()
	pn := newPipeNet()
	coord, err := NewCoordinator(ev, start, pn, Config{FreezeHold: soakHold})
	if err != nil {
		return Stats{}, err
	}
	defer coord.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	const hops = 3
	sessions := rng.Perm(sc.NumSessions())[:2+rng.Intn(3)]
	hangs := rng.Intn(2)
	results := make(chan error, len(sessions))
	hung := make(chan struct{}, hangs)
	release := make(chan struct{})
	for i, s := range sessions {
		plan := &faultPlan{seen: map[string]int{}, rng: rand.New(rand.NewSource(rng.Int63())),
			agents: sc.NumAgents(), hung: hung, release: release}
		for k := rng.Intn(3); k > 0; k-- {
			f := fault{phase: soakPhases[rng.Intn(4)], nth: 1 + rng.Intn(hops), kind: []string{"kill", "stall", "corrupt"}[rng.Intn(3)]}
			if f.kind == "corrupt" {
				f.phase = "commit"
			}
			plan.faults = append(plan.faults, f)
		}
		if i < hangs {
			plan.faults = append(plan.faults, fault{phase: soakPhases[rng.Intn(4)], nth: 1 + rng.Intn(hops), kind: "hang"})
		}
		cfg := core.DefaultConfig(seed)
		cfg.MeanCountdownS = 1
		r, err := NewRunner(ev, model.SessionID(s), cfg)
		if err != nil {
			return Stats{}, err
		}
		r.TimeScale = 200 * time.Microsecond
		r.MaxAttempts = 8
		r.BackoffBase = 200 * time.Microsecond
		r.BackoffMax = 2 * time.Millisecond
		dial := func(ctx context.Context) (net.Conn, error) {
			c, err := pn.Dial(ctx)
			if err != nil {
				return nil, err
			}
			return &faultConn{Conn: c, plan: plan}, nil
		}
		go func() {
			_, err := r.Run(ctx, dial, hops)
			results <- err
		}()
	}

	var runErr error
	collect := func(err error) {
		if err != nil && !errors.Is(err, ErrPeerDied) && runErr == nil {
			runErr = fmt.Errorf("runner: %w", err)
		}
	}
	done, stuck := 0, 0
	for done+stuck < len(sessions) {
		select {
		case err := <-results:
			collect(err)
			done++
		case <-hung:
			stuck++
		}
	}
	probeErr := probeFreeze(pn, 2*soakHold)
	close(release)
	for ; done < len(sessions); done++ {
		collect(<-results)
	}
	coord.Close()
	if err := errors.Join(runErr, probeErr, checkCoordinator(coord)); err != nil {
		return coord.Stats(), err
	}
	return coord.Stats(), nil
}

// TestFreezeSoak drives 200 seeded fault schedules through the real
// Coordinator and Runner over the pipe network, eight at a time, checking
// the protocol's invariants after each one.
func TestFreezeSoak(t *testing.T) {
	ev, start := distStack(t, 40)
	const schedules = 200
	seeds := make(chan int64)
	var mu sync.Mutex
	var total Stats
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for seed := range seeds {
				st, err := soakSchedule(ev, start, seed)
				if err != nil {
					t.Errorf("schedule %d: %v", seed, err)
				}
				mu.Lock()
				total.Grants += st.Grants
				total.Commits += st.Commits
				total.Stays += st.Stays
				total.Rejects += st.Rejects
				total.Abandons += st.Abandons
				mu.Unlock()
			}
		}()
	}
	for seed := int64(1); seed <= schedules; seed++ {
		seeds <- seed
	}
	close(seeds)
	wg.Wait()
	t.Logf("%d schedules: %+v", schedules, total)
	if total.Commits == 0 || total.Rejects == 0 || total.Abandons == 0 {
		t.Fatalf("the soak never committed, rejected or abandoned: %+v", total)
	}
}

// FuzzDistFrames feeds arbitrary bytes as a runner's request stream into a
// coordinator over a pipe. Nothing may panic, the ledger must still
// reconcile, and a clean FREEZE→COMMIT exchange must still succeed.
func FuzzDistFrames(f *testing.F) {
	ev, start := distStack(f, 31)
	line := func(fr frame) string {
		b, _ := json.Marshal(fr)
		return string(b) + "\n"
	}
	freeze := line(frame{Type: frameFreeze})
	move := func(d assign.Decision) string {
		return line(frame{Type: frameCommit, Moved: true, Decision: toWire(d)})
	}
	f.Add([]byte(freeze + line(frame{Type: frameCommit})))
	f.Add([]byte(freeze + move(infeasibleMove(f, ev, start))))
	f.Add([]byte(freeze + move(assign.Decision{Kind: assign.UserMove, To: 9999})))
	f.Add([]byte(freeze + move(assign.Decision{Kind: assign.FlowMove, Flow: model.Flow{Src: -1}})))
	// A flow of session 0 whose destination sits in session 1.
	sc := ev.Scenario()
	for _, fl := range start.Flows() {
		if sc.User(fl.Src).Session == 0 {
			f.Add([]byte(freeze + move(assign.Decision{Kind: assign.FlowMove,
				Flow: model.Flow{Src: fl.Src, Dst: sc.Session(1).Users[0]}})))
			break
		}
	}
	f.Add([]byte(freeze + line(frame{Type: frameCommit, Session: 1, Moved: true, Decision: &wireDecision{Kind: 1}})))
	f.Add([]byte(freeze + freeze))
	f.Add([]byte(line(frame{Type: frameCommit}) + freeze))
	f.Add([]byte(line(frame{Type: frameFreeze, Session: -3})))
	f.Add([]byte("not json\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		pn := newPipeNet()
		coord, err := NewCoordinator(ev, start, pn, Config{FreezeHold: 20 * time.Millisecond})
		if err != nil {
			t.Fatal(err)
		}
		defer coord.Close()
		conn, err := pn.Dial(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		go io.Copy(io.Discard, conn)
		conn.Write(data)
		conn.Close()
		if err := probeFreeze(pn, 2*time.Second); err != nil {
			t.Fatal(err)
		}
		coord.Close()
		if err := checkCoordinator(coord); err != nil {
			t.Fatal(err)
		}
	})
}
