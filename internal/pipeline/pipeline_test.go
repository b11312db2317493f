package pipeline

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"
	"time"
)

// recorder collects stage entries under a lock so tests can assert on
// ordering across goroutines.
type recorder struct {
	mu  sync.Mutex
	log []string
}

func (r *recorder) add(s string) {
	r.mu.Lock()
	r.log = append(r.log, s)
	r.mu.Unlock()
}

func (r *recorder) snapshot() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]string(nil), r.log...)
}

// submitN submits n trivially disjoint events (trigger i, footprint {i})
// that log their stages.
func submitN(t *testing.T, s *Scheduler, rec *recorder, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		i := i
		_, err := s.Submit(Exec{
			Trigger: int32(i),
			Admit: func() (Footprint, error) {
				rec.add(fmt.Sprintf("admit-%d", i))
				return Footprint{Sessions: []int32{int32(i)}}, nil
			},
			Reopt:  func() error { rec.add(fmt.Sprintf("reopt-%d", i)); return nil },
			Retire: func() { rec.add(fmt.Sprintf("retire-%d", i)) },
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}

func TestFootprintContainsSession(t *testing.T) {
	a := Footprint{Sessions: []int32{7, 3, 1}}
	a.Normalize()
	if a.Sessions[0] != 1 || a.Sessions[1] != 3 || a.Sessions[2] != 7 {
		t.Fatalf("normalize did not sort: %+v", a)
	}
	for s, want := range map[int32]bool{0: false, 1: true, 2: false, 3: true, 7: true, 8: false} {
		if got := a.ContainsSession(s); got != want {
			t.Fatalf("ContainsSession(%d) = %v, want %v", s, got, want)
		}
	}
	if (Footprint{}).ContainsSession(0) {
		t.Fatal("empty footprint contains a session")
	}
}

// TestSerialAtCapOne pins the degenerate mode: with MaxInFlight=1 every
// event runs admit → reopt → retire to completion, in submission order,
// with no interleaving.
func TestSerialAtCapOne(t *testing.T) {
	s, err := New(Config{MaxInFlight: 1})
	if err != nil {
		t.Fatal(err)
	}
	rec := &recorder{}
	const n = 8
	submitN(t, s, rec, n)
	if err := s.Drain(); err != nil {
		t.Fatal(err)
	}
	s.Close()
	log := rec.snapshot()
	var want []string
	for i := 0; i < n; i++ {
		want = append(want, fmt.Sprintf("admit-%d", i), fmt.Sprintf("reopt-%d", i), fmt.Sprintf("retire-%d", i))
	}
	if len(log) != len(want) {
		t.Fatalf("log %v, want %v", log, want)
	}
	for i := range want {
		if log[i] != want[i] {
			t.Fatalf("position %d: got %q, want %q (full log %v)", i, log[i], want[i], log)
		}
	}
}

// TestRetireOrder pins that retires follow submission order even when
// later events are admitted (and, at their turn, re-optimized) while the
// stream head is still in flight.
func TestRetireOrder(t *testing.T) {
	s, err := New(Config{MaxInFlight: 4})
	if err != nil {
		t.Fatal(err)
	}
	rec := &recorder{}
	release := make(chan struct{})
	// Event 0 blocks until released; events 1..3 are admitted behind it.
	_, err = s.Submit(Exec{
		Trigger: 0,
		Admit:   func() (Footprint, error) { return Footprint{Sessions: []int32{0}}, nil },
		Reopt:   func() error { <-release; return nil },
		Retire:  func() { rec.add("retire-0") },
	})
	if err != nil {
		t.Fatal(err)
	}
	admitted := make(chan struct{}, 3)
	for i := 1; i < 4; i++ {
		i := i
		if _, err := s.Submit(Exec{
			Trigger: int32(i),
			OnAdmit: func(bool) { admitted <- struct{}{} },
			Admit:   func() (Footprint, error) { return Footprint{Sessions: []int32{int32(i)}}, nil },
			Reopt:   func() error { return nil },
			Retire:  func() { rec.add(fmt.Sprintf("retire-%d", i)) },
		}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 3; i++ {
		<-admitted // all later events admitted while event 0 re-optimizes
	}
	if got := rec.snapshot(); len(got) != 0 {
		t.Fatalf("events retired before the stream head: %v", got)
	}
	close(release)
	if err := s.Drain(); err != nil {
		t.Fatal(err)
	}
	s.Close()
	got := rec.snapshot()
	want := []string{"retire-0", "retire-1", "retire-2", "retire-3"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("retire order %v, want %v", got, want)
		}
	}
}

// logged returns an Exec whose stages append name to their recorders;
// reopt, when non-nil, runs inside Reopt and supplies its error.
func logged(name string, trigger int32, fp []int32, admits, reopts, retires *recorder, reopt func() error) Exec {
	return Exec{
		Trigger: trigger,
		Admit:   func() (Footprint, error) { admits.add(name); return Footprint{Sessions: fp}, nil },
		Reopt: func() error {
			reopts.add(name)
			if reopt != nil {
				return reopt()
			}
			return nil
		},
		Retire: func() { retires.add(name) },
	}
}

// TestReoptRunsInAdmissionOrder pins the one order: an event whose trigger
// an in-flight footprint claims holds the queue, so a later event with a
// disjoint footprint waits behind it instead of being admitted first, and
// admission, re-optimization and retirement all follow submission order.
func TestReoptRunsInAdmissionOrder(t *testing.T) {
	s, err := New(Config{MaxInFlight: 4})
	if err != nil {
		t.Fatal(err)
	}
	admits, reopts, retires := &recorder{}, &recorder{}, &recorder{}
	aStarted := make(chan struct{})
	release := make(chan struct{})
	// A owns sessions {1, 5} and blocks in Reopt until released.
	if _, err := s.Submit(logged("A", 1, []int32{1, 5}, admits, reopts, retires, func() error {
		close(aStarted)
		<-release
		return nil
	})); err != nil {
		t.Fatal(err)
	}
	<-aStarted
	// B's trigger 5 is claimed by A: B waits for A to retire. C is disjoint
	// from A but queued behind B, so it waits too.
	if _, err := s.Submit(logged("B", 5, []int32{5}, admits, reopts, retires, nil)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Submit(logged("C", 3, []int32{3}, admits, reopts, retires, nil)); err != nil {
		t.Fatal(err)
	}
	// Give the scheduler a chance to (incorrectly) admit C ahead of B.
	time.Sleep(20 * time.Millisecond)
	if got := fmt.Sprint(admits.snapshot()); got != "[A]" {
		t.Fatalf("admitted while A re-optimizes: %s, want [A]", got)
	}
	close(release)
	if err := s.Drain(); err != nil {
		t.Fatal(err)
	}
	s.Close()
	for _, c := range []struct {
		what string
		got  []string
	}{
		{"admission", admits.snapshot()},
		{"re-optimization", reopts.snapshot()},
		{"retire", retires.snapshot()},
	} {
		if got := fmt.Sprint(c.got); got != "[A B C]" {
			t.Fatalf("%s order %s, want [A B C]", c.what, got)
		}
	}
	if st := s.Stats(); st.AdmissionStalls != 1 {
		t.Fatalf("AdmissionStalls = %d, want 1 (B, on A's claim)", st.AdmissionStalls)
	}
}

// TestTriggerGuard pins that an event cannot admit while an in-flight
// event's footprint claims its trigger session.
func TestTriggerGuard(t *testing.T) {
	s, err := New(Config{MaxInFlight: 4})
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	claimDone := false
	started := make(chan struct{})
	release := make(chan struct{})
	// Event A claims sessions {1, 5} (5 as a touched session).
	if _, err := s.Submit(Exec{
		Trigger: 1,
		Admit:   func() (Footprint, error) { return Footprint{Sessions: []int32{1, 5}}, nil },
		Reopt: func() error {
			close(started)
			<-release
			mu.Lock()
			claimDone = true
			mu.Unlock()
			return nil
		},
		Retire: func() {},
	}); err != nil {
		t.Fatal(err)
	}
	<-started
	// Event B triggers session 5 → its admission must wait for A.
	if _, err := s.Submit(Exec{
		Trigger: 5,
		Admit: func() (Footprint, error) {
			mu.Lock()
			defer mu.Unlock()
			if !claimDone {
				t.Error("admission mutated a session still claimed by an in-flight event")
			}
			return Footprint{Sessions: []int32{5}}, nil
		},
		Reopt:  func() error { return nil },
		Retire: func() {},
	}); err != nil {
		t.Fatal(err)
	}
	// Give the scheduler a chance to (incorrectly) admit B early.
	time.Sleep(20 * time.Millisecond)
	close(release)
	if err := s.Drain(); err != nil {
		t.Fatal(err)
	}
	s.Close()
	if st := s.Stats(); st.AdmissionStalls == 0 {
		t.Fatal("trigger-guarded admission did not count as a stall")
	}
}

// TestErrorAbortsStream pins error semantics: an admission error stops
// further admissions, pending events are discarded with their retire
// channels closed, and Drain surfaces the error.
func TestErrorAbortsStream(t *testing.T) {
	s, err := New(Config{MaxInFlight: 1})
	if err != nil {
		t.Fatal(err)
	}
	rec := &recorder{}
	boom := fmt.Errorf("boom")
	if _, err := s.Submit(Exec{
		Trigger: 0,
		Admit:   func() (Footprint, error) { return Footprint{}, boom },
		Reopt:   func() error { rec.add("reopt-0"); return nil },
		Retire:  func() { rec.add("retire-0") },
	}); err != nil {
		t.Fatal(err)
	}
	ch, err := s.Submit(Exec{
		Trigger: 1,
		Admit:   func() (Footprint, error) { rec.add("admit-1"); return Footprint{}, nil },
		Reopt:   func() error { return nil },
		Retire:  func() { rec.add("retire-1") },
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := s.Drain(); got != boom {
		t.Fatalf("Drain = %v, want %v", got, boom)
	}
	select {
	case <-ch:
	case <-time.After(5 * time.Second):
		t.Fatal("discarded event's retire channel never closed")
	}
	if log := rec.snapshot(); len(log) != 0 {
		t.Fatalf("aborted stream still ran stages: %v", log)
	}
	// Drain cleared the error: the scheduler recovers and runs new events.
	if _, err := s.Submit(Exec{
		Trigger: 2,
		Admit:   func() (Footprint, error) { rec.add("admit-2"); return Footprint{}, nil },
		Reopt:   func() error { return nil },
		Retire:  func() { rec.add("retire-2") },
	}); err != nil {
		t.Fatal(err)
	}
	if err := s.Drain(); err != nil {
		t.Fatalf("recovered stream returned stale error: %v", err)
	}
	if log := rec.snapshot(); len(log) != 2 || log[0] != "admit-2" || log[1] != "retire-2" {
		t.Fatalf("post-recovery event did not run: %v", log)
	}
	s.Close()
	if _, err := s.Submit(Exec{}); err == nil {
		t.Fatal("submit after close succeeded")
	}
}

// TestAbortRetiresStrictPrefix pins the abort contract: when event k's
// Reopt fails, the events before it retire, k and the events admitted
// after it do not (nor do they re-optimize), and every pending event is
// discarded unadmitted — so the retired stream is a strict prefix of the
// submission order, like the serial path.
func TestAbortRetiresStrictPrefix(t *testing.T) {
	s, err := New(Config{MaxInFlight: 4})
	if err != nil {
		t.Fatal(err)
	}
	admits, reopts, retires := &recorder{}, &recorder{}, &recorder{}
	release := make(chan struct{})
	boom := fmt.Errorf("boom")
	var admitted sync.WaitGroup
	admitted.Add(3)
	execs := []Exec{
		// 0 blocks in Reopt until released, then retires.
		logged("0", 0, []int32{0}, admits, reopts, retires, func() error { <-release; return nil }),
		// 1 is k: admitted behind 0, its Reopt fails. It claims session 2.
		logged("1", 1, []int32{1, 2}, admits, reopts, retires, func() error { return boom }),
		// 2 is admitted behind 1 before the failure.
		logged("2", 3, []int32{3}, admits, reopts, retires, nil),
		// 3's trigger is claimed by 1: it holds the queue, and 4 waits
		// behind it although 4 is disjoint from every in-flight event.
		logged("3", 2, []int32{2}, admits, reopts, retires, nil),
		logged("4", 4, []int32{4}, admits, reopts, retires, nil),
	}
	var chans []<-chan struct{}
	for i, exec := range execs {
		if i < 3 {
			exec.OnAdmit = func(bool) { admitted.Done() }
		}
		ch, err := s.Submit(exec)
		if err != nil {
			t.Fatal(err)
		}
		chans = append(chans, ch)
	}
	admitted.Wait()
	// Give the scheduler a chance to (incorrectly) admit 4 ahead of 3.
	time.Sleep(20 * time.Millisecond)
	close(release)
	if got := s.Drain(); got != boom {
		t.Fatalf("Drain = %v, want %v", got, boom)
	}
	s.Close()
	for i, ch := range chans {
		select {
		case <-ch:
		default:
			t.Fatalf("event %d's retire channel is still open after Drain", i)
		}
	}
	for _, c := range []struct {
		what, want string
		got        []string
	}{
		{"admitted", "[0 1 2]", admits.snapshot()},
		{"re-optimized", "[0 1]", reopts.snapshot()},
		{"retired", "[0]", retires.snapshot()},
	} {
		if got := fmt.Sprint(c.got); got != c.want {
			t.Fatalf("aborted stream %s %s, want %s", c.what, got, c.want)
		}
	}
	if st := s.Stats(); st.Retired != 1 {
		t.Fatalf("Stats.Retired = %d, want 1", st.Retired)
	}
}

// TestFaultWaitsForEmptyScheduler pins the trigger-less event: at cap 4 an
// event with trigger -1 submitted behind a blocked in-flight event is not
// admitted until that event retires, and no later event is admitted ahead
// of it.
func TestFaultWaitsForEmptyScheduler(t *testing.T) {
	s, err := New(Config{MaxInFlight: 4})
	if err != nil {
		t.Fatal(err)
	}
	admits, reopts, retires := &recorder{}, &recorder{}, &recorder{}
	started, release := make(chan struct{}), make(chan struct{})
	if _, err := s.Submit(logged("A", 0, []int32{0}, admits, reopts, retires, func() error {
		close(started)
		<-release
		return nil
	})); err != nil {
		t.Fatal(err)
	}
	<-started
	fault := logged("F", -1, []int32{7}, admits, reopts, retires, nil)
	admitF := fault.Admit
	fault.Admit = func() (Footprint, error) {
		if got := fmt.Sprint(retires.snapshot()); got != "[A]" {
			t.Errorf("fault admitted with retired %s, want [A]: an earlier event was still in flight", got)
		}
		return admitF()
	}
	if _, err := s.Submit(fault); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Submit(logged("B", 3, []int32{3}, admits, reopts, retires, nil)); err != nil {
		t.Fatal(err)
	}
	// Give the scheduler a chance to (incorrectly) admit F or B early.
	time.Sleep(20 * time.Millisecond)
	if got := fmt.Sprint(admits.snapshot()); got != "[A]" {
		t.Fatalf("admitted while A is in flight: %s, want [A]", got)
	}
	close(release)
	if err := s.Drain(); err != nil {
		t.Fatal(err)
	}
	s.Close()
	if got := fmt.Sprint(admits.snapshot()); got != "[A F B]" {
		t.Fatalf("admission order %s, want [A F B]", got)
	}
	if got := fmt.Sprint(retires.snapshot()); got != "[A F B]" {
		t.Fatalf("retire order %s, want [A F B]", got)
	}
}

// TestStatsPeaks sanity-checks the queue-depth and in-flight high-water
// marks on a burst of disjoint events.
func TestStatsPeaks(t *testing.T) {
	s, err := New(Config{MaxInFlight: 3})
	if err != nil {
		t.Fatal(err)
	}
	release := make(chan struct{})
	var admitted sync.WaitGroup
	admitted.Add(3)
	for i := 0; i < 8; i++ {
		i := i
		exec := Exec{
			Trigger: int32(i),
			Admit:   func() (Footprint, error) { return Footprint{Sessions: []int32{int32(i)}}, nil },
			Reopt:   func() error { return nil },
			Retire:  func() {},
		}
		if i < 3 {
			exec.OnAdmit = func(bool) { admitted.Done() }
		}
		if i == 0 {
			exec.Reopt = func() error { <-release; return nil }
		}
		if _, err := s.Submit(exec); err != nil {
			t.Fatal(err)
		}
	}
	admitted.Wait() // cap reached: event 0 re-optimizing, 1 and 2 admitted behind it, rest queued
	close(release)
	if err := s.Drain(); err != nil {
		t.Fatal(err)
	}
	s.Close()
	st := s.Stats()
	if st.Submitted != 8 || st.Retired != 8 {
		t.Fatalf("submitted/retired %d/%d, want 8/8", st.Submitted, st.Retired)
	}
	if st.InFlightPeak != 3 {
		t.Fatalf("InFlightPeak = %d, want 3", st.InFlightPeak)
	}
	if st.QueueDepthPeak < 3 {
		t.Fatalf("QueueDepthPeak = %d, want ≥ 3", st.QueueDepthPeak)
	}
	if st.AdmissionStalls == 0 {
		t.Fatal("cap-blocked admissions did not count as stalls")
	}
}

// TestOnAdmitMirrorsAdmissionStalls pins the OnAdmit hook contract: it
// fires exactly once per admitted event, immediately before Admit, and its
// stalled flag is exactly the condition that bumps Stats.AdmissionStalls —
// so a consumer summing the flags reconciles with the scheduler's counter.
func TestOnAdmitMirrorsAdmissionStalls(t *testing.T) {
	s, err := New(Config{MaxInFlight: 1})
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var flags []bool
	onAdmit := func(stalled bool) {
		mu.Lock()
		flags = append(flags, stalled)
		mu.Unlock()
	}
	release := make(chan struct{})
	started := make(chan struct{})
	if _, err := s.Submit(Exec{
		Trigger: 0,
		OnAdmit: onAdmit,
		Admit:   func() (Footprint, error) { return Footprint{Sessions: []int32{0}}, nil },
		Reopt:   func() error { close(started); <-release; return nil },
		Retire:  func() {},
	}); err != nil {
		t.Fatal(err)
	}
	<-started // event 0 holds the in-flight slot
	// Event 1 must now stall on the in-flight cap before admission.
	if _, err := s.Submit(Exec{
		Trigger: 1,
		OnAdmit: onAdmit,
		Admit:   func() (Footprint, error) { return Footprint{Sessions: []int32{1}}, nil },
		Reopt:   func() error { return nil },
		Retire:  func() {},
	}); err != nil {
		t.Fatal(err)
	}
	// Give the admitting goroutine its wake-up from Submit: it must find
	// event 1 blocked at the head (marking it stalled at the full in-flight
	// cap) before event 0 is released. The sleep only makes the stall
	// deterministic; the flags-vs-stats reconciliation below holds
	// regardless of timing.
	time.Sleep(100 * time.Millisecond)
	close(release)
	if err := s.Drain(); err != nil {
		t.Fatal(err)
	}
	s.Close()

	mu.Lock()
	defer mu.Unlock()
	if len(flags) != 2 {
		t.Fatalf("OnAdmit fired %d times, want 2 (once per event)", len(flags))
	}
	stalls := 0
	for _, f := range flags {
		if f {
			stalls++
		}
	}
	st := s.Stats()
	if stalls != st.AdmissionStalls {
		t.Fatalf("OnAdmit stalled flags sum %d, Stats.AdmissionStalls %d", stalls, st.AdmissionStalls)
	}
	if flags[0] {
		t.Fatal("first event reported stalled: it admitted into an empty scheduler")
	}
	if !flags[1] {
		t.Fatal("second event reported unstalled: it waited on the in-flight cap")
	}
}

// TestSchedulerStorm races the scheduler on a random stream: 1 500 events
// whose triggers and footprints are drawn over 48 sessions (one in 50 with
// no trigger, like a fault), some re-optimizations slow, at in-flight caps
// 1, 2 and 4. At every moment at most one Reopt runs; no admission touches
// a session an unretired event owns, and a trigger-less event is admitted
// only when nothing is in flight; admission, re-optimization and
// retirement all follow submission order; and admission runs the full cap
// ahead of retirement (InFlightPeak equals the cap). Run under -race in CI.
func TestSchedulerStorm(t *testing.T) {
	const n, sessions = 1500, 48
	for _, limit := range []int{1, 2, 4} {
		s, err := New(Config{MaxInFlight: limit})
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(int64(limit)))
		var (
			mu          sync.Mutex
			owned       [sessions]int
			inFlight    int
			running     int
			admitOrder  []int
			reoptOrder  []int
			retireOrder []int
		)
		for seq := 0; seq < n; seq++ {
			seq := seq
			trigger := int32(rng.Intn(sessions))
			fp := []int32{trigger}
			if rng.Intn(50) == 0 {
				trigger, fp = -1, nil
			}
			for k := rng.Intn(4); k > 0; k-- {
				if x := int32(rng.Intn(sessions)); !slices.Contains(fp, x) {
					fp = append(fp, x)
				}
			}
			slow := rng.Intn(8) == 0
			if _, err := s.Submit(Exec{
				Trigger: trigger,
				Admit: func() (Footprint, error) {
					mu.Lock()
					defer mu.Unlock()
					if trigger < 0 && inFlight > 0 {
						t.Errorf("limit %d: trigger-less event %d admitted beside %d in-flight events", limit, seq, inFlight)
					}
					if trigger >= 0 && owned[trigger] > 0 {
						t.Errorf("limit %d: event %d admitted while its trigger %d is owned", limit, seq, trigger)
					}
					inFlight++
					for _, x := range fp {
						owned[x]++
					}
					admitOrder = append(admitOrder, seq)
					return Footprint{Sessions: fp}, nil
				},
				Reopt: func() error {
					mu.Lock()
					if running++; running > 1 {
						t.Errorf("limit %d: %d re-optimizations run at once", limit, running)
					}
					reoptOrder = append(reoptOrder, seq)
					mu.Unlock()
					if slow {
						time.Sleep(50 * time.Microsecond)
					}
					mu.Lock()
					running--
					mu.Unlock()
					return nil
				},
				Retire: func() {
					mu.Lock()
					inFlight--
					for _, x := range fp {
						owned[x]--
					}
					retireOrder = append(retireOrder, seq)
					mu.Unlock()
				},
			}); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.Drain(); err != nil {
			t.Fatal(err)
		}
		s.Close()
		mu.Lock()
		for _, c := range []struct {
			what  string
			order []int
		}{{"admission", admitOrder}, {"re-optimization", reoptOrder}, {"retirement", retireOrder}} {
			if len(c.order) != n || !slices.IsSorted(c.order) {
				t.Fatalf("limit %d: %d events in %s, not in submission order", limit, len(c.order), c.what)
			}
		}
		mu.Unlock()
		st := s.Stats()
		if st.Retired != n || st.InFlightPeak != limit {
			t.Fatalf("limit %d: retired %d of %d, InFlightPeak %d", limit, st.Retired, n, st.InFlightPeak)
		}
		if (st.ReoptWaits == 0) != (limit == 1) {
			t.Fatalf("limit %d: ReoptWaits %d", limit, st.ReoptWaits)
		}
		t.Logf("limit %d: stalls %d, reopt waits %d, queue peak %d, in-flight peak %d",
			limit, st.AdmissionStalls, st.ReoptWaits, st.QueueDepthPeak, st.InFlightPeak)
	}
}
