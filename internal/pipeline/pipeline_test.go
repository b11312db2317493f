package pipeline

import (
	"fmt"
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

// submitN submits n trivially disjoint events (trigger i, footprint
// {sessions: {i}, shards: {i}}) that log their stages.
func submitN(t *testing.T, s *Scheduler, rec *recorder, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		i := i
		_, err := s.Submit(Exec{
			Trigger: int32(i),
			Admit: func() (Footprint, error) {
				rec.add(fmt.Sprintf("admit-%d", i))
				return Footprint{Sessions: []int32{int32(i)}, Shards: []int32{int32(i)}}, nil
			},
			Reopt:  func() error { rec.add(fmt.Sprintf("reopt-%d", i)); return nil },
			Retire: func() { rec.add(fmt.Sprintf("retire-%d", i)) },
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}

func TestFootprintConflicts(t *testing.T) {
	a := Footprint{Sessions: []int32{3, 1}, Shards: []int32{7, 2}}
	a.Normalize()
	if a.Sessions[0] != 1 || a.Shards[0] != 2 {
		t.Fatalf("normalize did not sort: %+v", a)
	}
	cases := []struct {
		b    Footprint
		want bool
	}{
		{Footprint{Sessions: []int32{2}, Shards: []int32{4}}, false},
		{Footprint{Sessions: []int32{3}, Shards: []int32{}}, true},
		{Footprint{Sessions: []int32{}, Shards: []int32{7}}, true},
		{Footprint{}, false},
	}
	for i, tc := range cases {
		tc.b.Normalize()
		if got := a.Conflicts(tc.b); got != tc.want {
			t.Fatalf("case %d: conflicts=%v, want %v", i, got, tc.want)
		}
	}
	if !a.ContainsSession(3) || a.ContainsSession(4) {
		t.Fatal("ContainsSession wrong")
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
// execution completes out of order.
func TestRetireOrder(t *testing.T) {
	s, err := New(Config{MaxInFlight: 4})
	if err != nil {
		t.Fatal(err)
	}
	rec := &recorder{}
	release := make(chan struct{})
	// Event 0 blocks until released; events 1..3 are free to finish first.
	_, err = s.Submit(Exec{
		Trigger: 0,
		Admit:   func() (Footprint, error) { return Footprint{Sessions: []int32{0}}, nil },
		Reopt:   func() error { <-release; return nil },
		Retire:  func() { rec.add("retire-0") },
	})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{}, 3)
	for i := 1; i < 4; i++ {
		i := i
		if _, err := s.Submit(Exec{
			Trigger: int32(i),
			Admit:   func() (Footprint, error) { return Footprint{Sessions: []int32{int32(i)}}, nil },
			Reopt:   func() error { done <- struct{}{}; return nil },
			Retire:  func() { rec.add(fmt.Sprintf("retire-%d", i)) },
		}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 3; i++ {
		<-done // all later events finished their reopt
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

// TestConflictQueuesBehindSpecificEvent pins the DAG edge: an event whose
// footprint overlaps an in-flight event waits for it, while a disjoint
// event proceeds concurrently.
func TestConflictQueuesBehindSpecificEvent(t *testing.T) {
	s, err := New(Config{MaxInFlight: 4})
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	aRunning, aDone := false, false
	aStarted := make(chan struct{})
	release := make(chan struct{})
	disjointRan := make(chan struct{})

	// Event A: owns session 1 / shard 0, blocks until released.
	if _, err := s.Submit(Exec{
		Trigger: 1,
		Admit:   func() (Footprint, error) { return Footprint{Sessions: []int32{1}, Shards: []int32{0}}, nil },
		Reopt: func() error {
			mu.Lock()
			aRunning = true
			mu.Unlock()
			close(aStarted)
			<-release
			mu.Lock()
			aRunning = false
			aDone = true
			mu.Unlock()
			return nil
		},
		Retire: func() {},
	}); err != nil {
		t.Fatal(err)
	}
	<-aStarted

	// Event B: shares shard 0 with A → must wait for A.
	if _, err := s.Submit(Exec{
		Trigger: 2,
		Admit:   func() (Footprint, error) { return Footprint{Sessions: []int32{2}, Shards: []int32{0}}, nil },
		Reopt: func() error {
			mu.Lock()
			defer mu.Unlock()
			if aRunning || !aDone {
				t.Error("conflicting event ran while its predecessor was in flight")
			}
			return nil
		},
		Retire: func() {},
	}); err != nil {
		t.Fatal(err)
	}

	// Event C: disjoint → runs while A is still blocked.
	if _, err := s.Submit(Exec{
		Trigger: 3,
		Admit:   func() (Footprint, error) { return Footprint{Sessions: []int32{3}, Shards: []int32{9}}, nil },
		Reopt: func() error {
			mu.Lock()
			running := aRunning
			mu.Unlock()
			if !running {
				t.Error("disjoint event did not overlap the in-flight event")
			}
			close(disjointRan)
			return nil
		},
		Retire: func() {},
	}); err != nil {
		t.Fatal(err)
	}

	select {
	case <-disjointRan:
	case <-time.After(5 * time.Second):
		t.Fatal("disjoint event never ran while predecessor was in flight")
	}
	// Hold A in flight until B's execution goroutine has registered its
	// conflict wait, so the ReoptWaits assertion below is deterministic.
	for deadline := time.Now().Add(5 * time.Second); s.Stats().ReoptWaits == 0 && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	close(release)
	if err := s.Drain(); err != nil {
		t.Fatal(err)
	}
	s.Close()
	st := s.Stats()
	if st.ReoptWaits != 1 {
		t.Fatalf("ReoptWaits = %d, want 1 (only the conflicting event)", st.ReoptWaits)
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
	// Give the dispatcher a chance to (incorrectly) admit B early.
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

// TestAbortRetiresStrictPrefix pins the abort contract: when event k
// fails, nothing from seq k on retires — even a later event that was
// admitted out of order and finished executing — so the retired stream is
// always a strict prefix of the submission order, like the serial path.
func TestAbortRetiresStrictPrefix(t *testing.T) {
	s, err := New(Config{MaxInFlight: 3})
	if err != nil {
		t.Fatal(err)
	}
	rec := &recorder{}
	release := make(chan struct{})
	boom := fmt.Errorf("boom")

	// Event 0: owns session 1, blocks in reopt until released.
	if _, err := s.Submit(Exec{
		Trigger: 1,
		Admit:   func() (Footprint, error) { return Footprint{Sessions: []int32{1}}, nil },
		Reopt:   func() error { <-release; return nil },
		Retire:  func() { rec.add("retire-0") },
	}); err != nil {
		t.Fatal(err)
	}
	// Event 1: same trigger → admission waits for event 0, then fails.
	if _, err := s.Submit(Exec{
		Trigger: 1,
		Admit:   func() (Footprint, error) { return Footprint{}, boom },
		Reopt:   func() error { return nil },
		Retire:  func() { rec.add("retire-1") },
	}); err != nil {
		t.Fatal(err)
	}
	// Event 2: disjoint → admitted out of order and completes while event 0
	// is still blocked; its retire must be suppressed by event 1's abort.
	ran := make(chan struct{})
	if _, err := s.Submit(Exec{
		Trigger: 3,
		Admit:   func() (Footprint, error) { return Footprint{Sessions: []int32{3}}, nil },
		Reopt:   func() error { close(ran); return nil },
		Retire:  func() { rec.add("retire-2") },
	}); err != nil {
		t.Fatal(err)
	}
	select {
	case <-ran:
	case <-time.After(5 * time.Second):
		t.Fatal("disjoint event never ran out of order")
	}
	close(release)
	if got := s.Drain(); got != boom {
		t.Fatalf("Drain = %v, want %v", got, boom)
	}
	s.Close()
	log := rec.snapshot()
	if len(log) != 1 || log[0] != "retire-0" {
		t.Fatalf("aborted stream retired %v, want strict prefix [retire-0]", log)
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
	var started sync.WaitGroup
	started.Add(3)
	for i := 0; i < 8; i++ {
		i := i
		first := i < 3
		if _, err := s.Submit(Exec{
			Trigger: int32(i),
			Admit: func() (Footprint, error) {
				return Footprint{Sessions: []int32{int32(i)}, Shards: []int32{int32(i)}}, nil
			},
			Reopt: func() error {
				if first {
					started.Done()
					<-release
				}
				return nil
			},
			Retire: func() {},
		}); err != nil {
			t.Fatal(err)
		}
	}
	started.Wait() // cap reached: 3 events blocked in flight, rest queued
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
	// Give the dispatcher its wake-up from Submit: it must scan past event 1
	// (marking it stalled at the full in-flight cap) before event 0 is
	// released. The sleep only makes the stall deterministic; the
	// flags-vs-stats reconciliation below holds regardless of timing.
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
