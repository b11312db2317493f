package telemetry

import (
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestSpanNilSink pins the disabled-span contract: starting on a nil sink
// returns the zero Span, ending it is a no-op, and every span-family
// method stays nil-safe.
func TestSpanNilSink(t *testing.T) {
	var s *Sink
	root := s.StartRoot("event", "event", 0)
	if root.Active() || root.ID() != 0 {
		t.Fatalf("nil sink produced an active span: %+v", root)
	}
	child := s.StartSpan("heal", root)
	child.End()
	root.EndArg(42)
	s.EmitSpan("task", "task", root, 100, time.Now(), 10, 1)
	if s.Spans() != nil {
		t.Fatal("nil sink leaked a span ring")
	}
	s.DistFreeze(100)
	s.DistAbandon()
	s.DistRetry()
	if err := s.WriteChromeTrace(io.Discard); err != nil {
		t.Fatal(err)
	}
}

// TestSpanZeroAlloc pins both span paths at zero allocations per op: the
// nil-sink path must be a pointer test, and the enabled path a value
// handle plus a ring slot — no heap traffic either way.
func TestSpanZeroAlloc(t *testing.T) {
	var nilSink *Sink
	if allocs := testing.AllocsPerRun(1000, func() {
		sp := nilSink.StartRoot("event", "event", 0)
		ch := nilSink.StartSpan("heal", sp)
		ch.End()
		sp.EndArg(1)
		nilSink.DistFreeze(5)
		nilSink.DistRetry()
	}); allocs != 0 {
		t.Fatalf("nil-sink span path allocates %.1f/op, want 0", allocs)
	}

	s := New(Config{SpanCapacity: 64})
	if allocs := testing.AllocsPerRun(1000, func() {
		sp := s.StartRoot("event", "event", 0)
		ch := s.StartSpan("heal", sp)
		ch.End()
		sp.EndArg(1)
	}); allocs != 0 {
		t.Fatalf("enabled span path allocates %.1f/op, want 0", allocs)
	}
}

// TestChromeTraceNestedShape is the golden-shape test for the merged
// Chrome export: an event root containing a task span whose
// snapshot/walk/commit attribution children tile it, all on pid 1, with
// time containment holding on every lane so the viewer renders a flame
// graph — plus the id/parent causal links in args.
func TestChromeTraceNestedShape(t *testing.T) {
	s := New(Config{})
	root := s.StartRoot("event:arrive", "event", 0)
	base := time.Now()
	task := s.EmitSpan("task", "task", root, 100, base, 1000, 7)
	s.EmitSpan("snapshot", "task", task, 100, base, 300, 7)
	s.EmitSpan("walk", "task", task, 100, base.Add(300*time.Nanosecond), 500, 7)
	s.EmitSpan("commit", "task", task, 100, base.Add(800*time.Nanosecond), 200, 7)
	// The retro-emitted children extend to base+1000ns of wall time; the
	// root's duration is measured live, so make sure it ends after them
	// rather than racing the emit calls on a fast machine.
	time.Sleep(10 * time.Microsecond)
	root.EndArg(7)

	var b strings.Builder
	if err := s.WriteChromeTrace(&b); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string                 `json:"name"`
			Ph   string                 `json:"ph"`
			Ts   float64                `json:"ts"`
			Dur  float64                `json:"dur"`
			Pid  int                    `json:"pid"`
			Tid  int                    `json:"tid"`
			Args map[string]interface{} `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(b.String()), &doc); err != nil {
		t.Fatalf("chrome trace is not valid JSON: %v", err)
	}

	type ev = struct {
		Name string                 `json:"name"`
		Ph   string                 `json:"ph"`
		Ts   float64                `json:"ts"`
		Dur  float64                `json:"dur"`
		Pid  int                    `json:"pid"`
		Tid  int                    `json:"tid"`
		Args map[string]interface{} `json:"args"`
	}
	byName := map[string]ev{}
	meta := 0
	for _, e := range doc.TraceEvents {
		if e.Ph == "M" {
			meta++
			continue
		}
		if e.Ph != "X" {
			t.Fatalf("unexpected phase %q on %q", e.Ph, e.Name)
		}
		byName[e.Name] = e
	}
	if meta != 2 {
		t.Fatalf("metadata events = %d, want process names for both pids", meta)
	}

	contains := func(outer, inner string) {
		t.Helper()
		o, okO := byName[outer]
		i, okI := byName[inner]
		if !okO || !okI {
			t.Fatalf("missing span %q or %q in export (have %v)", outer, inner, byName)
		}
		const eps = 0.002 // µs slack for the 0.001 min-duration clamp
		if i.Ts < o.Ts-eps || i.Ts+i.Dur > o.Ts+o.Dur+eps {
			t.Fatalf("%q [%v,%v] not contained in %q [%v,%v]",
				inner, i.Ts, i.Ts+i.Dur, outer, o.Ts, o.Ts+o.Dur)
		}
	}
	for _, e := range byName {
		if e.Pid != 1 {
			t.Fatalf("span %q on pid %d, want 1", e.Name, e.Pid)
		}
	}
	if byName["event:arrive"].Tid != 0 || byName["task"].Tid != 100 {
		t.Fatal("spans landed on the wrong lanes")
	}
	contains("event:arrive", "task")
	contains("task", "snapshot")
	contains("task", "walk")
	contains("task", "commit")
	if byName["task"].Args["parent"] != byName["event:arrive"].Args["id"] {
		t.Fatal("task span does not point at the event root")
	}
	if byName["snapshot"].Args["parent"] != byName["task"].Args["id"] {
		t.Fatal("snapshot span does not point at the task span")
	}
}

// TestExpositionRaceStorm hammers every read endpoint while writers storm
// the sink — run under -race this is the data-race proof for the merged
// exporters.
func TestExpositionRaceStorm(t *testing.T) {
	s := New(Config{TraceCapacity: 128, SpanCapacity: 128})
	srv, err := Serve(s, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	// One serialized recorder goroutine (Record's contract: the event loop /
	// retire path is single-caller) plus concurrent writers standing in
	// for overlapping events' re-optimization stages and task spans.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			s.Record(DecisionRecord{Kind: "arrive", Session: i, Admitted: true, DelayMS: 1.5})
		}
	}()
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				s.Task(i, TaskResult{Outcome: OutcomeCommit, Hops: 3, Reused: 1})
				root := s.StartRoot("event:arrive", "event", int32(w))
				s.EmitSpan("task", "task", root, 100+int32(w), time.Now(), 50, int64(i))
				root.EndArg(int64(i))
				s.DistFreeze(100)
			}
		}(w)
	}

	paths := Documents()
	for round := 0; round < 3*len(paths); round++ {
		p := paths[round%len(paths)]
		resp, err := http.Get("http://" + srv.Addr() + p)
		if err != nil {
			t.Fatalf("GET %s: %v", p, err)
		}
		if _, err := io.Copy(io.Discard, resp.Body); err != nil {
			t.Fatalf("read %s: %v", p, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", p, resp.StatusCode)
		}
	}
	close(stop)
	wg.Wait()
}
