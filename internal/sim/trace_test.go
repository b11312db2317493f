package sim

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"vconf/internal/workload"
)

func sampleEvents() []workload.Event {
	return []workload.Event{
		{TimeS: 0.5, Kind: workload.EventArrival, Session: 0},
		{TimeS: 1.25, Kind: workload.EventAgentFail, Session: -1, Agent: 2, Region: 1, Incident: 1, Rank: workload.RankFaults},
		{TimeS: 2.75, Kind: workload.EventDeparture, Session: 0},
	}
}

func sampleDigests() []Digest {
	return []Digest{
		{Phi: 12.125, Active: 1, Commits: 2},
		{Phi: math.Pi, Active: 1, Commits: 5},
		{Phi: 0, Active: 0, Commits: 1},
	}
}

func record(t testing.TB, events []workload.Event, digests []Digest) []byte {
	t.Helper()
	var buf bytes.Buffer
	rec, err := NewRecorder(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for i, ev := range events {
		if err := rec.Record(ev, digests[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := rec.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestTraceRecordReplayRoundTrip pins the record→replay identity: the
// replayer yields the recorded events bit-for-bit and accepts the exact
// digests, Φ compared on IEEE-754 bits.
func TestTraceRecordReplayRoundTrip(t *testing.T) {
	events, digests := sampleEvents(), sampleDigests()
	trace := record(t, events, digests)

	rp, err := NewReplayer(bytes.NewReader(trace))
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range events {
		ev, ok := rp.Next()
		if !ok {
			t.Fatalf("replay ended at %d: %v", i, rp.Err())
		}
		if ev != want {
			t.Fatalf("event %d: got %+v want %+v", i, ev, want)
		}
		if d := rp.Check(digests[i]); d != nil {
			t.Fatalf("event %d: spurious divergence: %v", i, d)
		}
	}
	if _, ok := rp.Next(); ok {
		t.Fatal("replay yielded extra events")
	}
	if err := rp.Err(); err != nil {
		t.Fatal(err)
	}
	if rp.Divergence() != nil || rp.Checked() != uint64(len(events)) {
		t.Fatalf("divergence %v checked %d", rp.Divergence(), rp.Checked())
	}
}

// TestTraceReplayDivergence pins the checker: a single-bit Φ change is
// caught at the right sequence number with both bit patterns reported.
func TestTraceReplayDivergence(t *testing.T) {
	events, digests := sampleEvents(), sampleDigests()
	trace := record(t, events, digests)
	rp, err := NewReplayer(bytes.NewReader(trace))
	if err != nil {
		t.Fatal(err)
	}
	for i := range events {
		if _, ok := rp.Next(); !ok {
			t.Fatal("short replay")
		}
		d := digests[i]
		if i == 1 {
			d.Phi = math.Float64frombits(math.Float64bits(d.Phi) + 1) // one ulp off
		}
		div := rp.Check(d)
		if i < 1 && div != nil {
			t.Fatalf("event %d: spurious divergence %v", i, div)
		}
		if i >= 1 && div == nil {
			t.Fatalf("event %d: divergence not caught/retained", i)
		}
	}
	div := rp.Divergence()
	if div == nil || div.Seq != 1 || div.Field != "phi" {
		t.Fatalf("wrong divergence: %+v", div)
	}
	if !strings.Contains(div.Error(), "seq 1") {
		t.Fatalf("divergence error lacks seq: %s", div.Error())
	}

	// Digest drift in active/commits is caught too.
	rp2, _ := NewReplayer(bytes.NewReader(trace))
	rp2.Next()
	d := sampleDigests()[0]
	d.Commits++
	if div := rp2.Check(d); div == nil || div.Field != "commits" {
		t.Fatalf("commit drift not caught: %+v", div)
	}
}

// TestTraceHeaderValidation pins version gating: wrong format, future
// trace versions and future event schemas are all rejected up front.
func TestTraceHeaderValidation(t *testing.T) {
	cases := []string{
		"",
		"not json\n",
		`{"format":"other","version":1,"event_schema":1}` + "\n",
		`{"format":"vconf-trace","version":99,"event_schema":1}` + "\n",
		`{"format":"vconf-trace","version":1,"event_schema":99}` + "\n",
	}
	for i, c := range cases {
		if _, err := NewReplayer(strings.NewReader(c)); err == nil {
			t.Fatalf("case %d: bad header accepted", i)
		}
	}
}

// TestCompareTraces pins the vcreport divergence reporter: identical
// traces compare clean; digest, event and length differences are localized
// to the right record.
func TestCompareTraces(t *testing.T) {
	events, digests := sampleEvents(), sampleDigests()
	a := record(t, events, digests)

	if div, n, err := CompareTraces(bytes.NewReader(a), bytes.NewReader(a)); err != nil || div != nil || n != 3 {
		t.Fatalf("self-compare: div=%v n=%d err=%v", div, n, err)
	}

	d2 := sampleDigests()
	d2[2].Active = 9
	b := record(t, events, d2)
	div, _, err := CompareTraces(bytes.NewReader(a), bytes.NewReader(b))
	if err != nil || div == nil || div.Seq != 2 || div.Field != "digest" {
		t.Fatalf("digest diff: div=%+v err=%v", div, err)
	}

	e2 := sampleEvents()
	e2[0].Session = 7
	c := record(t, e2, digests)
	div, _, err = CompareTraces(bytes.NewReader(a), bytes.NewReader(c))
	if err != nil || div == nil || div.Seq != 0 || div.Field != "event" {
		t.Fatalf("event diff: div=%+v err=%v", div, err)
	}

	short := record(t, events[:2], digests[:2])
	div, _, err = CompareTraces(bytes.NewReader(a), bytes.NewReader(short))
	if err != nil || div == nil || div.Field != "length" {
		t.Fatalf("length diff: div=%+v err=%v", div, err)
	}
}

// TestReplayerAsEngineSource replays a recorded merged stream through the
// engine and confirms the events and clock march identically.
func TestReplayerAsEngineSource(t *testing.T) {
	events, digests := sampleEvents(), sampleDigests()
	trace := record(t, events, digests)
	rp, err := NewReplayer(bytes.NewReader(trace))
	if err != nil {
		t.Fatal(err)
	}
	e := New(rp)
	for i, want := range events {
		ev, ok := e.Next()
		if !ok {
			t.Fatalf("engine ended at %d: %v", i, e.Err())
		}
		if ev != want || e.Now() != want.TimeS {
			t.Fatalf("event %d: got %+v now %v", i, ev, e.Now())
		}
	}
	if _, ok := e.Next(); ok || e.Err() != nil {
		t.Fatalf("engine tail: err=%v", e.Err())
	}
}

// FuzzTraceReplay feeds arbitrary bytes to the trace reader: the replayer,
// its checker and the trace comparator must never panic, a trace must
// compare clean against itself, and a trace the reader accepts whole must
// re-record to the same events.
func FuzzTraceReplay(f *testing.F) {
	trace := record(f, sampleEvents(), sampleDigests())
	header := trace[:bytes.IndexByte(trace, '\n')+1]
	f.Add(trace)
	f.Add(header)
	// A record without an event, a record cut in half, and a trace
	// without its final newline.
	f.Add(append(append([]byte(nil), header...), `{"seq":0,"phi":"0"}`...))
	f.Add(trace[:len(trace)/2])
	f.Add(trace[:len(trace)-1])
	f.Add(bytes.Replace(trace, []byte(`"seq":1`), []byte(`"seq":7`), 1))
	f.Add(bytes.Replace(trace, []byte(`"arrive"`), []byte(`"arrivx"`), 1))
	f.Add(bytes.Replace(trace, []byte(`"phi":"`), []byte(`"phi":"zz`), 1))
	garbled := append([]byte(nil), trace...)
	garbled[len(garbled)*2/3] ^= 0x5a
	f.Add(garbled)

	f.Fuzz(func(t *testing.T, data []byte) {
		if div, _, err := CompareTraces(bytes.NewReader(data), bytes.NewReader(data)); err == nil && div != nil {
			t.Fatalf("trace diverges from itself: %v", div)
		}
		rp, err := NewReplayer(bytes.NewReader(data))
		if err != nil {
			return
		}
		var events []workload.Event
		for ev, ok := rp.Next(); ok; ev, ok = rp.Next() {
			events = append(events, ev)
			rp.Check(Digest{})
		}
		if rp.Check(Digest{}) == nil {
			t.Fatal("a decision past the end of the trace was not reported")
		}
		if rp.Err() != nil {
			return
		}
		again, err := NewReplayer(bytes.NewReader(record(t, events, make([]Digest, len(events)))))
		if err != nil {
			t.Fatal(err)
		}
		for i, want := range events {
			if ev, ok := again.Next(); !ok || ev != want {
				t.Fatalf("event %d re-recorded as %+v, want %+v", i, ev, want)
			}
		}
		if _, ok := again.Next(); ok || again.Err() != nil {
			t.Fatalf("re-recorded trace has extra events or fails: %v", again.Err())
		}
	})
}
