package telemetry

import (
	"bufio"
	"encoding/json"
	"strings"
	"sync"
	"testing"
)

// ringCase adapts one element type to checkRing: mk builds the i-th item,
// id reads back the i an item was built from, seq reads the stamped stream
// position and stamp writes it (both nil for types that carry none).
type ringCase[T any] struct {
	mk    func(i int) T
	id    func(T) int
	seq   func(T) int64
	stamp func(*T, int64)
}

// checkRing drives one element type through a ring that never wraps and one
// that wraps: Len/Total/Dropped, the overwrite report of every Append,
// oldest-first Items with stable Seq, and Tail below, at and above Len.
func checkRing[T any](t *testing.T, c ringCase[T]) {
	want := func(t *testing.T, got []T, from, n int) {
		t.Helper()
		if len(got) != n {
			t.Fatalf("got %d items, want %d", len(got), n)
		}
		for k, v := range got {
			if c.id(v) != from+k {
				t.Fatalf("item %d is #%d, want #%d (oldest first)", k, c.id(v), from+k)
			}
			if c.seq != nil && c.seq(v) != int64(from+k) {
				t.Fatalf("item %d has seq %d, want %d", k, c.seq(v), from+k)
			}
		}
	}
	for _, tc := range []struct {
		name                 string
		capacity, appends    int
		wantLen, wantDropped int
	}{
		{"no_wrap", 8, 3, 3, 0},
		{"wrap", 4, 10, 4, 6},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := NewRing(tc.capacity, c.stamp)
			for i := 0; i < tc.appends; i++ {
				if got, wantOver := r.Append(c.mk(i)), i >= tc.capacity; got != wantOver {
					t.Fatalf("append %d: overwrote = %v, want %v", i, got, wantOver)
				}
			}
			if r.Len() != tc.wantLen || r.Total() != int64(tc.appends) || r.Dropped() != int64(tc.wantDropped) {
				t.Fatalf("len/total/dropped = %d/%d/%d, want %d/%d/%d",
					r.Len(), r.Total(), r.Dropped(), tc.wantLen, tc.appends, tc.wantDropped)
			}
			oldest := tc.appends - tc.wantLen
			want(t, r.Items(), oldest, tc.wantLen)
			want(t, r.Tail(tc.wantLen+5), oldest, tc.wantLen)
			want(t, r.Tail(2), tc.appends-2, 2)
			want(t, r.Tail(0), 0, 0)
		})
	}
}

// TestRing pins the one bounded ring over all three element types it
// carries, the sink's drop counters for the two scraped rings, and Seq
// assignment under concurrent appends.
func TestRing(t *testing.T) {
	for _, tc := range []struct {
		name string
		run  func(t *testing.T)
	}{
		{"decisions", func(t *testing.T) {
			checkRing(t, ringCase[DecisionRecord]{
				mk:    func(i int) DecisionRecord { return DecisionRecord{Session: i} },
				id:    func(r DecisionRecord) int { return r.Session },
				seq:   func(r DecisionRecord) int64 { return r.Seq },
				stamp: func(r *DecisionRecord, q int64) { r.Seq = q },
			})
		}},
		{"spans", func(t *testing.T) {
			checkRing(t, ringCase[SpanRecord]{
				mk:    func(i int) SpanRecord { return SpanRecord{ID: uint64(i), Name: "s"} },
				id:    func(r SpanRecord) int { return int(r.ID) },
				seq:   func(r SpanRecord) int64 { return r.Seq },
				stamp: func(r *SpanRecord, q int64) { r.Seq = q },
			})
		}},
		{"windows", func(t *testing.T) {
			checkRing(t, ringCase[Window]{
				mk: func(i int) Window { return Window{Index: int64(i)} },
				id: func(w Window) int { return int(w.Index) },
			})
		}},
	} {
		t.Run(tc.name, tc.run)
	}

	t.Run("sink_drop_counters", func(t *testing.T) {
		s := New(Config{TraceCapacity: 2, SpanCapacity: 2})
		for i := 0; i < 5; i++ {
			s.StartRoot("event", "event", 0).End()
			s.Record(DecisionRecord{Kind: "arrive", Session: i, Admitted: true})
		}
		var b strings.Builder
		if err := s.Registry().WriteProm(&b); err != nil {
			t.Fatal(err)
		}
		for _, want := range []string{
			`vconf_trace_dropped_total{ring="spans"} 3`,
			`vconf_trace_dropped_total{ring="decisions"} 3`,
		} {
			if !strings.Contains(b.String(), want) {
				t.Fatalf("missing %s:\n%s", want, b.String())
			}
		}
		if s.Spans().Dropped() != 3 || s.Recorder().Dropped() != 3 {
			t.Fatalf("ring drops = %d spans, %d decisions; want 3 each", s.Spans().Dropped(), s.Recorder().Dropped())
		}
	})

	t.Run("concurrent_seq", func(t *testing.T) {
		const writers, each, capacity = 8, 100, 300
		r := NewRing(capacity, func(sp *SpanRecord, q int64) { sp.Seq = q })
		var wg sync.WaitGroup
		for w := 0; w < writers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := 0; i < each; i++ {
					r.Append(SpanRecord{ID: uint64(w*each + i)})
				}
			}(w)
		}
		wg.Wait()
		items := r.Items()
		if r.Total() != writers*each || len(items) != capacity {
			t.Fatalf("total %d, held %d; want %d, %d", r.Total(), len(items), writers*each, capacity)
		}
		seen := map[uint64]bool{}
		for k, sp := range items {
			if want := int64(writers*each - capacity + k); sp.Seq != want {
				t.Fatalf("item %d has seq %d, want its stream position %d", k, sp.Seq, want)
			}
			if seen[sp.ID] {
				t.Fatalf("span %d held twice", sp.ID)
			}
			seen[sp.ID] = true
		}
	})
}

func TestWriteJSONLRoundTrip(t *testing.T) {
	r := NewRing(16, func(rec *DecisionRecord, q int64) { rec.Seq = q })
	r.Append(DecisionRecord{TimeS: 1.5, Session: 3, Kind: "arrive", Admitted: true, Commits: 2, CfGap: 0.25, CfValid: true, Objective: 12.5})
	r.Append(DecisionRecord{TimeS: 2.0, Session: 3, Kind: "depart", Admitted: true, CacheCold: 1})
	var sb strings.Builder
	if err := r.WriteJSONL(&sb); err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(strings.NewReader(sb.String()))
	var back []DecisionRecord
	for sc.Scan() {
		var rec DecisionRecord
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Fatalf("line %q: %v", sc.Text(), err)
		}
		back = append(back, rec)
	}
	if len(back) != 2 {
		t.Fatalf("round-tripped %d records, want 2", len(back))
	}
	if back[0].Kind != "arrive" || back[0].Commits != 2 || !back[0].CfValid || back[0].CfGap != 0.25 {
		t.Fatalf("record 0 mangled: %+v", back[0])
	}
	if back[1].CacheCold != 1 || back[1].Seq != 1 {
		t.Fatalf("record 1 mangled: %+v", back[1])
	}
}
