package orchestrator

import (
	"math"
	"reflect"
	"testing"
	"unsafe"

	"vconf/internal/cost"
	"vconf/internal/faults"
	"vconf/internal/sim"
	"vconf/internal/workload"
)

// soakDay is a virtual day of churn and faults on a chaos fleet: arrivals
// slow enough and faults rare enough that the day stays a few thousand
// events.
func soakDay(seed int64, fc workload.FleetConfig, homes []int) (workload.ChurnConfig, faults.Config) {
	ccfg, fcfg := chaosGenConfigs(seed, fc, homes, 86400, 0.01)
	ccfg.MeanHoldS = 600
	fcfg.AgentMTBFS *= 40
	fcfg.RegionMTBFS *= 40
	fcfg.DegradeMTBFS *= 40
	fcfg.FlashMTBFS *= 40
	return ccfg, fcfg
}

// chunkSource yields at most n events of src.
type chunkSource struct {
	src sim.EventSource
	n   int
}

func (c *chunkSource) Next() (workload.Event, bool) {
	if c.n == 0 {
		return workload.Event{}, false
	}
	c.n--
	return c.src.Next()
}

func (c *chunkSource) Err() error { return c.src.Err() }

// witnesses fails the test if the sessions' witness lists, which the memo
// table keeps outside its byte limit, have allocated more than an eighth of
// that limit (a four-day run of the soak's seeds peaked at 16 KiB).
func witnesses(t *testing.T, o *Orchestrator) {
	t.Helper()
	most, room := o.memo.Witnesses()
	if bytes := room * int(unsafe.Sizeof(cost.Refusal{})); bytes > memoTableBytes/8 {
		t.Fatalf("the witness lists allocated %d bytes (most in one session: %d), over %d", bytes, most, memoTableBytes/8)
	}
}

// TestVirtualDaySoak drives seeded virtual days of churn and faults through
// the orchestrator. At one event in flight, a run without the memo table
// (and so without any memo that outlives a walk) must retire the same
// decision stream, report for report, and end in the same assignment and
// objective bits as a run with it, on five seeds with and without a
// candidate window. At four events in flight on two workers, the invariants
// must hold after every fifty events. The table's witness lists must stay
// small at the end of every run and after every fifty events.
func TestVirtualDaySoak(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		fc := chaosFleet(80 + seed)
		_, _, homes := chaosStack(t, fc)
		ccfg, fcfg := soakDay(seed, fc, homes)
		cfg := chaosConfig(seed, fc)
		cfg.Core.NeighborWindow = 3 * int(seed%2)
		var streams [2][]EventReport
		var finals [2]string
		var hops [2]Stats
		for i := range streams {
			ev, boot, _ := chaosStack(t, fc)
			o, err := New(ev, boot, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if i == 1 {
				o.memo = nil
			}
			if err := o.RunSource(chaosEngine(t, ccfg, fcfg), math.Inf(1), func(rep EventReport) error {
				streams[i] = append(streams[i], normalizeReport(rep))
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			finals[i] = o.Assignment().Encode()
			hops[i] = o.Stats()
			if i == 0 {
				witnesses(t, o)
			}
			if err := o.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
			o.Close()
		}
		if !reflect.DeepEqual(streams[0], streams[1]) || finals[0] != finals[1] {
			t.Fatalf("seed %d: the run with the memo table retired a different decision stream (%d and %d reports)",
				seed, len(streams[0]), len(streams[1]))
		}
		if hops[0].WalkReusedAcross == 0 || hops[1].WalkReusedAcross != 0 {
			t.Fatalf("seed %d: %d hops reused across walks with the table, %d without", seed,
				hops[0].WalkReusedAcross, hops[1].WalkReusedAcross)
		}
		t.Logf("seed %d window %d: %d events, %d incidents, %d of %d hops reused across walks",
			seed, cfg.Core.NeighborWindow, len(streams[0]), hops[0].Incidents, hops[0].WalkReusedAcross, hops[0].WalkHops)
	}

	fc := chaosFleet(86)
	ev, boot, homes := chaosStack(t, fc)
	ccfg, fcfg := soakDay(6, fc, homes)
	cfg := chaosConfig(6, fc)
	cfg.Shards = 2
	cfg.MaxInFlight = 4
	cfg.Core.NeighborWindow = 3
	o, err := New(ev, boot, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer o.Close()
	day := chaosEngine(t, ccfg, fcfg)
	checks := 0
	for {
		chunk := &chunkSource{src: day, n: 50}
		if err := o.RunSource(chunk, math.Inf(1), nil); err != nil {
			t.Fatal(err)
		}
		if err := o.CheckInvariants(); err != nil {
			t.Fatalf("after %d events: %v", o.Stats().Events, err)
		}
		checks++
		witnesses(t, o)
		if chunk.n > 0 {
			break
		}
	}
	t.Logf("four in flight: %d events, invariants checked %d times", o.Stats().Events, checks)
}
