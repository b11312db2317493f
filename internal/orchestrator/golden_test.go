package orchestrator

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"vconf/internal/core"
	"vconf/internal/cost"
	"vconf/internal/sim"
	"vconf/internal/workload"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden decision streams under testdata/golden")

// goldenFixture is one recorded decision stream: a scenario, a schedule and
// a single-worker configuration, so task order — and with it every commit
// decision — is fully deterministic even where capacity binds.
type goldenFixture struct {
	name   string
	stack  func(t *testing.T) (*cost.Evaluator, core.Bootstrapper)
	events func(t *testing.T) []workload.Event
	config func() Config
	// rebuild also replays the stream with the per-hop delay-base rebuild
	// (Config.rebuildDelayBase): reusing prepared state must not move a
	// single decision.
	rebuild bool
}

// goldenFinal is the end state a recording pins beside its trace.
type goldenFinal struct {
	Assignment string `json:"assignment_sha256"`
	Objective  string `json:"objective_bits"`
	Stats      Stats  `json:"stats"`
}

// churnFixture is a prototype workload under seeded Poisson churn.
func churnFixture(name string, wl func() workload.Config, churnSeed int64, horizonS, rate, holdS float64,
	cfgSeed int64, window int, rebuild bool) goldenFixture {
	return goldenFixture{
		name: name,
		stack: func(t *testing.T) (*cost.Evaluator, core.Bootstrapper) {
			return testStack(t, wl())
		},
		events: func(t *testing.T) []workload.Event {
			ev, _ := testStack(t, wl())
			return churn(t, ev, churnSeed, horizonS, rate, holdS)
		},
		config: func() Config {
			cfg := DefaultConfig(cfgSeed)
			cfg.Shards = 1
			cfg.Core.NeighborWindow = window
			return cfg
		},
		rebuild: rebuild,
	}
}

// tight shrinks a prototype workload's capacities until commits are refused.
func tight(seed int64, bandwidthMbps float64, slots int) func() workload.Config {
	return func() workload.Config {
		wl := workload.Prototype(seed)
		wl.MeanBandwidthMbps = bandwidthMbps
		wl.MeanTranscodeSlots = slots
		return wl
	}
}

func proto(seed int64) func() workload.Config {
	return func() workload.Config { return workload.Prototype(seed) }
}

// goldenFixtures lists the recorded streams. They are the fixtures of the
// differential tests that compared the per-event barrier, the single-lock
// commit and the scheduler at one event in flight; all three produced these
// bytes before the first two were deleted.
func goldenFixtures() []goldenFixture {
	chaos := chaosFleet(41)
	return []goldenFixture{
		churnFixture("churn-p41", proto(41), 45, 300, 0.1, 90, 45, 0, false),
		churnFixture("churn-p42-tight", tight(42, 220, 6), 45, 300, 0.1, 90, 45, 0, false),
		churnFixture("churn-p43-w3", proto(43), 45, 300, 0.1, 90, 45, 3, false),
		churnFixture("reports-p46-tight", tight(46, 260, 8), 47, 250, 0.12, 80, 47, 0, false),
		churnFixture("sharded-p11", proto(11), 13, 300, 0.1, 90, 13, 0, false),
		churnFixture("sharded-p12-tight", tight(12, 220, 6), 13, 300, 0.1, 90, 13, 0, false),
		churnFixture("sharded-p14-w3", proto(14), 13, 300, 0.1, 90, 13, 3, false),
		churnFixture("delay-p61", proto(61), 65, 300, 0.1, 90, 65, 0, true),
		churnFixture("delay-p62-tight", tight(62, 220, 6), 65, 300, 0.1, 90, 65, 0, true),
		churnFixture("delay-p63-w3", proto(63), 65, 300, 0.1, 90, 65, 3, true),
		churnFixture("delay-p64-w3", proto(64), 65, 300, 0.1, 90, 65, 3, true),
		{
			name: "chaos-f41",
			stack: func(t *testing.T) (*cost.Evaluator, core.Bootstrapper) {
				ev, boot, _ := chaosStack(t, chaos)
				return ev, boot
			},
			events: func(t *testing.T) []workload.Event {
				_, _, homes := chaosStack(t, chaos)
				return chaosSchedule(t, 41, chaos, homes, 400, 0.15)
			},
			config: func() Config { return chaosConfig(41, chaos) },
		},
	}
}

// recordGolden drives a fresh orchestrator over src and returns the
// vconf-trace of its decision digests and its final state. check, when
// non-nil, sees each digest before it is recorded.
func recordGolden(t *testing.T, fx goldenFixture, cfg Config, src sim.EventSource, check func(sim.Digest) error) ([]byte, goldenFinal) {
	t.Helper()
	ev, boot := fx.stack(t)
	o, err := New(ev, boot, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer o.Close()
	var trace bytes.Buffer
	rec, err := sim.NewRecorder(&trace)
	if err != nil {
		t.Fatal(err)
	}
	err = o.RunSource(src, 1e18, func(rep EventReport) error {
		d := sim.Digest{Phi: rep.Objective, Active: rep.ActiveSessions, Commits: rep.Commits}
		if check != nil {
			if err := check(d); err != nil {
				return err
			}
		}
		return rec.Record(rep.Event, d)
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := rec.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := o.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256([]byte(o.Assignment().Encode()))
	return trace.Bytes(), goldenFinal{
		Assignment: hex.EncodeToString(sum[:]),
		Objective:  strconv.FormatUint(math.Float64bits(o.Objective()), 16),
		Stats:      coreStats(o.Stats()),
	}
}

// TestGoldenDecisionStreams replays every recorded stream through the event
// path: each event comes from the recording, each retiring decision digest
// (Φ bits, active sessions, commits) must match it, the re-recorded trace
// must be byte-identical, and the final assignment, objective bits and
// activity counters must equal the recorded end state. Regenerate with
// go test -run TestGoldenDecisionStreams -update.
func TestGoldenDecisionStreams(t *testing.T) {
	dir := filepath.Join("testdata", "golden")
	for _, fx := range goldenFixtures() {
		t.Run(fx.name, func(t *testing.T) {
			tracePath := filepath.Join(dir, fx.name+".trace")
			finalPath := filepath.Join(dir, fx.name+".final.json")
			if *updateGolden {
				trace, final := recordGolden(t, fx, fx.config(), sim.NewSliceSource(fx.events(t)), nil)
				js, err := json.MarshalIndent(final, "", "  ")
				if err != nil {
					t.Fatal(err)
				}
				if err := os.MkdirAll(dir, 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(tracePath, trace, 0o644); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(finalPath, append(js, '\n'), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			replayGolden(t, fx, dir, nil)
		})
	}
}

// TestGoldenDecisionStreamsPerAgentStripes replays every recording over a
// ledger with one stripe per agent instead of the fixtures' single stripe.
// With one worker nothing races, so the stripe count must not move a single
// decision even where capacity binds — and with a candidate window the
// worker reads route-restricted snapshots that hold only some stripes.
func TestGoldenDecisionStreamsPerAgentStripes(t *testing.T) {
	dir := filepath.Join("testdata", "golden")
	for _, fx := range goldenFixtures() {
		t.Run(fx.name, func(t *testing.T) {
			replayGolden(t, fx, dir, func(cfg *Config) {
				cfg.ledgerShards = math.MaxInt32 // clamped to the agent count
			})
		})
	}
}

// replayGolden replays fx's recording under its configuration, adjusted by
// tune when non-nil, and fails on the first digest, trace byte or end-state
// field that differs from the recording.
func replayGolden(t *testing.T, fx goldenFixture, dir string, tune func(cfg *Config)) {
	t.Helper()
	tracePath := filepath.Join(dir, fx.name+".trace")
	want, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatalf("%v (run go test -run TestGoldenDecisionStreams -update to regenerate)", err)
	}
	js, err := os.ReadFile(filepath.Join(dir, fx.name+".final.json"))
	if err != nil {
		t.Fatal(err)
	}
	var wantFinal goldenFinal
	if err := json.Unmarshal(js, &wantFinal); err != nil {
		t.Fatal(err)
	}
	rebuilds := []bool{false}
	if fx.rebuild {
		rebuilds = append(rebuilds, true)
	}
	for _, rebuild := range rebuilds {
		cfg := fx.config()
		if tune != nil {
			tune(&cfg)
		}
		cfg.rebuildDelayBase = rebuild
		rp, err := sim.NewReplayer(bytes.NewReader(want))
		if err != nil {
			t.Fatal(err)
		}
		trace, final := recordGolden(t, fx, cfg, rp, func(d sim.Digest) error {
			if div := rp.Check(d); div != nil {
				return div
			}
			return nil
		})
		if !bytes.Equal(trace, want) {
			t.Fatalf("rebuild=%v: replayed trace is not byte-identical to %s", rebuild, tracePath)
		}
		if final != wantFinal {
			t.Fatalf("rebuild=%v: final state diverged:\n got  %+v\n want %+v", rebuild, final, wantFinal)
		}
	}
}
