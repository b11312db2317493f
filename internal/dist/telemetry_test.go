package dist

import (
	"context"
	"strings"
	"testing"
	"time"

	"vconf/internal/core"
	"vconf/internal/telemetry"
)

func promText(t *testing.T, s *telemetry.Sink) string {
	t.Helper()
	var b strings.Builder
	if err := s.Registry().WriteProm(&b); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// TestDistSpansNestUnderParent drives a full coordinator/runner exchange
// with telemetry on and proves the causal chain the Chrome export renders:
// client dist:exchange spans parent under the caller's span (here a fake
// heal), with freeze/hop/commit phase children, while the server records
// dist:freeze roots with grant/await-commit/commit children — and the
// vconf_dist_* families are registered and fed.
func TestDistSpansNestUnderParent(t *testing.T) {
	sink := telemetry.New(telemetry.Config{})
	coord, pn := pipeCoordinator(t, 21, Config{Telemetry: sink})

	cfg := core.DefaultConfig(21)
	cfg.MeanCountdownS = 0.001
	r, err := NewRunner(coord.ev, 0, cfg)
	if err != nil {
		t.Fatal(err)
	}
	r.Telemetry = sink
	heal := sink.StartRoot("heal", "fault", 0)
	r.ParentSpan = heal

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	hops, err := r.Run(ctx, pn.Dial, 3)
	if err != nil {
		t.Fatal(err)
	}
	if hops != 3 {
		t.Fatalf("hops = %d, want 3", hops)
	}
	heal.EndArg(int64(hops))
	coord.Close() // drain handlers so the last server spans are recorded

	byID := map[uint64]telemetry.SpanRecord{}
	children := map[uint64][]telemetry.SpanRecord{}
	counts := map[string]int{}
	for _, sp := range sink.Spans().Items() {
		byID[sp.ID] = sp
		children[sp.Parent] = append(children[sp.Parent], sp)
		counts[sp.Name]++
	}

	if counts["dist:exchange"] != hops {
		t.Fatalf("dist:exchange spans = %d, want %d", counts["dist:exchange"], hops)
	}
	for _, sp := range byID {
		if sp.Name != "dist:exchange" {
			continue
		}
		if sp.Parent != heal.ID() {
			t.Fatalf("exchange span parented to %d, want heal %d", sp.Parent, heal.ID())
		}
		phases := map[string]bool{}
		for _, ch := range children[sp.ID] {
			phases[ch.Name] = true
		}
		for _, want := range []string{"freeze", "hop", "commit"} {
			if !phases[want] {
				t.Fatalf("exchange %d missing %q child (has %v)", sp.ID, want, phases)
			}
		}
	}

	if counts["dist:freeze"] != hops {
		t.Fatalf("dist:freeze spans = %d, want %d", counts["dist:freeze"], hops)
	}
	for _, sp := range byID {
		if sp.Name != "dist:freeze" {
			continue
		}
		if sp.Track != distServerLane {
			t.Fatalf("server span on track %d, want %d", sp.Track, distServerLane)
		}
		phases := map[string]bool{}
		for _, ch := range children[sp.ID] {
			phases[ch.Name] = true
		}
		for _, want := range []string{"grant", "await-commit", "commit"} {
			if !phases[want] {
				t.Fatalf("freeze %d missing %q child (has %v)", sp.ID, want, phases)
			}
		}
	}

	text := promText(t, sink)
	if !strings.Contains(text, "vconf_dist_freeze_ns") {
		t.Fatal("vconf_dist_freeze_ns not exposed")
	}
	if strings.Contains(text, "vconf_dist_freeze_ns_count 0\n") {
		t.Fatal("freeze histogram never observed a hold")
	}
}

// TestDistRetryCounter pins vconf_dist_retries_total: a peer that dies on
// every attempt makes the runner retry MaxAttempts-1 times, each one
// counted.
func TestDistRetryCounter(t *testing.T) {
	ev, _ := distStack(t, 22)
	pn, _ := killingNet(t)

	sink := telemetry.New(telemetry.Config{})
	cfg := core.DefaultConfig(22)
	cfg.MeanCountdownS = 0.001
	r, err := NewRunner(ev, 0, cfg)
	if err != nil {
		t.Fatal(err)
	}
	r.MaxAttempts = 3
	r.BackoffBase = time.Millisecond
	r.BackoffMax = 4 * time.Millisecond
	r.Telemetry = sink

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if _, err := r.Run(ctx, pn.Dial, 1); err == nil {
		t.Fatal("runner succeeded against a peer that dies on every attempt")
	}
	if text := promText(t, sink); !strings.Contains(text, "vconf_dist_retries_total 2") {
		t.Fatalf("retries counter missing or wrong:\n%s", grepLines(text, "vconf_dist_"))
	}
}

// TestDistAbandonCounter pins vconf_dist_abandons_total: a raw peer that
// crashes between GRANTED and COMMIT registers one abandon on the metric
// alongside Stats().Abandons.
func TestDistAbandonCounter(t *testing.T) {
	sink := telemetry.New(telemetry.Config{})
	coord, pn := pipeCoordinator(t, 23, Config{Telemetry: sink})

	a, adec, aenc := rawConn(t, pn)
	freezeGranted(t, adec, aenc, 0)
	a.Close()

	waitFor(t, "abandon accounting", func() bool { return coord.Stats().Abandons == 1 })
	if text := promText(t, sink); !strings.Contains(text, "vconf_dist_abandons_total 1") {
		t.Fatalf("abandon counter missing or wrong:\n%s", grepLines(text, "vconf_dist_"))
	}
}

// grepLines filters prom text to the lines containing sub, for failure
// messages.
func grepLines(text, sub string) string {
	var out []string
	for _, l := range strings.Split(text, "\n") {
		if strings.Contains(l, sub) {
			out = append(out, l)
		}
	}
	return strings.Join(out, "\n")
}
