package telemetry

import (
	"bytes"
	"os"
	"regexp"
	"strings"
	"testing"
)

// TestMetricCatalogueMatchesREADME is the drift guard between the README's
// metric catalogue and the families a fully-configured sink actually
// registers. Both directions: every exported family must be documented
// (exactly, or covered by a `vconf_foo_*` wildcard), and every documented
// name must exist.
func TestMetricCatalogueMatchesREADME(t *testing.T) {
	raw, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	tokens := regexp.MustCompile(`vconf_[a-z0-9_*]+`).FindAllString(string(raw), -1)
	exact := map[string]bool{}
	var prefixes []string
	for _, tok := range tokens {
		if strings.HasSuffix(tok, "*") {
			prefixes = append(prefixes, strings.TrimSuffix(tok, "*"))
		} else {
			exact[tok] = true
		}
	}

	// A sink with every subsystem on registers the full catalogue up front.
	s := New(Config{
		Regions:      2,
		Classes:      []string{"interactive", "broadcast"},
		SampleEveryS: 1,
		SLO: []SLORule{{
			Name: "availability", Kind: RuleAvailability, Budget: 0.01,
		}},
	})
	var buf bytes.Buffer
	if err := s.Registry().WriteProm(&buf); err != nil {
		t.Fatal(err)
	}
	registered := map[string]bool{}
	for _, line := range strings.Split(buf.String(), "\n") {
		if rest, ok := strings.CutPrefix(line, "# TYPE "); ok {
			registered[strings.Fields(rest)[0]] = true
		}
	}
	if len(registered) == 0 {
		t.Fatal("no # TYPE lines in the Prometheus exposition")
	}

	covered := func(name string) bool {
		if exact[name] {
			return true
		}
		for _, p := range prefixes {
			if strings.HasPrefix(name, p) {
				return true
			}
		}
		return false
	}
	for name := range registered {
		if !covered(name) {
			t.Errorf("registered family %s is missing from README.md's catalogue", name)
		}
	}
	for name := range exact {
		if !registered[name] {
			t.Errorf("README.md documents %s, but no configured sink registers it", name)
		}
	}
	for _, p := range prefixes {
		hit := false
		for name := range registered {
			if strings.HasPrefix(name, p) {
				hit = true
				break
			}
		}
		if !hit {
			t.Errorf("README.md wildcard %s* matches no registered family", p)
		}
	}
}
