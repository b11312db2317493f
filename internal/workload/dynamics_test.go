package workload

import (
	"math"
	"reflect"
	"testing"
)

// diurnalTestConfig is a 2-region follow-the-sun setup: region 0 peaks at
// t = 0, region 1 half a day later, amplitude near full.
func diurnalTestConfig(seed int64) ChurnConfig {
	const numSessions = 40
	regions := make([]int, numSessions)
	for s := range regions {
		regions[s] = s % 2
	}
	return ChurnConfig{
		Seed:            seed,
		HorizonS:        4000,
		ArrivalRatePerS: 0.5,
		MeanHoldS:       30,
		NumSessions:     numSessions,
		Diurnal: &DiurnalConfig{
			DayS:          4000,
			Amplitude:     0.9,
			PeakFrac:      FollowTheSunPeaks(2),
			SessionRegion: regions,
		},
	}
}

func TestDiurnalValidation(t *testing.T) {
	base := diurnalTestConfig(1)
	cases := []func(*ChurnConfig){
		func(c *ChurnConfig) { c.Diurnal.DayS = 0 },
		func(c *ChurnConfig) { c.Diurnal.Amplitude = -0.1 },
		func(c *ChurnConfig) { c.Diurnal.Amplitude = 1.5 },
		func(c *ChurnConfig) { c.Diurnal.PeakFrac = nil },
		func(c *ChurnConfig) { c.Diurnal.SessionRegion = c.Diurnal.SessionRegion[:3] },
		func(c *ChurnConfig) { c.Diurnal.SessionRegion[7] = 9 },
	}
	for i, mutate := range cases {
		cfg := base
		d := *base.Diurnal
		d.SessionRegion = append([]int(nil), base.Diurnal.SessionRegion...)
		cfg.Diurnal = &d
		mutate(&cfg)
		if _, err := PoissonSchedule(cfg); err == nil {
			t.Fatalf("case %d: invalid diurnal config accepted", i)
		}
	}
	if _, err := PoissonSchedule(base); err != nil {
		t.Fatalf("valid diurnal config rejected: %v", err)
	}
}

func TestDiurnalDeterministicAndWellFormed(t *testing.T) {
	cfg := diurnalTestConfig(7)
	a, err := PoissonSchedule(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := PoissonSchedule(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("identical configs generated different diurnal schedules")
	}
	if len(a) == 0 {
		t.Fatal("empty diurnal schedule")
	}
	// Well-formedness: time-ordered, sessions in range, departures only for
	// live sessions, arrivals only for idle ones.
	active := make(map[int]bool)
	last := 0.0
	for _, e := range a {
		if e.TimeS < last || e.TimeS >= cfg.HorizonS {
			t.Fatalf("event out of time order or past horizon: %+v", e)
		}
		last = e.TimeS
		if e.Session < 0 || e.Session >= cfg.NumSessions {
			t.Fatalf("event session out of range: %+v", e)
		}
		switch e.Kind {
		case EventArrival:
			if active[e.Session] {
				t.Fatalf("arrival for active session: %+v", e)
			}
			active[e.Session] = true
		case EventDeparture:
			if !active[e.Session] {
				t.Fatalf("departure for idle session: %+v", e)
			}
			active[e.Session] = false
		default:
			t.Fatalf("invalid event kind: %+v", e)
		}
	}
}

// TestDiurnalFollowTheSun checks the modulation does what it says: each
// region's arrivals concentrate in the half-day centered on its peak. With
// amplitude 0.9 the peak-half/trough-half rate ratio is (1+0.9·2/π)/(1−0.9·2/π)
// ≈ 3.6, so a 1.8× observed ratio is a conservative assertion for a seeded
// schedule.
func TestDiurnalFollowTheSun(t *testing.T) {
	cfg := diurnalTestConfig(11)
	events, err := PoissonSchedule(cfg)
	if err != nil {
		t.Fatal(err)
	}
	day := cfg.Diurnal.DayS
	peakCount := [2]int{}
	troughCount := [2]int{}
	total := 0
	for _, e := range events {
		if e.Kind != EventArrival {
			continue
		}
		total++
		r := cfg.Diurnal.SessionRegion[e.Session]
		// Phase distance from the region's peak, in day fractions.
		phase := math.Mod(e.TimeS/day-cfg.Diurnal.PeakFrac[r]+1.5, 1) - 0.5
		if math.Abs(phase) < 0.25 {
			peakCount[r]++
		} else {
			troughCount[r]++
		}
	}
	if total < 200 {
		t.Fatalf("too few arrivals (%d) for a meaningful modulation check", total)
	}
	for r := 0; r < 2; r++ {
		if peakCount[r] < 2*troughCount[r] {
			t.Fatalf("region %d arrivals not follow-the-sun: peak-half %d, trough-half %d",
				r, peakCount[r], troughCount[r])
		}
	}
}

// TestDiurnalLegacyPathUntouched pins that a nil Diurnal still routes
// through the homogeneous generator (determinism + shape).
func TestDiurnalLegacyPathUntouched(t *testing.T) {
	cfg := diurnalTestConfig(13)
	cfg.Diurnal = nil
	a, err := PoissonSchedule(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := PoissonSchedule(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("homogeneous schedule not deterministic")
	}
}

// TestDiurnalZeroSessionRegion pins the zero-pool guard: a region
// configured with no sessions (w_r = 0) is excluded from the candidate draw
// entirely — including the float-rounding fallback — and the schedule stays
// well-formed with no NaN arithmetic anywhere.
func TestDiurnalZeroSessionRegion(t *testing.T) {
	cfg := diurnalTestConfig(9)
	// Three regions, but every session maps to regions 0 and 1: region 2
	// has an empty pool and zero share.
	cfg.Diurnal.PeakFrac = FollowTheSunPeaks(3)
	events, err := PoissonSchedule(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) == 0 {
		t.Fatal("empty schedule")
	}
	for i, e := range events {
		if math.IsNaN(e.TimeS) || math.IsInf(e.TimeS, 0) {
			t.Fatalf("event %d has invalid time %v", i, e.TimeS)
		}
		if r := cfg.Diurnal.SessionRegion[e.Session]; r == 2 {
			t.Fatalf("event %d drew session %d from the empty region", i, e.Session)
		}
	}

	// The share table must exclude zero-pool regions outright, and the
	// fallback draw (u beyond the last cumulative share, reachable through
	// float rounding) must land on a drawable region — never the empty one.
	poolSize := []int{1, 1, 1, 1, 1, 1, 1, 0}
	drawRegions, cumShare := diurnalShares(poolSize, 7)
	if want := []int{0, 1, 2, 3, 4, 5, 6}; !reflect.DeepEqual(drawRegions, want) {
		t.Fatalf("drawRegions = %v, want %v", drawRegions, want)
	}
	if last := cumShare[len(cumShare)-1]; last >= 1 {
		t.Fatalf("fixture does not exercise the rounding gap: final share %v", last)
	}
	if r := pickRegion(drawRegions, cumShare, math.Nextafter(1, 0)); r != 6 {
		t.Fatalf("fallback draw picked region %d, want the last drawable region 6", r)
	}
	// Interior zero-pool region: shares are flat across it, so it is
	// unreachable for every u.
	drawRegions, cumShare = diurnalShares([]int{2, 0, 2}, 4)
	if want := []int{0, 2}; !reflect.DeepEqual(drawRegions, want) {
		t.Fatalf("drawRegions = %v, want %v", drawRegions, want)
	}
	for _, u := range []float64{0, 0.25, 0.499, 0.5, 0.75, 0.999, math.Nextafter(1, 0)} {
		if r := pickRegion(drawRegions, cumShare, u); r == 1 {
			t.Fatalf("u=%v drew the zero-session region", u)
		}
	}

	// RegionRate must be total (flat curve) even on a hand-built config
	// with a non-positive day length, rather than dividing by zero.
	d := DiurnalConfig{DayS: 0, Amplitude: 0.5, PeakFrac: []float64{0}}
	if r := d.RegionRate(0, 123); r != 1 || math.IsNaN(r) {
		t.Fatalf("RegionRate with DayS=0 = %v, want flat 1", r)
	}
}

// TestDiurnalPopulatedRegionsUnchanged pins that the zero-pool guard does
// not perturb fully-populated configurations: the share table is identical
// to the pre-guard construction, so existing seeds replay byte-identical
// schedules.
func TestDiurnalPopulatedRegionsUnchanged(t *testing.T) {
	poolSize := []int{3, 1, 4}
	drawRegions, cumShare := diurnalShares(poolSize, 8)
	if want := []int{0, 1, 2}; !reflect.DeepEqual(drawRegions, want) {
		t.Fatalf("drawRegions = %v, want %v", drawRegions, want)
	}
	acc := 0.0
	for r, n := range poolSize {
		acc += float64(n) / 8
		if cumShare[r] != acc {
			t.Fatalf("cumShare[%d] = %v, want %v", r, cumShare[r], acc)
		}
	}
}

func TestGenerateSyntheticFleetRegions(t *testing.T) {
	fc := DefaultFleetConfig(3)
	fc.NumAgents = 16
	fc.NumUsers = 60
	fc.Regions = 4
	sc, regions, err := GenerateSyntheticFleetRegions(fc)
	if err != nil {
		t.Fatal(err)
	}
	if len(regions) != sc.NumSessions() {
		t.Fatalf("regions cover %d of %d sessions", len(regions), sc.NumSessions())
	}
	seen := map[int]bool{}
	for s, r := range regions {
		if r < 0 || r >= fc.Regions {
			t.Fatalf("session %d homed in region %d outside [0, %d)", s, r, fc.Regions)
		}
		seen[r] = true
	}
	if len(seen) < 2 {
		t.Fatalf("population-weighted homing collapsed to %d region(s)", len(seen))
	}
	// The regional scenario itself must be identical to the regions-less
	// entry point (same seed, same RNG draws).
	sc2, err := GenerateSyntheticFleet(fc)
	if err != nil {
		t.Fatal(err)
	}
	if sc.NumSessions() != sc2.NumSessions() || sc.NumUsers() != sc2.NumUsers() {
		t.Fatal("GenerateSyntheticFleet diverged from GenerateSyntheticFleetRegions")
	}
	// Legacy uniform mode: all zeros.
	fc.Regions = 0
	_, regions, err = GenerateSyntheticFleetRegions(fc)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range regions {
		if r != 0 {
			t.Fatal("uniform fleet reported a nonzero home region")
		}
	}
}

// TestChurnConfigRejectsNonFinite: NaN or −Inf in any float field is
// rejected, and so is +Inf where it would make the stream endless (horizon,
// rate) or meaningless (amplitude). The +Inf values that stay valid yield a
// finite stream.
func TestChurnConfigRejectsNonFinite(t *testing.T) {
	fields := []struct {
		name   string
		set    func(c *ChurnConfig, v float64)
		posInf bool // +Inf is a valid value
	}{
		{"horizon", func(c *ChurnConfig, v float64) { c.HorizonS = v }, false},
		{"rate", func(c *ChurnConfig, v float64) { c.ArrivalRatePerS = v }, false},
		{"hold", func(c *ChurnConfig, v float64) { c.MeanHoldS = v }, true},
		{"day", func(c *ChurnConfig, v float64) { c.Diurnal.DayS = v }, true},
		{"amplitude", func(c *ChurnConfig, v float64) { c.Diurnal.Amplitude = v }, false},
	}
	for _, f := range fields {
		for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
			cfg := diurnalTestConfig(1)
			d := *cfg.Diurnal
			cfg.Diurnal = &d
			f.set(&cfg, v)
			events, err := PoissonSchedule(cfg)
			if f.posInf && v > 0 {
				if err != nil {
					t.Fatalf("%s = %v rejected: %v", f.name, v, err)
				}
				for _, e := range events {
					if math.IsNaN(e.TimeS) || math.IsInf(e.TimeS, 0) {
						t.Fatalf("%s = %v: event at %v", f.name, v, e.TimeS)
					}
				}
				continue
			}
			if err == nil {
				t.Fatalf("%s = %v accepted", f.name, v)
			}
		}
	}
}
