package workload

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"runtime"
	"testing"

	"vconf/internal/model"
)

// batteryFleetDigest is the SHA-256 of D then H, row by row as little-endian
// float64 bits, for the 384-agent, 3 072-user fleet of the benchmark
// battery's wide_diurnal workload (fleet seed 1), H read through
// Scenario.H. A platform or compiler
// that rounds the delay synthesis differently fails here, loudly.
const batteryFleetDigest = "47c81146dc578b473fb3791dfc4fad44328e3d0d919da5c16304b8ebab572320"

// batteryFleet builds the wide_diurnal workload's 384 × 3 072 fleet.
func batteryFleet(t *testing.T) *model.Scenario {
	t.Helper()
	fc := DefaultFleetConfig(1)
	fc.NumAgents, fc.NumUsers = 384, 3072
	fc.MinSessionSize, fc.MaxSessionSize = 4, 6
	fc.Regions = 8
	fc.AgentBandwidthMbps, fc.AgentTranscodeSlots = 3000, 12
	sc, _, err := GenerateSyntheticFleetRegions(fc)
	if err != nil {
		t.Fatal(err)
	}
	return sc
}

func TestBatteryFleetMatricesDigest(t *testing.T) {
	sc := batteryFleet(t)
	h := sha256.New()
	var buf [8]byte
	put := func(v float64) {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
		h.Write(buf[:])
	}
	for _, row := range sc.DMS {
		for _, v := range row {
			put(v)
		}
	}
	for l := 0; l < sc.NumAgents(); l++ {
		for u := 0; u < sc.NumUsers(); u++ {
			put(sc.H(model.AgentID(l), model.UserID(u)))
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != batteryFleetDigest {
		t.Fatalf("battery fleet D/H digest = %s, want %s", got, batteryFleetDigest)
	}
}

// TestBatteryFleetLiveHeap: the battery fleet holds less than 4 MiB of live
// heap once built — D, the nearest-agent rows and what H is computed from,
// with no L×U matrix (which alone took 9 MiB).
func TestBatteryFleetLiveHeap(t *testing.T) {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	sc := batteryFleet(t)
	runtime.GC()
	runtime.ReadMemStats(&after)
	live := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	runtime.KeepAlive(sc)
	t.Logf("battery fleet live heap: %.2f MiB", float64(live)/(1<<20))
	if live >= 4<<20 {
		t.Fatalf("battery fleet holds %.2f MiB of live heap, want < 4 MiB", float64(live)/(1<<20))
	}
}
