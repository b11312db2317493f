package workload

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"
)

// batteryFleetDigest is the SHA-256 of D then H, row by row as little-endian
// float64 bits, for the 384-agent, 3 072-user fleet of the benchmark
// battery's wide_diurnal workload (fleet seed 1). A platform or compiler
// that rounds the delay synthesis differently fails here, loudly.
const batteryFleetDigest = "47c81146dc578b473fb3791dfc4fad44328e3d0d919da5c16304b8ebab572320"

func TestBatteryFleetMatricesDigest(t *testing.T) {
	fc := DefaultFleetConfig(1)
	fc.NumAgents, fc.NumUsers = 384, 3072
	fc.MinSessionSize, fc.MaxSessionSize = 4, 6
	fc.Regions = 8
	fc.AgentBandwidthMbps, fc.AgentTranscodeSlots = 3000, 12
	sc, _, err := GenerateSyntheticFleetRegions(fc)
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	var buf [8]byte
	for _, m := range [][][]float64{sc.DMS, sc.HMS} {
		for _, row := range m {
			for _, v := range row {
				binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
				h.Write(buf[:])
			}
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != batteryFleetDigest {
		t.Fatalf("battery fleet D/H digest = %s, want %s", got, batteryFleetDigest)
	}
}
