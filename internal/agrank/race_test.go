//go:build race

package agrank

// raceEnabled reports a race-detector build, where sync.Pool drops a share
// of what is put back, so pooled scratches are reallocated at random.
const raceEnabled = true
