//go:build !race

package agrank

const raceEnabled = false
