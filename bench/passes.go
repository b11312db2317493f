// The measured passes: set-up, the streaming pass (RunSource pulling as fast
// as it retires) and the synchronous pass (one HandleEvent at a time). Both
// are closed loops with one client and run with telemetry off.
package main

import (
	"fmt"
	"runtime"
	"time"

	"vconf/internal/assign"
	"vconf/internal/model"
	"vconf/internal/orchestrator"
	"vconf/internal/workload"
)

// timeSetup builds everything a pass needs from nothing — fleet, evaluator,
// sources, orchestrator — and returns how long that took.
func timeSetup(spec workloadSpec, seed int64, scale float64) (*fixture, time.Duration, error) {
	start := time.Now()
	f, err := newFixture(spec, seed, scale)
	if err != nil {
		return nil, 0, err
	}
	if _, err := f.newEngine(); err != nil {
		return nil, 0, err
	}
	orc, err := f.newOrchestrator(f.bootstrapper(), nil)
	if err != nil {
		return nil, 0, err
	}
	d := time.Since(start)
	orc.Close()
	return f, d, nil
}

// floorWindow is how many events one timing window of a pass covers. The
// repetitions of a pass replay the same events, so window by window the
// fastest repetition is the reading the host disturbed least (see floorOf).
const floorWindow = 5

// streamResult is one streaming pass.
type streamResult struct {
	wall   time.Duration
	events int
	// windowNs is the time between every floorWindow-th retired report.
	windowNs []float64
	stats    orchestrator.Stats
}

// runStream drives the production path: RunSource over the lazy engine.
func runStream(f *fixture) (streamResult, error) {
	var res streamResult
	eng, err := f.newEngine()
	if err != nil {
		return res, err
	}
	orc, err := f.newOrchestrator(f.bootstrapper(), nil)
	if err != nil {
		return res, err
	}
	defer orc.Close()
	runtime.GC()
	start := time.Now()
	mark := start
	err = orc.RunSource(eng, 0, func(orchestrator.EventReport) error {
		res.events++
		if res.events%floorWindow == 0 {
			now := time.Now()
			res.windowNs = append(res.windowNs, float64(now.Sub(mark).Nanoseconds()))
			mark = now
		}
		return nil
	})
	end := time.Now()
	res.wall = end.Sub(start)
	res.windowNs = append(res.windowNs, float64(end.Sub(mark).Nanoseconds()))
	if err != nil {
		return res, fmt.Errorf("stream pass: %w", err)
	}
	if err := orc.CheckInvariants(); err != nil {
		return res, fmt.Errorf("stream pass: %w", err)
	}
	res.stats = orc.Stats()
	return res, nil
}

// endState is the placement a synchronous pass ends in: what the quality
// metrics read and what the layer drivers run on.
type endState struct {
	a      *assign.Assignment
	active []model.SessionID
	scales []float64
}

// syncResult is one synchronous pass.
type syncResult struct {
	wall      time.Duration
	events    int
	stats     orchestrator.Stats
	objective float64
	// eventNs is every HandleEvent's wall time, in stream order; admitIdx
	// and healIdx index the arrival events (refused ones included) and the
	// capacity-reducing fault events in it.
	eventNs  []float64
	admitIdx []int
	healIdx  []int
	// phiSum/phiN accumulate Objective/ActiveSessions over retired reports.
	phiSum float64
	phiN   int
	// allocBytes and allocs are runtime.MemStats deltas over the pass.
	allocBytes uint64
	allocs     uint64
	end        endState
}

// reducesCapacity reports whether a fault event takes capacity away — the
// events healing latency is measured on.
func reducesCapacity(e workload.Event) bool {
	switch e.Kind {
	case workload.EventAgentFail, workload.EventRegionOutage:
		return true
	case workload.EventCapacityDegrade:
		return e.Scale < 1
	}
	return false
}

// runSync handles the same event stream one HandleEvent at a time, timing
// each call from the caller's side.
func runSync(f *fixture) (syncResult, error) {
	var res syncResult
	eng, err := f.newEngine()
	if err != nil {
		return res, err
	}
	orc, err := f.newOrchestrator(f.bootstrapper(), nil)
	if err != nil {
		return res, err
	}
	defer orc.Close()
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	for {
		e, ok := eng.Next()
		if !ok {
			break
		}
		t0 := time.Now()
		rep, err := orc.HandleEvent(e)
		ns := float64(time.Since(t0).Nanoseconds())
		if err != nil {
			return res, fmt.Errorf("sync pass: event %d (%s): %w", res.events, e.Kind, err)
		}
		switch {
		case e.Kind == workload.EventArrival:
			res.admitIdx = append(res.admitIdx, res.events)
		case reducesCapacity(e):
			res.healIdx = append(res.healIdx, res.events)
		}
		res.eventNs = append(res.eventNs, ns)
		res.events++
		if rep.ActiveSessions > 0 {
			res.phiSum += rep.Objective / float64(rep.ActiveSessions)
			res.phiN++
		}
	}
	res.wall = time.Since(start)
	runtime.ReadMemStats(&after)
	if err := eng.Err(); err != nil {
		return res, fmt.Errorf("sync pass: %w", err)
	}
	if err := orc.CheckInvariants(); err != nil {
		return res, fmt.Errorf("sync pass: %w", err)
	}
	res.allocBytes = after.TotalAlloc - before.TotalAlloc
	res.allocs = after.Mallocs - before.Mallocs
	res.stats = orc.Stats()
	res.objective = orc.Objective()
	res.end = endState{a: orc.Assignment(), active: orc.ActiveSessions(), scales: orc.CapacityScales()}
	return res, nil
}
