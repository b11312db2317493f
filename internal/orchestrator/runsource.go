package orchestrator

// RunSource is the one ingestion loop: the orchestrator pulls events one at
// a time from a sim.EventSource (an internal/sim engine over lazy
// generators, a trace replayer, or Run's slice) and streams finished
// reports to a callback — memory stays O(in-flight events) however long the
// virtual horizon. For the same seeds, a lazy engine and the drained slice of the
// same schedule produce the same assignments, objective bits, Stats counters and
// decision-record stream (runsource_test.go).

import (
	"fmt"
	"math"
	"sync"

	"vconf/internal/sim"
)

// RunSource processes events pulled from src in order until exhaustion,
// admitting up to Config.MaxInFlight events, in order, ahead of the one
// re-optimization running; at MaxInFlight 1 it pulls each event once the
// one before it has retired, so no admission stalls. Each finished report —
// churn and fault alike — is passed to onReport (nil to discard) in
// schedule order from the scheduler's retiring goroutine, possibly beside
// a later event's admission. onReport stops the stream by returning an
// error, which RunSource returns, or by calling Close: RunSource then stops
// at its next submission, with pipeline.ErrClosed. An event's admission
// error also stops pulling and surfaces from RunSource. A fault is admitted
// only once every earlier event has retired (the scheduler holds an event
// without a trigger session until nothing is in flight), because healing
// rewrites sessions that in-flight events may own. With a runtime attached,
// the data plane is ticked to each event's time as it is admitted and to
// horizonS after the final drain.
func (o *Orchestrator) RunSource(src sim.EventSource, horizonS float64, onReport func(EventReport) error) error {
	var cbMu sync.Mutex
	var cbErr error
	emit := func(rep EventReport) {
		cbMu.Lock()
		defer cbMu.Unlock()
		if cbErr == nil && onReport != nil {
			cbErr = onReport(rep)
		}
	}
	takeCbErr := func() error {
		cbMu.Lock()
		defer cbMu.Unlock()
		err := cbErr
		cbErr = nil
		return err
	}
	prev := math.Inf(-1)
	for {
		// A failed admission discards every queued event: stop pulling.
		if o.pipe.Err() != nil {
			return o.pipe.Drain()
		}
		e, ok := src.Next()
		if !ok {
			break
		}
		if e.TimeS < prev {
			o.pipe.Drain()
			return fmt.Errorf("orchestrator: out-of-order event at t=%v after t=%v", e.TimeS, prev)
		}
		prev = e.TimeS
		// Worker/runtime and report-sink errors surface mid-stream, not only
		// after the drain.
		if err := o.takeRefErr(); err != nil {
			o.pipe.Drain()
			return err
		}
		if err := takeCbErr(); err != nil {
			o.pipe.Drain()
			return err
		}
		_, retired, err := o.submitEvent(e, emit)
		if err != nil {
			if derr := o.pipe.Drain(); derr != nil {
				err = derr
			}
			return err
		}
		if o.cfg.MaxInFlight == 1 {
			// Pulling ahead admits nothing sooner here; it only makes the
			// next event's stall flag depend on goroutine timing.
			<-retired
		}
	}
	if err := o.pipe.Drain(); err != nil {
		return err
	}
	if err := src.Err(); err != nil {
		return err
	}
	o.mu.Lock()
	err := o.tickLocked(horizonS)
	o.mu.Unlock()
	if err != nil {
		return err
	}
	if err := o.takeRefErr(); err != nil {
		return err
	}
	return takeCbErr()
}
