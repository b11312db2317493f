package cost

import (
	"vconf/internal/assign"
	"vconf/internal/model"
)

// Hooks that let this package's external tests read the test-side
// reference (dense_ref_test.go).

// DenseSessionLoad is the reference load of session s, one fleet-sized
// vector per component.
func DenseSessionLoad(p Params, a *assign.Assignment, s model.SessionID) (down, up, inter []float64, tasks []int) {
	sl := sessionLoadDense(p, a, s)
	return sl.Down, sl.Up, sl.Inter, sl.Tasks
}

// DenseReportSession is ReportSession on the reference.
func DenseReportSession(e *Evaluator, a *assign.Assignment, s model.SessionID) SessionReport {
	return reportSessionDense(e, a, s)
}
