package vconf

import (
	"context"
	"net"

	"vconf/internal/dist"
)

// Coordinator owns the authoritative assignment state of a distributed
// deployment and serializes hops through the FREEZE/UNFREEZE protocol (see
// the internal/dist package documentation).
type Coordinator = dist.Coordinator

// SessionRunner executes one session's WAIT/HOP loop against a remote
// Coordinator.
type SessionRunner = dist.Runner

// NewCoordinator starts a coordinator listening on TCP addr ("127.0.0.1:0"
// selects a free port) with the given complete initial assignment.
func (s *Solver) NewCoordinator(a *Assignment, addr string) (*Coordinator, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	return dist.NewCoordinator(s.ev, a, ln, dist.Config{})
}

// DialTCP returns the dial function a SessionRunner's Run uses to reach a
// coordinator listening on TCP addr.
func DialTCP(addr string) func(context.Context) (net.Conn, error) {
	return func(ctx context.Context) (net.Conn, error) {
		return (&net.Dialer{}).DialContext(ctx, "tcp", addr)
	}
}

// NewSessionRunner builds the runner for one session, configured with the
// solver's β, objective scale, countdown and seed.
func (s *Solver) NewSessionRunner(session SessionID) (*SessionRunner, error) {
	return dist.NewRunner(s.ev, session, s.coreConfig())
}
