package dist

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"net"
	"sync"
	"testing"
)

// pipeNet is an in-memory network with one listener: Dial hands the server
// end of a fresh net.Pipe to Accept and returns the client end. net.Pipe
// honours deadlines, so FreezeHold behaves on it as it does on TCP.
type pipeNet struct {
	conns chan net.Conn
	done  chan struct{}
	once  sync.Once
}

var errPipeRefused = errors.New("pipe: connection refused")

func newPipeNet() *pipeNet {
	return &pipeNet{conns: make(chan net.Conn), done: make(chan struct{})}
}

func (p *pipeNet) Accept() (net.Conn, error) {
	select {
	case c := <-p.conns:
		return c, nil
	case <-p.done:
		return nil, net.ErrClosed
	}
}

func (p *pipeNet) Close() error {
	p.once.Do(func() { close(p.done) })
	return nil
}

func (p *pipeNet) Addr() net.Addr { return pipeAddr{} }

// Dial blocks until the listener accepts, and fails once it is closed.
func (p *pipeNet) Dial(ctx context.Context) (net.Conn, error) {
	client, server := net.Pipe()
	err := errPipeRefused
	select {
	case p.conns <- server:
		return client, nil
	case <-p.done:
	case <-ctx.Done():
		err = ctx.Err()
	}
	client.Close()
	server.Close()
	return nil, err
}

type pipeAddr struct{}

func (pipeAddr) Network() string { return "pipe" }
func (pipeAddr) String() string  { return "pipe" }

// pipeCoordinator starts a coordinator on a fresh pipe network, closed when
// the test ends.
func pipeCoordinator(t testing.TB, seed int64, cfg Config) (*Coordinator, *pipeNet) {
	t.Helper()
	ev, start := distStack(t, seed)
	pn := newPipeNet()
	coord, err := NewCoordinator(ev, start, pn, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { coord.Close() })
	return coord, pn
}

// rawConn opens a raw protocol connection for hand-driven exchanges.
func rawConn(t testing.TB, pn *pipeNet) (net.Conn, *json.Decoder, *json.Encoder) {
	t.Helper()
	c, err := pn.Dial(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return c, json.NewDecoder(bufio.NewReader(c)), json.NewEncoder(c)
}
