package live

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"cup/internal/overlay"
	"cup/internal/wire"
)

// link moves protocol messages between the peers of one Network. The
// network owns every peer, inbox and goroutine; a link only carries
// messages, so a transport is one implementation of this interface.
type link interface {
	// attach connects a new peer (the next dense ID) before its
	// goroutine starts.
	attach(p *peer) error
	// send carries m from peer m.from to node to. It runs on the
	// sender's goroutine; an undeliverable message is dropped.
	send(to overlay.NodeID, m message)
	// retire disconnects a departed peer (§2.9).
	retire(p *peer)
	// hopDelay is the injected per-hop latency, zero when a hop costs
	// real I/O.
	hopDelay() time.Duration
	// close releases every resource the link holds.
	close()
}

// chanLink is the in-process link: a message reaches the receiver's
// inbox after the configured hop delay, on a runtime timer.
type chanLink struct {
	net   *Network
	delay time.Duration
}

func (l *chanLink) attach(*peer) error      { return nil }
func (l *chanLink) retire(*peer)            {}
func (l *chanLink) hopDelay() time.Duration { return l.delay }
func (l *chanLink) close()                  {}

// send delivers m after the per-hop delay. Deliveries racing a Close are
// dropped, mirroring a network partition at shutdown; sends to a
// departed peer are dropped as in-flight losses (§2.9).
func (l *chanLink) send(to overlay.NodeID, m message) {
	time.AfterFunc(l.delay, func() {
		if p := l.net.peerAt(to); p != nil {
			p.deliver(m)
		}
	})
}

// tcpLink carries messages as wire-encoded frames over loopback TCP:
// every peer owns a listener, and each sender dials persistent
// connections to its neighbors on first use. This is the deployment
// shape the paper describes — two logical channels per neighbor —
// expressed as sockets.
type tcpLink struct {
	mu   sync.RWMutex // guards every field below
	ends []*tcpEnd    // indexed by node ID
	// held is the listener count reserved against the shared port
	// budget and open the count actually bound: the constructor
	// reserves the initial peers up front, a join reserves one more,
	// and a departure or Close returns theirs.
	held, open int
	closed     bool
}

// tcpEnd is one peer's socket state.
type tcpEnd struct {
	ln   net.Listener
	addr string
	mu   sync.Mutex // guards conns
	// conns are the lazily dialed outbound connections, nil once the
	// end is shut so a retired peer never redials.
	conns map[overlay.NodeID]net.Conn
}

var errLinkClosed = errors.New("live: tcp link closed")

// newTCPLink reserves listeners for the initial nodes against the port
// budget, failing fast when the budget cannot cover them.
func newTCPLink(nodes int) (*tcpLink, error) {
	if err := acquirePorts(nodes); err != nil {
		return nil, err
	}
	return &tcpLink{held: nodes, ends: make([]*tcpEnd, 0, nodes)}, nil
}

// attach binds p's listener and starts accepting connections for it.
func (l *tcpLink) attach(p *peer) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return errLinkClosed
	}
	if l.open == l.held {
		if err := acquirePorts(1); err != nil {
			return err
		}
		l.held++
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		l.held--
		releasePorts(1)
		return fmt.Errorf("live: listen: %w", err)
	}
	l.ends = append(l.ends, &tcpEnd{
		ln:    ln,
		addr:  ln.Addr().String(),
		conns: make(map[overlay.NodeID]net.Conn),
	})
	l.open++
	p.net.wg.Add(1)
	go acceptFrames(p, ln)
	return nil
}

// retire shuts a departed peer's sockets: dials to it fail, and its
// budget reservation returns to the pool.
func (l *tcpLink) retire(p *peer) {
	l.mu.Lock()
	if !l.closed {
		l.open--
		l.held--
		releasePorts(1)
	}
	e := l.ends[p.id]
	l.mu.Unlock()
	e.shut()
}

// hopDelay is zero: hops cost real loopback round trips, not an
// injected delay.
func (l *tcpLink) hopDelay() time.Duration { return 0 }

// close shuts every listener and connection and releases the budget
// reservation.
func (l *tcpLink) close() {
	l.mu.Lock()
	releasePorts(l.held)
	l.held, l.open, l.closed = 0, 0, true
	ends := l.ends
	l.mu.Unlock()
	for _, e := range ends {
		e.shut()
	}
}

func (l *tcpLink) end(id overlay.NodeID) *tcpEnd {
	l.mu.RLock()
	defer l.mu.RUnlock()
	if int(id) < 0 || int(id) >= len(l.ends) {
		return nil
	}
	return l.ends[id]
}

// send writes m as a frame on the sender's persistent connection to
// node to, synchronously on the sending peer's goroutine. Failures drop
// the message and the connection — CUP tolerates lost updates by
// falling back to expiration (§2.8), and a lost query is re-issued by
// the client. A departed peer's listener is closed, so frames to it
// fail the dial and drop, mirroring §2.9 in-flight losses.
func (l *tcpLink) send(to overlay.NodeID, m message) {
	from, target := l.end(m.from), l.end(to)
	if from == nil || target == nil {
		return
	}
	conn, err := from.connTo(m.from, to, target.addr)
	if err != nil {
		return
	}
	if err := wire.WriteFrame(conn, toWire(m)); err != nil {
		from.mu.Lock()
		if from.conns[to] == conn {
			delete(from.conns, to)
		}
		from.mu.Unlock()
		conn.Close()
	}
}

// connTo returns the end's connection to node to, dialing addr and
// introducing itself as self on first use.
func (e *tcpEnd) connTo(self, to overlay.NodeID, addr string) (net.Conn, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if c, ok := e.conns[to]; ok {
		return c, nil
	}
	if e.conns == nil {
		return nil, errLinkClosed
	}
	c, err := net.DialTimeout("tcp", addr, 2*time.Second)
	if err != nil {
		return nil, err
	}
	if err := wire.WriteFrame(c, wire.Hello{From: self}); err != nil {
		c.Close()
		return nil, err
	}
	e.conns[to] = c
	return c, nil
}

// shut closes the end's listener and outbound connections. It is
// idempotent.
func (e *tcpEnd) shut() {
	e.ln.Close()
	e.mu.Lock()
	for _, c := range e.conns {
		c.Close()
	}
	e.conns = nil
	e.mu.Unlock()
}

// acceptFrames takes inbound connections to p and spawns a frame reader
// for each; it returns when the listener closes.
func acceptFrames(p *peer, ln net.Listener) {
	defer p.net.wg.Done()
	for {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		p.net.wg.Add(1)
		go readFrames(p, conn)
	}
}

// readFrames decodes frames off one connection into p's inbox until the
// connection fails, p departs, or the network closes.
func readFrames(p *peer, conn net.Conn) {
	defer p.net.wg.Done()
	defer conn.Close()
	for {
		f, err := wire.ReadFrame(conn)
		if err != nil {
			return
		}
		m, ok := fromWire(f)
		if !ok {
			continue // a Hello only identifies the connection
		}
		if !p.deliver(m) {
			return
		}
	}
}

// toWire and fromWire convert between the network's message and the
// wire codec at the socket boundary.
func toWire(m message) wire.Message {
	switch m.kind {
	case msgQuery:
		return wire.Query{From: m.from, Key: m.key, QueryID: m.qid}
	case msgUpdate:
		return wire.UpdateMsg{From: m.from, Update: *m.update}
	default:
		return wire.ClearBit{From: m.from, Key: m.key}
	}
}

func fromWire(f wire.Message) (message, bool) {
	switch v := f.(type) {
	case wire.Query:
		return message{kind: msgQuery, from: v.From, key: v.Key, qid: v.QueryID}, true
	case wire.UpdateMsg:
		u := v.Update
		return message{kind: msgUpdate, from: v.From, update: &u}, true
	case wire.ClearBit:
		return message{kind: msgClearBit, from: v.From, key: v.Key}, true
	}
	return message{}, false
}
