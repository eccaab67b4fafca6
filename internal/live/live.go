// Package live runs CUP as a real concurrent system: every peer is a
// goroutine with its own inbox, and the per-hop network is either Go
// channels with a wall-clock delay (NewNetwork) or wire-encoded frames
// over loopback TCP sockets (NewTCPNetwork). It drives exactly the same
// protocol state machine (internal/cup.Node) as the discrete-event
// simulator, so the simulated protocol and the deployable one cannot
// diverge.
//
// There is one network type. Everything the paper's node model
// describes — "every node maintains two logical channels per neighbor"
// — lives in Network and its peers: inboxes, lookups, replica events,
// membership churn, scenarios. Only moving a message from one peer to
// another differs between the transports, and that sits behind the
// small link seam in link.go.
//
// This is the runtime the examples and cmd/cuplive use.
package live

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"cup/internal/cache"
	"cup/internal/cup"
	"cup/internal/overlay"
	"cup/internal/sim"
)

// Stats aggregates network-wide message counts.
type Stats struct {
	QueryMsgs    uint64
	UpdateMsgs   uint64
	ClearBitMsgs uint64
	// Joins and Leaves count §2.9 runtime membership events.
	Joins  uint64
	Leaves uint64
}

// Network hosts a set of CUP peers over an overlay, connected by one
// link (channels or TCP).
type Network struct {
	ov     *lockedOverlay
	router *cup.OverlayRouter
	cfg    Config
	link   link
	start  time.Time
	// peersMu guards nodes: membership churn appends new peer slots while
	// traffic pumps and deliveries read them.
	peersMu sync.RWMutex
	nodes   []*peer
	stats   Stats
	wg      sync.WaitGroup
	closed  chan struct{}
	once    sync.Once
}

type msgKind uint8

const (
	msgQuery msgKind = iota
	msgUpdate
	msgClearBit
	msgControl
)

// message is one inbox element. Every peer's inbox is allocated at its
// full depth up front, so the element stays small: the rarely sent
// update payload sits behind a pointer instead of inline.
type message struct {
	kind   msgKind
	from   overlay.NodeID
	key    overlay.Key
	qid    uint64
	update *cup.Update // msgUpdate
	ctrl   func(*peer) // msgControl: run on the peer's goroutine
}

// peer is one goroutine-hosted protocol node.
type peer struct {
	id    overlay.NodeID
	node  *cup.Node
	inbox chan message
	net   *Network
	// waiters holds the local lookups awaiting an answer, one buffered(1)
	// reply channel per open client connection, so responses fan out to
	// every waiter and cancelled lookups can deregister instead of
	// leaking.
	waiters map[overlay.Key][]chan []cache.Entry
	// gone closes when the peer departs (§2.9): sends to it are dropped
	// as in-flight losses and lookups at it fail fast. The slot stays in
	// the nodes slice — IDs are dense and never reused.
	gone chan struct{}
	// departing is set on the peer's own goroutine by retireMember; the
	// loop observes it after the control message and switches to the
	// retired state.
	departing bool
}

// Config parameterizes a live network.
type Config struct {
	// Nodes is the overlay size.
	Nodes int
	// Overlay selects the routing substrate by its overlay-registry name:
	// "can" (default), "chord", or "kademlia".
	Overlay string
	// HopDelay is the wall-clock per-hop latency of the channel link
	// (default 1ms). The TCP link ignores it: hops cost real loopback
	// round trips.
	HopDelay time.Duration
	// Node is the per-node protocol configuration (default cup.Defaults()).
	Node cup.Config
	// Seed drives overlay construction.
	Seed int64
	// InboxDepth bounds each peer's mailbox (default 1024).
	InboxDepth int
	// Observer, when set, receives the protocol event stream from every
	// peer. It is called from peer goroutines concurrently and must be
	// safe for concurrent use (cup.Bus is).
	Observer cup.Observer
}

// withDefaults fills unset fields from the shared defaults table in
// internal/cup — the same table the simulator's Params defaulting uses,
// so the two runtimes cannot drift.
func (cfg Config) withDefaults() Config {
	if cfg.HopDelay == 0 {
		cfg.HopDelay = cup.DefaultLiveHopDelay
	}
	if cfg.Node.Policy == nil {
		cfg.Node = cup.Defaults()
	}
	if cfg.InboxDepth == 0 {
		cfg.InboxDepth = cup.DefaultInboxDepth
	}
	if cfg.Seed == 0 {
		cfg.Seed = cup.DefaultSeed
	}
	if cfg.Overlay == "" {
		cfg.Overlay = cup.DefaultOverlayKind
	}
	return cfg
}

// NewNetwork builds an overlay of cfg.Nodes peers (a CAN unless
// cfg.Overlay selects another registered substrate) joined by Go
// channels with cfg.HopDelay of wall-clock latency per hop, and starts
// one goroutine per peer. Callers must Close the network when done.
func NewNetwork(cfg Config) (*Network, error) {
	return newNetwork(cfg, func(n *Network) (link, error) {
		return &chanLink{net: n, delay: n.cfg.HopDelay}, nil
	})
}

// NewTCPNetwork builds the same network with every peer listening on a
// 127.0.0.1 ephemeral port: messages are wire-encoded frames over
// persistent connections. The listeners are drawn from the shared port
// budget (see budget.go), so concurrent networks fail fast instead of
// racing the kernel's ephemeral-port range; every error path releases
// the reservation. Close releases all sockets, goroutines, and the
// budget reservation.
func NewTCPNetwork(cfg Config) (*Network, error) {
	return newNetwork(cfg, func(n *Network) (link, error) {
		return newTCPLink(n.cfg.Nodes)
	})
}

// newNetwork is the one constructor behind both transports: it builds
// the overlay and the link, then attaches and starts every peer.
func newNetwork(cfg Config, newLink func(*Network) (link, error)) (*Network, error) {
	if cfg.Nodes <= 0 {
		return nil, fmt.Errorf("live: need at least one peer, got %d", cfg.Nodes)
	}
	cfg = cfg.withDefaults()
	// The overlay seed derivation is shared with the simulator, so the
	// same seed and options build the same topology on either transport.
	// The registry knows every kind: internal/cup's imports register them.
	sub, err := overlay.Build(cfg.Overlay, cfg.Nodes, cup.OverlaySeed(cfg.Seed))
	if err != nil {
		return nil, fmt.Errorf("live: %w", err)
	}
	ov := newLockedOverlay(sub, cfg.Overlay, cup.OverlaySeed(cfg.Seed)+1)
	n := &Network{
		ov:     ov,
		router: cup.NewOverlayRouter(ov),
		cfg:    cfg,
		start:  time.Now(),
		nodes:  make([]*peer, 0, cfg.Nodes),
		closed: make(chan struct{}),
	}
	// Memoized routes go stale under churn; the flag must be set before
	// any peer goroutine starts, since they read it without a lock.
	n.router.Dynamic = ov.dynamic() != nil
	l, err := newLink(n)
	if err != nil {
		return nil, err
	}
	n.link = l
	for i := 0; i < cfg.Nodes; i++ {
		if err := n.spawnMember(overlay.NodeID(i)); err != nil {
			n.Close()
			return nil, err
		}
	}
	return n, nil
}

// spawnMember constructs peer id (the next dense slot), attaches it to
// the link, and starts its goroutine.
func (n *Network) spawnMember(id overlay.NodeID) error {
	p := &peer{
		id:      id,
		node:    cup.NewNode(id, n.cfg.Node, n.router, n.now),
		inbox:   make(chan message, n.cfg.InboxDepth),
		net:     n,
		waiters: make(map[overlay.Key][]chan []cache.Entry),
		gone:    make(chan struct{}),
	}
	p.node.SetObserver(n.cfg.Observer)
	if err := n.link.attach(p); err != nil {
		return err
	}
	n.peersMu.Lock()
	n.nodes = append(n.nodes, p)
	n.peersMu.Unlock()
	n.wg.Add(1)
	go p.loop()
	return nil
}

// now maps wall time onto the protocol's virtual clock.
func (n *Network) now() sim.Time { return sim.Time(time.Since(n.start).Seconds()) }

// Now exposes the network clock (useful for constructing entry lifetimes).
func (n *Network) Now() sim.Time { return n.now() }

// Size returns the number of peer slots ever allocated (IDs are dense
// and never reused, so departed peers keep their slot). Use IsAlive to
// test current membership.
func (n *Network) Size() int {
	n.peersMu.RLock()
	defer n.peersMu.RUnlock()
	return len(n.nodes)
}

// peerAt returns peer id, nil when out of range.
func (n *Network) peerAt(id overlay.NodeID) *peer {
	n.peersMu.RLock()
	defer n.peersMu.RUnlock()
	if int(id) < 0 || int(id) >= len(n.nodes) {
		return nil
	}
	return n.nodes[id]
}

// peerList snapshots the peer slots.
func (n *Network) peerList() []*peer {
	n.peersMu.RLock()
	defer n.peersMu.RUnlock()
	return append([]*peer(nil), n.nodes...)
}

// IsAlive reports whether node id exists and has not departed.
func (n *Network) IsAlive(id overlay.NodeID) bool {
	p := n.peerAt(id)
	return p != nil && !p.isGone()
}

func (p *peer) isGone() bool {
	select {
	case <-p.gone:
		return true
	default:
		return false
	}
}

// HopDelay returns the link's injected per-hop wall-clock latency: the
// configured delay on channels, zero on TCP.
func (n *Network) HopDelay() time.Duration { return n.link.hopDelay() }

// IsClosed reports whether Close has been called.
func (n *Network) IsClosed() bool {
	select {
	case <-n.closed:
		return true
	default:
		return false
	}
}

// Overlay exposes the underlying overlay (read-only use).
func (n *Network) Overlay() overlay.Overlay { return n.ov }

// Stats returns a snapshot of message counters.
func (n *Network) Stats() Stats {
	return Stats{
		QueryMsgs:    atomic.LoadUint64(&n.stats.QueryMsgs),
		UpdateMsgs:   atomic.LoadUint64(&n.stats.UpdateMsgs),
		ClearBitMsgs: atomic.LoadUint64(&n.stats.ClearBitMsgs),
		Joins:        atomic.LoadUint64(&n.stats.Joins),
		Leaves:       atomic.LoadUint64(&n.stats.Leaves),
	}
}

// InboxLoad sums current occupancy and capacity across every live peer's
// inbox — a point-in-time congestion gauge for telemetry. Channel
// lengths are sampled racily, which is fine for a gauge.
func (n *Network) InboxLoad() (used, capacity int) {
	for _, p := range n.peerList() {
		if p.isGone() {
			continue
		}
		used += len(p.inbox)
		capacity += cap(p.inbox)
	}
	return used, capacity
}

// Close shuts down all peers, releases the link's resources, and waits
// for every goroutine.
func (n *Network) Close() {
	n.once.Do(func() {
		close(n.closed)
		n.link.close()
	})
	n.wg.Wait()
}

// deliver enqueues an arriving message on the peer's inbox. It gives up
// (false) when the peer has departed — the message is a §2.9 in-flight
// loss — or the network is closing, mirroring a partition at shutdown.
func (p *peer) deliver(m message) bool {
	select {
	case p.inbox <- m:
		return true
	case <-p.gone:
		return false
	case <-p.net.closed:
		return false
	}
}

// loop is the peer goroutine: one message at a time through the protocol
// state machine, actions dispatched back onto the link. A departing peer
// switches to the retired state instead of exiting so that control
// messages racing the departure always complete.
func (p *peer) loop() {
	defer p.net.wg.Done()
	for {
		select {
		case <-p.net.closed:
			return
		case m := <-p.inbox:
			p.handle(m)
			if p.departing {
				close(p.gone)
				p.retired()
				return
			}
		}
	}
}

// retired services a departed peer's inbox until network shutdown:
// control callbacks still run (a caller that enqueued one while the
// departure raced must not hang on its done channel), while protocol
// messages are discarded — they are the departure's in-flight losses.
// The goroutine itself is the drain; slots are never reused, so at most
// one retired goroutine exists per departed peer.
func (p *peer) retired() {
	for {
		select {
		case <-p.net.closed:
			return
		case m := <-p.inbox:
			if m.kind == msgControl {
				m.ctrl(p)
			}
		}
	}
}

func (p *peer) handle(m message) {
	var acts []cup.Action
	switch m.kind {
	case msgQuery:
		acts = p.node.HandleQuery(m.from, m.key, m.qid)
	case msgUpdate:
		acts = p.node.HandleUpdate(m.from, *m.update)
	case msgClearBit:
		acts = p.node.HandleClearBit(m.from, m.key)
	case msgControl:
		m.ctrl(p)
		return
	}
	p.dispatch(acts)
}

func (p *peer) dispatch(acts []cup.Action) {
	l := p.net.link
	for _, a := range acts {
		switch a.Kind {
		case cup.ActSendQuery:
			atomic.AddUint64(&p.net.stats.QueryMsgs, 1)
			l.send(a.To, message{kind: msgQuery, from: p.id, key: a.Key, qid: a.QueryID})
		case cup.ActSendUpdate:
			atomic.AddUint64(&p.net.stats.UpdateMsgs, 1)
			u := a.Update
			l.send(a.To, message{kind: msgUpdate, from: p.id, update: &u})
		case cup.ActSendClearBit:
			atomic.AddUint64(&p.net.stats.ClearBitMsgs, 1)
			l.send(a.To, message{kind: msgClearBit, from: p.id, key: a.Key})
		case cup.ActDeliverLocal:
			for _, w := range p.waiters[a.Key] {
				// Cannot block: each reply is buffered(1), owned by exactly
				// one Lookup, and the waiter leaves the map before a second
				// send could happen.
				w <- a.Entries //cup:allowblocking
			}
			delete(p.waiters, a.Key)
		}
	}
}

// ErrClosed is returned by client operations racing a Close.
var ErrClosed = errors.New("live: network closed")

// Lookup posts a search query for key at node id and waits for the index
// entries (or ctx cancellation). A fresh locally cached answer returns
// immediately; otherwise the query travels the overlay. A cancelled
// lookup deregisters its open connection at the peer, so abandoned
// queries on a slow or partitioned network do not accumulate state.
func (n *Network) Lookup(ctx context.Context, id overlay.NodeID, key overlay.Key) ([]cache.Entry, error) {
	p := n.peerAt(id)
	if p == nil {
		return nil, fmt.Errorf("live: lookup at unknown node %v", id)
	}
	reply := make(chan []cache.Entry, 1)
	ctrl := message{kind: msgControl, ctrl: func(p *peer) {
		if p.departing {
			// Departed between the aliveness race and the control's turn:
			// answer empty rather than strand the waiter.
			reply <- nil //cup:allowblocking (buffered(1), sole send)
			return
		}
		acts := p.node.HandleQuery(cup.LocalClient, key, 0)
		// A synchronous answer arrives as a DeliverLocal action; register
		// the waiter first so both paths converge.
		p.waiters[key] = append(p.waiters[key], reply)
		p.dispatch(acts)
	}}
	if p.isGone() {
		return nil, fmt.Errorf("live: lookup at departed node %v", id)
	}
	select {
	case p.inbox <- ctrl:
	case <-ctx.Done():
		return nil, ctx.Err()
	case <-n.closed:
		return nil, ErrClosed
	}
	select {
	case entries := <-reply:
		return entries, nil
	case <-p.gone:
		// The peer departed with the query open; its state is gone.
		return nil, fmt.Errorf("live: node %v departed during lookup", id)
	case <-ctx.Done():
		p.forgetWaiter(key, reply)
		return nil, ctx.Err()
	case <-n.closed:
		return nil, ErrClosed
	}
}

// forgetWaiter asks the peer to drop a cancelled lookup's open
// connection. Best-effort and non-blocking: if the network is shutting
// down or the inbox is saturated, the buffered reply channel still keeps
// a late answer from blocking the peer goroutine.
func (p *peer) forgetWaiter(key overlay.Key, reply chan []cache.Entry) {
	ctrl := message{kind: msgControl, ctrl: func(p *peer) {
		ws := p.waiters[key]
		for i, got := range ws {
			if got == reply {
				p.waiters[key] = append(ws[:i], ws[i+1:]...)
				break
			}
		}
		if len(p.waiters[key]) == 0 {
			delete(p.waiters, key)
		}
	}}
	select {
	case p.inbox <- ctrl:
	case <-p.net.closed:
	default:
	}
}

// Authority returns the node owning key.
func (n *Network) Authority(key overlay.Key) overlay.NodeID { return n.ov.Owner(key) }

// control runs fn on node id's goroutine with exclusive access to its
// protocol state and blocks until it completes, ctx cancels, or the
// network closes. On cancellation fn may still run later — it was already
// queued — but the caller stops waiting.
func (n *Network) control(ctx context.Context, id overlay.NodeID, fn func(*peer)) error {
	p := n.peerAt(id)
	if p == nil {
		return fmt.Errorf("live: control of unknown node %v", id)
	}
	done := make(chan struct{})
	ctrl := message{kind: msgControl, ctrl: func(p *peer) {
		fn(p)
		close(done)
	}}
	select {
	case p.inbox <- ctrl:
	case <-ctx.Done():
		return ctx.Err()
	case <-n.closed:
		return ErrClosed
	}
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	case <-n.closed:
		return ErrClosed
	}
}

// AddReplica installs an index entry for (key, replica) at its authority
// and propagates the birth as an Append update. lifetime bounds the
// entry's freshness; replicas should Refresh before it elapses.
func (n *Network) AddReplica(key overlay.Key, replica int, addr string, lifetime time.Duration) {
	_ = n.AddReplicaCtx(context.Background(), key, replica, addr, lifetime)
}

// AddReplicaCtx is AddReplica with cancellation: it returns once the
// authority has registered the replica (propagation continues async).
func (n *Network) AddReplicaCtx(ctx context.Context, key overlay.Key, replica int, addr string, lifetime time.Duration) error {
	return n.replicaEvent(ctx, key, replica, addr, lifetime, cup.Append)
}

// Refresh extends the lifetime of (key, replica), propagating a Refresh
// update to interested peers.
func (n *Network) Refresh(key overlay.Key, replica int, addr string, lifetime time.Duration) {
	_ = n.RefreshCtx(context.Background(), key, replica, addr, lifetime)
}

// RefreshCtx is Refresh with cancellation.
func (n *Network) RefreshCtx(ctx context.Context, key overlay.Key, replica int, addr string, lifetime time.Duration) error {
	return n.replicaEvent(ctx, key, replica, addr, lifetime, cup.Refresh)
}

func (n *Network) replicaEvent(ctx context.Context, key overlay.Key, replica int, addr string, lifetime time.Duration, ty cup.UpdateType) error {
	life := sim.Duration(lifetime.Seconds())
	return n.control(ctx, n.Authority(key), func(p *peer) {
		e := cache.Entry{
			Key: key, Replica: replica, Addr: addr,
			Expires: p.net.now().Add(life),
		}
		p.node.InstallLocal(e)
		u := cup.Update{
			Key: key, Type: ty, Entries: []cache.Entry{e}, Replica: replica,
			Expires: e.Expires, Lifetime: life,
		}
		p.dispatch(p.node.OriginateUpdate(u))
	})
}

// RemoveReplica deletes (key, replica) at the authority and propagates a
// Delete update so caches do not serve the dead replica until expiry.
func (n *Network) RemoveReplica(key overlay.Key, replica int) {
	_ = n.RemoveReplicaCtx(context.Background(), key, replica)
}

// RemoveReplicaCtx is RemoveReplica with cancellation.
func (n *Network) RemoveReplicaCtx(ctx context.Context, key overlay.Key, replica int) error {
	return n.control(ctx, n.Authority(key), func(p *peer) {
		p.node.RemoveLocal(key, replica)
		u := cup.Update{
			Key: key, Type: cup.Delete, Replica: replica,
			Expires: p.net.now().Add(sim.Duration(3600)),
		}
		p.dispatch(p.node.OriginateUpdate(u))
	})
}

// SetCapacity adjusts a peer's outgoing update capacity fraction
// (negative restores full capacity), as in the §3.7 experiments.
func (n *Network) SetCapacity(id overlay.NodeID, c float64) {
	_ = n.control(context.Background(), id, func(p *peer) { p.node.SetCapacity(c) })
}

// Inspect runs fn on node id's goroutine with exclusive access to its
// protocol state; it blocks until fn completes. Intended for tests and
// diagnostics.
func (n *Network) Inspect(id overlay.NodeID, fn func(*cup.Node)) {
	_ = n.control(context.Background(), id, func(p *peer) { fn(p.node) })
}

// Quiesced reports whether no messages were in flight across one probe
// window: it samples the traffic counters, waits for window, and samples
// again. Settling callers poll it until two samples agree.
func (n *Network) Quiesced(window time.Duration) bool {
	before := n.Stats()
	timer := time.NewTimer(window)
	defer timer.Stop()
	select {
	case <-timer.C:
	case <-n.closed:
		return true
	}
	return n.Stats() == before
}
