package cup

import (
	"cup/internal/cache"
	"cup/internal/overlay"
	"cup/internal/sim"
)

// arenaChunk is the fixed capacity of one key-state block. Slots are
// addressed by dense int32 handles and chunks never grow past their
// capacity, so &chunk[i] stays stable for the arena's lifetime — handlers
// hold *keyState across allocations.
const arenaChunk = 1024

// arenaSlot is one key's bookkeeping inside the pool, threaded onto its
// owning node's intrusive singly-linked key list.
type arenaSlot struct {
	key  overlay.Key
	next int32 // next slot of the same node, -1 terminates
	ks   keyState
}

// arenaPool is a chunked slab of key-state slots: stable addresses (no
// chunk ever reallocates), dense int32 handles, one bump-pointer
// allocation path and no per-key map or per-state heap object.
type arenaPool struct {
	chunks [][]arenaSlot
	n      int32
}

func (p *arenaPool) at(i int32) *arenaSlot {
	return &p.chunks[i/arenaChunk][i%arenaChunk]
}

func (p *arenaPool) alloc() int32 {
	if int(p.n)%arenaChunk == 0 {
		p.chunks = append(p.chunks, make([]arenaSlot, 0, arenaChunk))
	}
	c := len(p.chunks) - 1
	p.chunks[c] = append(p.chunks[c], arenaSlot{})
	i := p.n
	p.n++
	return i
}

// Arena is the struct-of-arrays backing store of every simulation's
// initial node population: all Node structs in one slice (dense uint32
// handles == overlay IDs), cache stores by value in parallel slices,
// per-key state in chunked slabs threaded per node, and one shared
// nodeEnv instead of per-node Config/Router copies. At n=10⁶ this is the
// difference between ~150 bytes of resident state per untouched node and
// the standalone representation's four heap objects (Node, two Stores,
// keys map) before any traffic arrives. A key lookup walks the node's
// key list, which suits the simulator's few keys per node; nodes that
// hold many keys (live peers) stay standalone. Behavior is identical to
// standalone nodes; the *Node API is a thin view over the arrays.
type Arena struct {
	env    nodeEnv
	nodes  []Node
	stores []cache.Store
	locals []cache.Store
	// keyHead[slot] is the first key-state slot of node slot, -1 if none,
	// as a handle into the node's owner pool pools[Node.owner].
	keyHead []int32
	// pools holds one key-state slab per owner. Nodes start in pools[0];
	// SetShardRange gives a shard's nodes a slab of their own, so parallel
	// shard windows never allocate from the same bump pointer.
	pools []arenaPool
}

// NewArena builds n arena-backed nodes with dense IDs 0..n-1, all sharing
// cfg and router and reading clock. Per-shard clocks and key-state slabs
// (sharded schedulers) can be installed afterwards with SetShardRange.
func NewArena(n int, cfg Config, router Router, clock func() sim.Time) *Arena {
	if cfg.Policy == nil {
		panic("cup: Config.Policy must be set (use Defaults())")
	}
	if router == nil || clock == nil {
		panic("cup: router and clock are required")
	}
	a := &Arena{
		env:     nodeEnv{cfg: cfg, router: router},
		nodes:   make([]Node, n),
		stores:  make([]cache.Store, n),
		locals:  make([]cache.Store, n),
		keyHead: make([]int32, n),
		pools:   make([]arenaPool, 1),
	}
	for i := range a.nodes {
		nd := &a.nodes[i]
		nd.id = overlay.NodeID(i)
		nd.env = &a.env
		nd.now = clock
		nd.store = &a.stores[i]
		nd.local = &a.locals[i]
		nd.a = a
		nd.slot = uint32(i)
		nd.capacityFraction = -1
		a.keyHead[i] = -1
	}
	return a
}

// Len returns the node population.
func (a *Arena) Len() int { return len(a.nodes) }

// Node returns the thin pointer view of node i. The pointer is stable for
// the arena's lifetime.
func (a *Arena) Node(i int) *Node { return &a.nodes[i] }

// SetShardRange installs clock as the time source for nodes [lo, hi) and
// moves them onto a key-state slab of their own. The sharded scheduler
// gives each shard's nodes that shard's clock; the private slab lets the
// shards' windows allocate key state in parallel. Call it before any
// node of the range holds key state.
func (a *Arena) SetShardRange(lo, hi int, clock func() sim.Time) {
	owner := uint32(len(a.pools))
	a.pools = append(a.pools, arenaPool{})
	for i := lo; i < hi; i++ {
		if a.keyHead[i] >= 0 {
			panic("cup: SetShardRange on a node that already holds key state")
		}
		a.nodes[i].now = clock
		a.nodes[i].owner = owner
	}
}

// SetObserver installs o on every node.
func (a *Arena) SetObserver(o Observer) {
	for i := range a.nodes {
		a.nodes[i].obs = o
	}
}

// KeyStates returns the total number of allocated per-key states — the
// denominator-free numerator for bytes-per-node accounting.
func (a *Arena) KeyStates() int {
	n := 0
	for i := range a.pools {
		n += int(a.pools[i].n)
	}
	return n
}

// state returns (allocating if needed) node slot's bookkeeping for k,
// allocating from the slab of owner.
func (a *Arena) state(slot, owner uint32, k overlay.Key) *keyState {
	pool := &a.pools[owner]
	for i := a.keyHead[slot]; i >= 0; {
		sl := pool.at(i)
		if sl.key == k {
			return &sl.ks
		}
		i = sl.next
	}
	i := pool.alloc()
	sl := pool.at(i)
	sl.key = k
	sl.next = a.keyHead[slot]
	sl.ks = keyState{
		watchReplica: -1,
		inst:         a.env.cfg.Policy.New(),
		dist:         -1,
	}
	a.keyHead[slot] = i
	return &sl.ks
}

// peek returns node slot's bookkeeping for k without allocating, or nil.
func (a *Arena) peek(slot, owner uint32, k overlay.Key) *keyState {
	pool := &a.pools[owner]
	for i := a.keyHead[slot]; i >= 0; {
		sl := pool.at(i)
		if sl.key == k {
			return &sl.ks
		}
		i = sl.next
	}
	return nil
}

// each visits every key state of node slot.
func (a *Arena) each(slot, owner uint32, fn func(*keyState)) {
	pool := &a.pools[owner]
	for i := a.keyHead[slot]; i >= 0; {
		sl := pool.at(i)
		fn(&sl.ks)
		i = sl.next
	}
}
