// Package chord implements a Chord ring overlay [SMK+01] over a 64-bit
// identifier space, with finger tables and greedy closest-preceding-finger
// routing. CUP is overlay-agnostic (§2.2 of the paper lists Chord among the
// substrates it supports); this package backs the overlay-ablation
// experiment that re-runs the CUP evaluation on Chord instead of CAN.
package chord

import (
	"cmp"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"strconv"

	"cup/internal/overlay"
)

const fingerBits = 64

// Ring is a static Chord ring. Nodes are placed on the 2^64 identifier
// circle by hashing their labels; each key is owned by its successor node.
// Ring implements overlay.Overlay.
//
// Finger b of node n is successor(ids[n] + 2^b). Every finger whose offset
// 2^b does not pass n's successor is that successor: exactly the bits
// below lo[n] = bits.Len64(ids[succ[n]] - ids[n]). Only bits lo[n]..63
// are stored — about log₂ n + 1 of the 64 — in one pointer-free table:
// fing[off[n]+b-lo[n]] is finger b of n.
type Ring struct {
	ids   []uint64         // ring position per NodeID (dense index)
	order []overlay.NodeID // nodes sorted by ring position
	pos   []uint64         // pos[i] = ids[order[i]]: the sorted ring positions
	succ  []overlay.NodeID // immediate successor per node
	pred  []overlay.NodeID // immediate predecessor per node
	off   []int32          // start of each node's row in fing
	lo    []uint8          // lowest stored finger bit per node
	fing  []overlay.NodeID // stored fingers: row n is bits lo[n]..63 of node n
}

var _ overlay.Overlay = (*Ring)(nil)

// Build constructs a ring of n nodes with deterministic labels
// "chord-node-<i>". Labels collide on the ring with probability ~n²/2^64,
// which is negligible; a collision panics rather than silently corrupting
// ownership.
func Build(n int) *Ring {
	if n <= 0 {
		panic("chord: Build requires n > 0")
	}
	ids := make([]uint64, n)
	label := []byte("chord-node-")
	prefix := len(label)
	for i := range ids {
		label = strconv.AppendInt(label[:prefix], int64(i), 10)
		ids[i] = overlay.HashNodeID(string(label))
	}
	return newRing(ids)
}

// newRing builds the ring whose node i sits at ids[i]; the ring keeps ids.
func newRing(ids []uint64) *Ring {
	n := len(ids)
	r := &Ring{
		ids:   ids,
		order: make([]overlay.NodeID, n),
		pos:   make([]uint64, n),
		succ:  make([]overlay.NodeID, n),
		pred:  make([]overlay.NodeID, n),
		off:   make([]int32, n),
		lo:    make([]uint8, n),
	}
	type placed struct {
		pos  uint64
		node overlay.NodeID
	}
	sorted := make([]placed, n)
	for i, id := range ids {
		sorted[i] = placed{id, overlay.NodeID(i)}
	}
	slices.SortFunc(sorted, func(a, b placed) int { return cmp.Compare(a.pos, b.pos) })
	for i, p := range sorted {
		if i > 0 && p.pos == sorted[i-1].pos {
			a, b := min(p.node, sorted[i-1].node), max(p.node, sorted[i-1].node)
			panic(fmt.Sprintf("chord: ring position collision between node %d and node %d", a, b))
		}
		r.pos[i], r.order[i] = p.pos, p.node
	}
	for i, node := range r.order {
		r.succ[node] = r.order[(i+1)%n]
		r.pred[node] = r.order[(i-1+n)%n]
		r.lo[node] = uint8(bits.Len64(r.pos[(i+1)%n] - r.pos[i]))
	}
	// Rows are laid out in ring order, so each sweep below writes them front
	// to back; off[n] locates n's row and lo[n] gives its length.
	total, lowest := 0, fingerBits
	for _, node := range r.order {
		lowest = min(lowest, int(r.lo[node]))
		r.off[node] = int32(total)
		total += fingerBits - int(r.lo[node])
		if total > math.MaxInt32 {
			panic(fmt.Sprintf("chord: %d nodes overflow the finger table", n))
		}
	}
	r.fing = make([]overlay.NodeID, total)
	for b := lowest; b < fingerBits; b++ {
		r.sweep(b)
	}
	return r
}

// sweep fills finger b of every node that stores it. The targets
// pos[i] + 2^b advance around the ring with i, so one pointer that only
// moves forward finds them all: O(n) work for the bit.
func (r *Ring) sweep(b int) {
	n := len(r.pos)
	d := uint64(1) << uint(b)
	start := 0 // start of the row of the node at position i
	j := 1     // candidate finger, as a position in (i, i+n]; i+n is the node itself
	for i, x := range r.pos {
		next := i + 1
		if next == n {
			next = 0
		}
		first := bits.Len64(r.pos[next] - x) // the node's lo
		if b >= first {
			j = max(j, i+1)
			for j < i+n && r.pos[wrap(j, n)]-x < d {
				j++
			}
			r.fing[start+b-first] = r.order[wrap(j, n)]
		}
		start += fingerBits - first
	}
}

// wrap maps a position in [0, 2n) onto the ring.
func wrap(j, n int) int {
	if j >= n {
		return j - n
	}
	return j
}

// finger returns finger b of n: successor(ids[n] + 2^b).
func (r *Ring) finger(n overlay.NodeID, b int) overlay.NodeID {
	lo := int(r.lo[n])
	if b < lo {
		return r.succ[n]
	}
	return r.fing[int(r.off[n])+b-lo]
}

// row returns n's stored fingers, bits lo[n]..63.
func (r *Ring) row(n overlay.NodeID) []overlay.NodeID {
	start := int(r.off[n])
	return r.fing[start : start+fingerBits-int(r.lo[n])]
}

// successorOf returns the node owning identifier t: the first node at or
// clockwise after t.
//
//cup:hotpath
func (r *Ring) successorOf(t uint64) overlay.NodeID {
	i, _ := slices.BinarySearch(r.pos, t)
	if i == len(r.pos) {
		i = 0
	}
	return r.order[i]
}

// Size returns the number of nodes.
func (r *Ring) Size() int { return len(r.ids) }

// ID returns n's position on the identifier circle.
func (r *Ring) ID(n overlay.NodeID) uint64 { return r.ids[n] }

// Successor returns the node clockwise-adjacent to n.
func (r *Ring) Successor(n overlay.NodeID) overlay.NodeID { return r.succ[n] }

// Predecessor returns the node counterclockwise-adjacent to n.
func (r *Ring) Predecessor(n overlay.NodeID) overlay.NodeID { return r.pred[n] }

// Owner returns the authority node for key k (the successor of its hash).
//
//cup:hotpath
func (r *Ring) Owner(k overlay.Key) overlay.NodeID {
	return r.successorOf(overlay.HashID(k))
}

// between reports whether x ∈ (a, b] on the identifier circle.
func between(a, x, b uint64) bool {
	if a < b {
		return x > a && x <= b
	}
	return x > a || x <= b // wrapped interval
}

// NextHop implements Chord routing: if n owns k, stop; if k falls between n
// and its successor, hop to the successor (which owns it); otherwise hop to
// the closest finger preceding k. Each hop at least halves the remaining
// clockwise distance, so paths are O(log n).
//
//cup:hotpath
func (r *Ring) NextHop(n overlay.NodeID, k overlay.Key) (overlay.NodeID, bool) {
	t := overlay.HashID(k)
	if r.successorOf(t) == n {
		return n, true
	}
	x := r.ids[n]
	if between(x, t, r.ids[r.succ[n]]) {
		return r.succ[n], true
	}
	// Closest preceding finger: highest finger strictly inside (n, t). The
	// unstored fingers all equal the successor, which is also the fallback.
	row := r.row(n)
	for b := len(row) - 1; b >= 0; b-- {
		f := row[b]
		if f != n && between(x, r.ids[f], t) && r.ids[f] != t {
			return f, true
		}
	}
	return r.succ[n], true
}

// Neighbors returns the routing neighbors of n: its distinct finger-table
// entries plus successor and predecessor. In CUP terms these are the peers
// with which n maintains query/update channels.
func (r *Ring) Neighbors(n overlay.NodeID) []overlay.NodeID {
	row := r.row(n)
	out := make([]overlay.NodeID, 0, len(row)+2)
	out = append(out, r.succ[n], r.pred[n])
	out = append(out, row...)
	slices.Sort(out)
	out = slices.Compact(out)
	if i, ok := slices.BinarySearch(out, n); ok {
		out = slices.Delete(out, i, i+1)
	}
	return out
}
