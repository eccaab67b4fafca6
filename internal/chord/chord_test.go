package chord

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"cup/internal/overlay"
)

func TestBuildSizes(t *testing.T) {
	for _, n := range []int{1, 2, 3, 17, 256} {
		r := Build(n)
		if r.Size() != n {
			t.Fatalf("Size = %d, want %d", r.Size(), n)
		}
	}
}

func TestBuildZeroPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Build(0) did not panic")
		}
	}()
	Build(0)
}

func TestSuccessorPredecessorInverse(t *testing.T) {
	r := Build(100)
	for i := 0; i < 100; i++ {
		n := overlay.NodeID(i)
		if r.Predecessor(r.Successor(n)) != n {
			t.Fatalf("pred(succ(%v)) != %v", n, n)
		}
		if r.Successor(r.Predecessor(n)) != n {
			t.Fatalf("succ(pred(%v)) != %v", n, n)
		}
	}
}

func TestSuccessorRingIsSingleCycle(t *testing.T) {
	const n = 64
	r := Build(n)
	seen := make(map[overlay.NodeID]bool)
	cur := overlay.NodeID(0)
	for i := 0; i < n; i++ {
		if seen[cur] {
			t.Fatalf("successor ring revisits %v after %d steps", cur, i)
		}
		seen[cur] = true
		cur = r.Successor(cur)
	}
	if cur != 0 {
		t.Fatalf("ring did not close: ended at %v", cur)
	}
}

func TestOwnerIsSuccessorOfHash(t *testing.T) {
	r := Build(32)
	for i := 0; i < 100; i++ {
		k := overlay.Key(fmt.Sprintf("key-%d", i))
		owner := r.Owner(k)
		h := overlay.HashID(k)
		pred := r.Predecessor(owner)
		// h must lie in (pred, owner] on the circle.
		if !between(r.ID(pred), h, r.ID(owner)) {
			t.Fatalf("key %q: hash %x not in (pred %x, owner %x]", k, h, r.ID(pred), r.ID(owner))
		}
	}
}

func TestRoutingReachesOwner(t *testing.T) {
	for _, n := range []int{1, 2, 8, 128, 1024} {
		r := Build(n)
		for i := 0; i < 100; i++ {
			k := overlay.Key(fmt.Sprintf("route-%d-%d", n, i))
			owner := r.Owner(k)
			for _, start := range []overlay.NodeID{0, overlay.NodeID(n / 2), overlay.NodeID(n - 1)} {
				path := overlay.PathTo(r, start, k, 4*fingerBits)
				if path[len(path)-1] != owner {
					t.Fatalf("n=%d key=%q from %v: ends at %v, owner %v", n, k, start, path[len(path)-1], owner)
				}
			}
		}
	}
}

func TestRoutingIsLogarithmic(t *testing.T) {
	const n = 1024
	r := Build(n)
	total := 0
	const trials = 500
	for i := 0; i < trials; i++ {
		k := overlay.Key(fmt.Sprintf("log-%d", i))
		total += overlay.Distance(r, overlay.NodeID(i%n), k, 4*fingerBits)
	}
	avg := float64(total) / trials
	// Chord expects ~0.5*log2(n) = 5 hops; allow generous slack.
	if avg > 2*math.Log2(n) {
		t.Fatalf("average path length %v too long for n=%d", avg, n)
	}
}

func TestNeighborsExcludeSelfAndAreSorted(t *testing.T) {
	r := Build(64)
	for i := 0; i < 64; i++ {
		n := overlay.NodeID(i)
		nbrs := r.Neighbors(n)
		if len(nbrs) == 0 {
			t.Fatalf("%v has no neighbors", n)
		}
		for j, m := range nbrs {
			if m == n {
				t.Fatalf("%v lists itself as neighbor", n)
			}
			if j > 0 && nbrs[j-1] >= m {
				t.Fatalf("neighbors of %v not sorted: %v", n, nbrs)
			}
		}
	}
}

func TestNeighborCountIsLogarithmic(t *testing.T) {
	r := Build(1024)
	for i := 0; i < 1024; i += 37 {
		nbrs := r.Neighbors(overlay.NodeID(i))
		if len(nbrs) > 4*int(math.Log2(1024))+8 {
			t.Fatalf("node %d has %d neighbors, way above O(log n)", i, len(nbrs))
		}
	}
}

func TestNextHopIsANeighbor(t *testing.T) {
	r := Build(128)
	for i := 0; i < 60; i++ {
		k := overlay.Key(fmt.Sprintf("nbr-%d", i))
		n := overlay.NodeID(i)
		next, ok := r.NextHop(n, k)
		if !ok {
			t.Fatalf("no hop from %v", n)
		}
		if next == n {
			continue // authority
		}
		found := false
		for _, m := range r.Neighbors(n) {
			if m == next {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("NextHop(%v) = %v is not a neighbor", n, next)
		}
	}
}

func TestBetween(t *testing.T) {
	cases := []struct {
		a, x, b uint64
		want    bool
	}{
		{10, 15, 20, true},
		{10, 10, 20, false}, // open at a
		{10, 20, 20, true},  // closed at b
		{10, 25, 20, false},
		{20, 25, 10, true},  // wrapped
		{20, 5, 10, true},   // wrapped
		{20, 15, 10, false}, // wrapped, outside
	}
	for _, c := range cases {
		if got := between(c.a, c.x, c.b); got != c.want {
			t.Errorf("between(%d,%d,%d) = %v, want %v", c.a, c.x, c.b, got, c.want)
		}
	}
}

// Property: routing from any start node for any key terminates at Owner(k)
// within 2*64 hops.
func TestPropertyRouting(t *testing.T) {
	r := Build(257)
	f := func(start uint16, key string) bool {
		n := overlay.NodeID(int(start) % 257)
		k := overlay.Key(key)
		path := overlay.PathTo(r, n, k, 2*fingerBits)
		return path[len(path)-1] == r.Owner(k)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// referenceRing is the textbook finger table the ring once stored: all 64
// fingers of every node, each found by its own binary search over the
// sorted ring. Ring must route exactly as it does.
type referenceRing struct {
	ids     []uint64
	order   []overlay.NodeID
	succ    []overlay.NodeID
	fingers []overlay.NodeID // fingers[i*fingerBits+b] = successor(ids[i] + 2^b)
}

func referenceFingers(ids []uint64) *referenceRing {
	n := len(ids)
	ref := &referenceRing{
		ids:     ids,
		order:   make([]overlay.NodeID, n),
		succ:    make([]overlay.NodeID, n),
		fingers: make([]overlay.NodeID, n*fingerBits),
	}
	for i := range ref.order {
		ref.order[i] = overlay.NodeID(i)
	}
	sort.Slice(ref.order, func(a, b int) bool { return ids[ref.order[a]] < ids[ref.order[b]] })
	for pos, node := range ref.order {
		ref.succ[node] = ref.order[(pos+1)%n]
	}
	for i := 0; i < n; i++ {
		for b := 0; b < fingerBits; b++ {
			ref.fingers[i*fingerBits+b] = ref.successorOf(ids[i] + uint64(1)<<uint(b))
		}
	}
	return ref
}

func (ref *referenceRing) successorOf(t uint64) overlay.NodeID {
	i := sort.Search(len(ref.order), func(i int) bool { return ref.ids[ref.order[i]] >= t })
	if i == len(ref.order) {
		i = 0
	}
	return ref.order[i]
}

func (ref *referenceRing) nextHop(n overlay.NodeID, k overlay.Key) overlay.NodeID {
	t := overlay.HashID(k)
	if ref.successorOf(t) == n {
		return n
	}
	if between(ref.ids[n], t, ref.ids[ref.succ[n]]) {
		return ref.succ[n]
	}
	for b := fingerBits - 1; b >= 0; b-- {
		f := ref.fingers[int(n)*fingerBits+b]
		if f != n && between(ref.ids[n], ref.ids[f], t) && ref.ids[f] != t {
			return f
		}
	}
	return ref.succ[n]
}

func TestFingersMatchReference(t *testing.T) {
	for _, n := range []int{1, 2, 3, 17, 1000, 65536} {
		r := Build(n)
		ref := referenceFingers(r.ids)
		for i := 0; i < n; i++ {
			node := overlay.NodeID(i)
			for b := 0; b < fingerBits; b++ {
				if got, want := r.finger(node, b), ref.fingers[i*fingerBits+b]; got != want {
					t.Fatalf("n=%d: finger(%d, %d) = %v, want %v", n, i, b, got, want)
				}
			}
		}
		for j := 0; j < 64; j++ {
			k := overlay.Key(fmt.Sprintf("ref-%d", j))
			if got, want := r.Owner(k), ref.successorOf(overlay.HashID(k)); got != want {
				t.Fatalf("n=%d: Owner(%q) = %v, want %v", n, k, got, want)
			}
			for i := 0; i < n; i++ {
				node := overlay.NodeID(i)
				if got, _ := r.NextHop(node, k); got != ref.nextHop(node, k) {
					t.Fatalf("n=%d: NextHop(%d, %q) = %v, want %v", n, i, k, got, ref.nextHop(node, k))
				}
			}
		}
	}
}

// The ring stores only the fingers past each node's successor: about
// log₂ n + 1 per node instead of 64. The labels are fixed, so the count is
// too.
func TestFingerTableIsCompact(t *testing.T) {
	const n = 1 << 16
	r := Build(n)
	perNode := float64(len(r.fing)) / n
	if limit := math.Log2(n) + 2; perNode > limit {
		t.Fatalf("%.2f stored fingers per node, want <= %.0f", perNode, limit)
	}
}

func TestCollisionPanicNamesBothNodes(t *testing.T) {
	defer func() {
		msg := fmt.Sprint(recover())
		if !strings.Contains(msg, "node 1 ") || !strings.HasSuffix(msg, "node 3") {
			t.Fatalf("panic %q does not name colliding nodes 1 and 3", msg)
		}
	}()
	newRing([]uint64{10, 40, 20, 40, 30})
}

var builtRing *Ring

func BenchmarkBuild(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		builtRing = Build(1 << 16)
	}
}

func BenchmarkRoute1024(b *testing.B) {
	r := Build(1024)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := overlay.Key(fmt.Sprintf("bench-%d", i%512))
		overlay.PathTo(r, overlay.NodeID(i%1024), k, 4*fingerBits)
	}
}
