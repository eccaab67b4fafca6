package cup

import (
	"math"
	"testing"

	"cup/internal/metrics"
	"cup/internal/overlay"
	"cup/internal/sim"
)

// paperParams is the paper's headline configuration (n = 2^10, λ = 5)
// shrunk to a 600 s query window so the three-overlay sweeps stay fast.
func paperParams(kind string) Params {
	return Params{
		Nodes:         1024,
		OverlayKind:   kind,
		QueryRate:     5,
		QueryDuration: 600,
		Replicas:      4,
		Seed:          3,
	}
}

// eqModuloFloatOrder reports whether two counter sets agree exactly on
// every integer field and within accumulation-order slack on the one
// float field. Sharding reorders commutative float additions (per-shard
// partial sums fold at the end), so MissLatencyTotal may differ in the
// last bits while every event — and so every integer count — is
// identical.
func eqModuloFloatOrder(a, b metrics.Counters) bool {
	af, bf := a.MissLatencyTotal, b.MissLatencyTotal
	a.MissLatencyTotal, b.MissLatencyTotal = 0, 0
	if a != b {
		return false
	}
	const rel = 1e-9
	return math.Abs(af-bf) <= rel*math.Max(math.Abs(af), math.Abs(bf))
}

// Sharding is a scheduling change, not a protocol change: for every
// overlay and shard count, the sharded run posts the same queries, takes
// the same hops, and serves the same misses as the single-heap schedule.
func TestShardedMatchesClassic(t *testing.T) {
	for _, kind := range overlay.Kinds() {
		kind := kind
		t.Run(kind, func(t *testing.T) {
			classic := Run(paperParams(kind)).Counters
			for _, k := range []int{2, 4} {
				p := paperParams(kind)
				p.Shards = k
				sharded := Run(p).Counters
				if !eqModuloFloatOrder(classic, sharded) {
					t.Errorf("shards=%d diverged from the single heap:\n classic %+v\n sharded %+v",
						k, classic, sharded)
				}
			}
		})
	}
}

// Sharded runs are deterministic for a fixed shard count — including the
// float fields, whose per-shard accumulation order is pinned by the
// barrier merge.
func TestShardedDeterministic(t *testing.T) {
	p := paperParams("chord")
	p.Shards = 3
	a := Run(p).Counters
	b := Run(p).Counters
	if a != b {
		t.Fatalf("identical sharded runs diverged:\n%v\n%v", a.String(), b.String())
	}
}

// Sharded runs reject the features the conservative window cannot honor.
func TestShardedRejectsIncompatibleParams(t *testing.T) {
	mustPanic := func(name string, p Params) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: NewSimulation did not panic", name)
			}
		}()
		NewSimulation(p)
	}
	p := paperParams("can")
	p.Shards = 2
	p.NoWorkload = true
	mustPanic("NoWorkload", p)

	p = paperParams("can")
	p.Shards = 2
	p.Faults = []Fault{CapacityFault{Capacity: 0.5}}
	mustPanic("Faults", p)
}

// Regression for the issuedAt approximation: under standard caching,
// several local queries for one key can be in flight at the same node at
// once. Each response must report the latency of *its own* query — the
// old code kept a single per-key issue time that the newest query
// overwrote, shortening the first query's reported latency by the
// stagger.
func TestStandardCachingOverlappingQueryLatencies(t *testing.T) {
	p := Params{
		Nodes:      64,
		NoWorkload: true,
		Seed:       11,
	}
	p.Config = Standard()
	s := NewSimulation(p)

	var lats []sim.Duration
	obs := ObserverFunc(func(e Event) {
		if e.Kind == EvQueryAnswered && e.Peer == LocalClient {
			lats = append(lats, e.Latency)
		}
	})
	for _, n := range s.Nodes {
		n.SetObserver(obs)
	}

	k := overlay.Key("golden")
	s.PublishReplica(k, 0, "203.0.113.7", s.P.Lifetime, Append)
	// A querier that is not the authority, so answers take ≥ 1 hop each
	// way.
	nid := s.Ov.Owner(k) + 1
	if int(nid) >= p.Nodes {
		nid = 0
	}
	const stagger = sim.Duration(0.05)
	s.Sched.At(100, func() { s.PostQueryAt(nid, k) })
	s.Sched.At(sim.Time(100).Add(stagger), func() { s.PostQueryAt(nid, k) })
	if err := s.Settle(t.Context()); err != nil {
		t.Fatal(err)
	}

	if len(lats) != 2 {
		t.Fatalf("got %d answered queries, want 2 (latencies %v)", len(lats), lats)
	}
	// Both queries travel the same path with the same hop delay, so both
	// true latencies are identical; the staggered second query must not
	// steal the first one's clock.
	if lats[0] <= 0 || lats[0] != lats[1] {
		t.Fatalf("overlapping query latencies %v and %v, want equal positive round trips",
			lats[0], lats[1])
	}
}
