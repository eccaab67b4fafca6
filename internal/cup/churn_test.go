package cup

import (
	"testing"

	"cup/internal/overlay"
	"cup/internal/sim"
)

func churnParams() Params {
	return Params{Nodes: 64, QueryRate: 3, QueryDuration: 900, Seed: 17}
}

func TestJoinNodeGrowsMembership(t *testing.T) {
	s := NewSimulation(churnParams())
	before := len(s.Nodes)
	s.Sched.At(400, func() {
		id := s.JoinNode()
		if int(id) != before {
			t.Errorf("joined id = %v, want %d", id, before)
		}
		if !s.NodeAlive(id) {
			t.Error("joined node not alive")
		}
	})
	res := s.Run()
	if len(s.Nodes) != before+1 {
		t.Fatalf("nodes = %d, want %d", len(s.Nodes), before+1)
	}
	if res.Counters.Queries == 0 {
		t.Fatal("no queries ran")
	}
}

// The simulator builds its initial nodes one way, in the arena; only a
// §2.9 joiner, born after the arena is sized, is a standalone node.
func TestSimulationArenaBackedJoinerStandalone(t *testing.T) {
	s := NewSimulation(churnParams())
	n := len(s.Nodes)
	if s.A == nil || s.A.Len() != n {
		t.Fatalf("default simulation not arena-backed: arena %v, %d nodes", s.A, n)
	}
	for i, node := range s.Nodes {
		if node != s.A.Node(i) {
			t.Fatalf("node %d is not the arena's view", i)
		}
	}
	id := s.JoinNode()
	if int(id) != n || len(s.Nodes) != n+1 || s.A.Len() != n {
		t.Fatalf("join: id %v, %d nodes, arena %d; want id %d, %d nodes, arena %d",
			id, len(s.Nodes), s.A.Len(), n, n+1, n)
	}
	if j := s.Nodes[id]; j.a != nil || j.keys == nil || j.ID() != id {
		t.Fatalf("joiner %v is not a standalone node", id)
	}
}

func TestLeaveNodeHandsOverAuthority(t *testing.T) {
	s := NewSimulation(churnParams())
	k := s.Keys[0]
	s.Sched.At(400, func() {
		auth := s.Ov.Owner(k)
		entriesBefore := s.Nodes[auth].LocalDirectory().Len()
		if entriesBefore == 0 {
			t.Error("authority had no local entries before leaving")
		}
		heir := s.LeaveNode(auth)
		if s.NodeAlive(auth) {
			t.Error("departed node still alive")
		}
		newAuth := s.Ov.Owner(k)
		if newAuth == auth {
			t.Error("ownership did not move")
		}
		// The heir holds the handed-over directory; if the key's point now
		// falls in the heir's absorbed zone, the heir is the new authority.
		if s.Nodes[heir].LocalDirectory().Len() < entriesBefore {
			t.Errorf("heir holds %d entries, want ≥ %d",
				s.Nodes[heir].LocalDirectory().Len(), entriesBefore)
		}
	})
	res := s.Run()
	if res.Counters.Misses() == 0 {
		t.Fatal("suspiciously perfect run under churn")
	}
}

func TestQueriesSurviveContinuousChurn(t *testing.T) {
	s := NewSimulation(churnParams())
	// Alternate joins and leaves every 50 s across the query window.
	for i := 0; i < 12; i++ {
		i := i
		s.Sched.At(sim.Time(350+50*i), func() {
			if i%2 == 0 {
				s.JoinNode()
			} else {
				alive := s.aliveSample()
				s.LeaveNode(alive)
			}
		})
	}
	res := s.Run()
	if res.Counters.Queries < 100 {
		t.Fatalf("queries = %d", res.Counters.Queries)
	}
	// Every served miss delivered an answer; the run completing without a
	// routing panic is the §2.9 seamlessness claim.
	if res.Counters.MissesServed == 0 {
		t.Fatal("no misses served under churn")
	}
}

// aliveSample picks a random alive, non-authority node for departure.
func (s *Simulation) aliveSample() overlay.NodeID {
	auth := s.Ov.Owner(s.Keys[0])
	for {
		id := overlay.NodeID(s.Rng.Pick(len(s.Nodes)))
		if s.NodeAlive(id) && id != auth {
			return id
		}
	}
}

func TestChurnCapableByKind(t *testing.T) {
	for kind, want := range map[string]bool{
		"can": true, "kademlia": true, "chord": false, "no-such-kind": false,
	} {
		if got := ChurnCapable(kind); got != want {
			t.Errorf("ChurnCapable(%q) = %v, want %v", kind, got, want)
		}
	}
}

func TestChurnRequiresDynamicOverlay(t *testing.T) {
	p := churnParams()
	p.OverlayKind = "chord"
	s := NewSimulation(p)
	if s.SupportsChurn() {
		t.Error("chord run claims to support churn")
	}
	defer func() {
		if recover() == nil {
			t.Error("JoinNode on chord did not panic")
		}
	}()
	s.JoinNode()
}

func TestQueriesSurviveContinuousChurnOnKademlia(t *testing.T) {
	p := churnParams()
	p.OverlayKind = "kademlia"
	s := NewSimulation(p)
	if !s.SupportsChurn() {
		t.Fatal("kademlia run does not support churn")
	}
	for i := 0; i < 12; i++ {
		i := i
		s.Sched.At(sim.Time(350+50*i), func() {
			if i%2 == 0 {
				s.JoinNode()
			} else {
				s.LeaveNode(s.aliveSample())
			}
		})
	}
	res := s.Run()
	if res.Counters.Queries < 100 {
		t.Fatalf("queries = %d", res.Counters.Queries)
	}
	if res.Counters.MissesServed == 0 {
		t.Fatal("no misses served under churn")
	}
}

func TestKademliaLeaveRedistributesAuthority(t *testing.T) {
	p := churnParams()
	p.OverlayKind = "kademlia"
	s := NewSimulation(p)
	k := s.Keys[0]
	s.Sched.At(400, func() {
		auth := s.Ov.Owner(k)
		entriesBefore := s.Nodes[auth].LocalDirectory().Len()
		if entriesBefore == 0 {
			t.Error("authority had no local entries before leaving")
		}
		s.LeaveNode(auth)
		if s.NodeAlive(auth) {
			t.Error("departed node still alive")
		}
		newAuth := s.Ov.Owner(k)
		if newAuth == auth {
			t.Error("ownership did not move")
		}
		// Per-key redistribution: the key's entries now live at its new
		// XOR-closest owner, so refreshes continue without re-propagation.
		if s.Nodes[newAuth].LocalDirectory().Len() < entriesBefore {
			t.Errorf("new authority holds %d entries, want ≥ %d",
				s.Nodes[newAuth].LocalDirectory().Len(), entriesBefore)
		}
	})
	s.Run()
}

func TestNodeAliveBounds(t *testing.T) {
	s := NewSimulation(churnParams())
	if s.NodeAlive(-1) || s.NodeAlive(overlay.NodeID(len(s.Nodes))) {
		t.Fatal("out-of-range IDs reported alive")
	}
	if !s.NodeAlive(0) {
		t.Fatal("node 0 not alive")
	}
}

func TestPatchingClearsDepartedInterest(t *testing.T) {
	s := NewSimulation(churnParams())
	var victim overlay.NodeID
	s.Sched.At(600, func() {
		// Find a node with interest registered at some neighbor.
		k := s.Keys[0]
		auth := s.Ov.Owner(k)
		interested := s.Nodes[auth].InterestedNeighbors(k)
		if len(interested) == 0 {
			return // workload produced no subscription at the authority yet
		}
		victim = interested[0]
		s.LeaveNode(victim)
		for _, m := range s.Nodes[auth].InterestedNeighbors(k) {
			if m == victim {
				t.Error("authority still lists departed neighbor as interested")
			}
		}
	})
	s.Run()
}
