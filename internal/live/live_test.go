package live

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"cup/internal/cup"
	"cup/internal/overlay"
)

// bootFunc is a network constructor: NewNetwork or NewTCPNetwork.
type bootFunc func(Config) (*Network, error)

// links are the two transports every network behaviour is checked on.
var links = []struct {
	name string
	boot bootFunc
}{
	{"chan", NewNetwork},
	{"tcp", NewTCPNetwork},
}

// eachLink runs fn once per link, as a subtest named after the link.
func eachLink(t *testing.T, fn func(t *testing.T, boot bootFunc)) {
	for _, l := range links {
		t.Run(l.name, func(t *testing.T) { fn(t, l.boot) })
	}
}

// start boots a test network of the given size and closes it when the
// test ends.
func (boot bootFunc) start(t *testing.T, nodes int) *Network {
	t.Helper()
	return boot.startCfg(t, Config{Nodes: nodes, HopDelay: 200 * time.Microsecond, Seed: 5})
}

// startCfg boots a network from cfg and closes it when the test ends.
func (boot bootFunc) startCfg(t *testing.T, cfg Config) *Network {
	t.Helper()
	n, err := boot(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(n.Close)
	return n
}

func newTestNet(t *testing.T, nodes int) *Network {
	t.Helper()
	return bootFunc(NewNetwork).start(t, nodes)
}

// defaultCfg returns the standard CUP node configuration.
func defaultCfg() cup.Config { return cup.Defaults() }

func ctxShort(t *testing.T) context.Context {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	t.Cleanup(cancel)
	return ctx
}

// notAuthority returns nid, or its successor when nid owns key.
func notAuthority(n *Network, key overlay.Key, nid overlay.NodeID) overlay.NodeID {
	if n.Authority(key) == nid {
		return nid + 1
	}
	return nid
}

// parkAuthority blocks key's authority inside a control callback, so no
// query that reaches it is answered until the returned release runs
// (at the latest when the test ends, before the network closes).
func parkAuthority(t *testing.T, n *Network, key overlay.Key) (release func()) {
	t.Helper()
	parked, unpark := make(chan struct{}), make(chan struct{})
	go n.control(context.Background(), n.Authority(key), func(*peer) {
		close(parked)
		<-unpark
	})
	<-parked
	var once sync.Once
	release = func() { once.Do(func() { close(unpark) }) }
	t.Cleanup(release)
	return release
}

func TestLookupFindsReplica(t *testing.T) {
	eachLink(t, func(t *testing.T, boot bootFunc) {
		n := boot.start(t, 16)
		n.AddReplica("movie", 0, "10.0.0.1", time.Hour)
		entries, err := n.Lookup(ctxShort(t), 3, "movie")
		if err != nil {
			t.Fatal(err)
		}
		if len(entries) != 1 || entries[0].Addr != "10.0.0.1" {
			t.Fatalf("entries = %+v", entries)
		}
	})
}

func TestLookupMissingKeyReturnsEmpty(t *testing.T) {
	eachLink(t, func(t *testing.T, boot bootFunc) {
		n := boot.start(t, 16)
		entries, err := n.Lookup(ctxShort(t), 2, "ghost")
		if err != nil {
			t.Fatal(err)
		}
		if len(entries) != 0 {
			t.Fatalf("entries = %+v, want none", entries)
		}
	})
}

func TestLookupAtAuthorityIsLocal(t *testing.T) {
	eachLink(t, func(t *testing.T, boot bootFunc) {
		n := boot.start(t, 16)
		n.AddReplica("k", 0, "10.0.0.1", time.Hour)
		auth := n.Authority("k")
		entries, err := n.Lookup(ctxShort(t), auth, "k")
		if err != nil || len(entries) != 1 {
			t.Fatalf("authority lookup = %v, %v", entries, err)
		}
	})
}

func TestSecondLookupHitsCache(t *testing.T) {
	eachLink(t, func(t *testing.T, boot bootFunc) {
		n := boot.start(t, 32)
		n.AddReplica("k", 0, "10.0.0.1", time.Hour)
		nid := notAuthority(n, "k", 7)
		if _, err := n.Lookup(ctxShort(t), nid, "k"); err != nil {
			t.Fatal(err)
		}
		before := n.Stats().QueryMsgs
		if _, err := n.Lookup(ctxShort(t), nid, "k"); err != nil {
			t.Fatal(err)
		}
		if after := n.Stats().QueryMsgs; after != before {
			t.Fatalf("second lookup sent %d query messages", after-before)
		}
	})
}

func TestConcurrentLookups(t *testing.T) {
	eachLink(t, func(t *testing.T, boot bootFunc) {
		n := boot.start(t, 64)
		for r := 0; r < 3; r++ {
			n.AddReplica("hot", r, fmt.Sprintf("10.0.0.%d", r), time.Hour)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		var wg sync.WaitGroup
		errs := make(chan error, 64)
		for i := 0; i < 64; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				entries, err := n.Lookup(ctx, overlay.NodeID(i), "hot")
				if err != nil {
					errs <- fmt.Errorf("node %d: %w", i, err)
					return
				}
				if len(entries) != 3 {
					errs <- fmt.Errorf("node %d got %d entries, want 3", i, len(entries))
				}
			}(i)
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Error(err)
		}
	})
}

func TestDeleteStopsServingReplica(t *testing.T) {
	eachLink(t, func(t *testing.T, boot bootFunc) {
		n := boot.start(t, 16)
		n.AddReplica("k", 0, "10.0.0.1", time.Hour)
		n.AddReplica("k", 1, "10.0.0.2", time.Hour)
		if _, err := n.Lookup(ctxShort(t), 2, "k"); err != nil {
			t.Fatal(err)
		}
		n.RemoveReplica("k", 0)
		// The delete must reach the authority and interested caches.
		deadline := time.Now().Add(3 * time.Second)
		for {
			entries, err := n.Lookup(ctxShort(t), n.Authority("k"), "k")
			if err != nil {
				t.Fatal(err)
			}
			if len(entries) == 1 && entries[0].Replica == 1 {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("delete never applied; entries = %+v", entries)
			}
			time.Sleep(5 * time.Millisecond)
		}
	})
}

// TestRefreshPropagatesToInterestedPeer: a refresh sent before expiry
// must extend the interested peer's cached entry past the original
// lifetime, so the peer still answers locally without another query.
func TestRefreshPropagatesToInterestedPeer(t *testing.T) {
	eachLink(t, func(t *testing.T, boot bootFunc) {
		n := boot.start(t, 16)
		const life = 300 * time.Millisecond
		n.AddReplica("k", 0, "10.0.0.1", life)
		nid := notAuthority(n, "k", 4)
		if _, err := n.Lookup(ctxShort(t), nid, "k"); err != nil {
			t.Fatal(err)
		}
		n.Refresh("k", 0, "10.0.0.1", time.Hour)
		time.Sleep(life + 200*time.Millisecond) // the original entry has expired
		deadline := time.Now().Add(3 * time.Second)
		for {
			var fresh bool
			n.Inspect(nid, func(node *cup.Node) { fresh = node.HasFreshAnswer("k") })
			if fresh {
				break
			}
			if time.Now().After(deadline) {
				t.Fatal("refresh never reached the interested peer")
			}
			time.Sleep(5 * time.Millisecond)
		}
		queriesBefore := n.Stats().QueryMsgs
		entries, err := n.Lookup(ctxShort(t), nid, "k")
		if err != nil {
			t.Fatal(err)
		}
		if len(entries) != 1 {
			t.Fatalf("entries after refresh = %+v", entries)
		}
		if n.Stats().QueryMsgs != queriesBefore {
			t.Fatal("refreshed peer still issued a query")
		}
	})
}

func TestStatsCount(t *testing.T) {
	eachLink(t, func(t *testing.T, boot bootFunc) {
		n := boot.start(t, 32)
		n.AddReplica("k", 0, "10.0.0.1", time.Hour)
		for i := 0; i < 5; i++ {
			if _, err := n.Lookup(ctxShort(t), overlay.NodeID(i), "k"); err != nil {
				t.Fatal(err)
			}
		}
		st := n.Stats()
		if st.QueryMsgs == 0 || st.UpdateMsgs == 0 {
			t.Fatalf("stats = %+v", st)
		}
	})
}

func TestSetCapacityZeroStillAnswersQueries(t *testing.T) {
	eachLink(t, func(t *testing.T, boot bootFunc) {
		n := boot.start(t, 16)
		n.AddReplica("k", 0, "10.0.0.1", time.Hour)
		for i := 0; i < 16; i++ {
			n.SetCapacity(overlay.NodeID(i), 0)
		}
		entries, err := n.Lookup(ctxShort(t), 3, "k")
		if err != nil || len(entries) != 1 {
			t.Fatalf("zero-capacity lookup = %v, %v", entries, err)
		}
	})
}

func TestLookupContextCancellation(t *testing.T) {
	eachLink(t, func(t *testing.T, boot bootFunc) {
		n := boot.start(t, 16)
		n.AddReplica("k", 0, "10.0.0.1", time.Hour)
		parkAuthority(t, n, "k") // the query is never answered
		ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
		defer cancel()
		if _, err := n.Lookup(ctx, notAuthority(n, "k", 3), "k"); !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("lookup on a parked authority: err = %v, want deadline exceeded", err)
		}
	})
}

// TestCancelledLookupForgetsWaiter is the waiter-leak regression: a
// lookup whose answer never comes must deregister its open connection
// at the issuing peer when its context ends, on every link.
func TestCancelledLookupForgetsWaiter(t *testing.T) {
	eachLink(t, func(t *testing.T, boot bootFunc) {
		n := boot.start(t, 16)
		n.AddReplica("k", 0, "10.0.0.1", time.Hour)
		release := parkAuthority(t, n, "k")
		issuer := notAuthority(n, "k", 3)
		ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
		defer cancel()
		if _, err := n.Lookup(ctx, issuer, "k"); err == nil {
			t.Fatal("lookup on a parked authority returned")
		}
		// The issuer's inbox is FIFO, so this control runs after the
		// cancelled lookup's deregistration.
		var left int
		if err := n.control(ctxShort(t), issuer, func(p *peer) { left = len(p.waiters["k"]) }); err != nil {
			t.Fatal(err)
		}
		release()
		if left != 0 {
			t.Fatalf("cancelled lookup left %d waiter(s) registered at node %v", left, issuer)
		}
	})
}

func TestCloseIsIdempotentAndStopsLoops(t *testing.T) {
	eachLink(t, func(t *testing.T, boot bootFunc) {
		n, err := boot(Config{Nodes: 8, Seed: 5})
		if err != nil {
			t.Fatal(err)
		}
		n.Close()
		n.Close()
		if !n.IsClosed() {
			t.Fatal("network not closed after Close")
		}
	})
}

func TestInvalidConfigErrors(t *testing.T) {
	eachLink(t, func(t *testing.T, boot bootFunc) {
		for name, cfg := range map[string]Config{
			"zero nodes":      {Nodes: 0},
			"unknown overlay": {Nodes: 4, Overlay: "no-such-overlay"},
		} {
			if n, err := boot(cfg); err == nil {
				n.Close()
				t.Fatalf("%s accepted", name)
			}
		}
	})
}

func TestInspectSeesProtocolState(t *testing.T) {
	eachLink(t, func(t *testing.T, boot bootFunc) {
		n := boot.start(t, 16)
		n.AddReplica("k", 0, "10.0.0.1", time.Hour)
		auth := n.Authority("k")
		var entries int
		n.Inspect(auth, func(node *cup.Node) { entries = node.LocalDirectory().Len() })
		if entries != 1 {
			t.Fatalf("authority local directory = %d entries, want 1", entries)
		}
	})
}
