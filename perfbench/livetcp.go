package main

import (
	"context"
	"flag"
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"strconv"
	"time"

	"cup"
	"cup/internal/cache"
	cupcore "cup/internal/cup"
	"cup/internal/wire"
)

// live-tcp: cup.WithTCP() with 128 CAN peers and keys published at
// set-up, driven in this process by an open loop of Deployment.LookupAt
// with a fixed share aimed at (node, key) pairs not yet queried, plus
// Publish/Unpublish at a fixed rate.
const (
	tcpNodes    = 128
	tcpKeys     = 256
	tcpReplicas = 2
	// tcpSetups is how many times the deployment is set up; setup_s is
	// their median (one set-up takes about 10 ms).
	tcpSetups = 41
	// tcpLookupRate is the fixed lookup rate, per second. On a 2-vCPU VM
	// this mix kept read p99 at 39 ms at 12000 lookups/s and went over
	// the 100 ms read limit of serve-mixed's ladder at 16000/s (122 ms), with
	// the process at 1.5 and 1.9 cores; 5000/s is 40% of the 12000/s it
	// still serves, the share serve-mixed runs at.
	tcpLookupRate = 5000
	tcpColdShare  = 0.1 // lookups at a pair not yet queried
	tcpWriteRate  = 250 // Publish/Unpublish per second, 5% of the lookups
)

// tcpRep is one live-tcp child process.
type tcpRep struct {
	SetupS                              []float64   `json:"setup_s"`
	BootS                               []float64   `json:"boot_s"`
	CPUS                                float64     `json:"cpu_s"`
	RSSMB                               float64     `json:"rss_mb"`
	Ops                                 float64     `json:"ops"`
	Loop                                loopSummary `json:"loop"`
	QueryMsgs, UpdateMsgs, ClearBitMsgs uint64
	GC                                  gcStats
	// Traced runs only.
	Hit, Miss, Publish spanTotal
	Wire               wireCost
}

func runLiveTCP(ctx context.Context, cfg runConfig) (*outcome, error) {
	rep := func(traced bool) (tcpRep, error) {
		var r tcpRep
		err := spawn(ctx, &r, "live-tcp", "-seed", strconv.FormatInt(cfg.seed, 10),
			"-seconds", strconv.FormatFloat(cfg.seconds, 'g', -1, 64), "-traced="+strconv.FormatBool(traced))
		return r, err
	}
	u, err := rep(false)
	if err != nil {
		return nil, err
	}
	out := newOutcome()
	v := out.values
	u.report(out, v)
	if !cfg.traced {
		return out, nil
	}
	t, err := rep(true)
	if err != nil {
		return nil, err
	}
	t.report(out, map[string]float64{})
	v["gen.lag_p99_ms"], v["gen.inflight_peak"] = t.Loop.LagP99, float64(t.Loop.InflightPeak)
	lookups := spanTotal{t.Hit.N + t.Miss.N, t.Hit.Ns + t.Miss.Ns}
	v["live.lookup_ms"] = lookups.meanMs()
	v["live.lookup_ms.hit"] = t.Hit.meanMs()
	v["live.lookup_ms.miss"] = t.Miss.meanMs()
	v["live.publish_ms"] = t.Publish.meanMs()
	v["live.boot_s"] = median(t.BootS)
	v["cup.query_hops"] = float64(t.QueryMsgs)
	v["cup.update_hops"] = float64(t.UpdateMsgs)
	v["cup.clearbit_hops"] = float64(t.ClearBitMsgs)
	v["cup.query_hops_per_lookup"] = ratio(float64(t.QueryMsgs), float64(lookups.N))
	v["cup.update_hops_per_write"] = ratio(float64(t.UpdateMsgs), float64(t.Publish.N))
	v["wire.encode_ns"] = t.Wire.EncodeNs
	v["wire.decode_ns"] = t.Wire.DecodeNs
	v["wire.bytes_per_msg"] = t.Wire.Bytes
	gcLayers(v, t.GC, t.Ops)
	v["trace.overhead_frac"] = (t.CPUS/t.Ops)/(u.CPUS/u.Ops) - 1
	runLayers(v)
	return out, nil
}

// report adds one child's end-to-end metrics to v and its checks to out.
func (r *tcpRep) report(out *outcome, v map[string]float64) {
	v["setup_s"] = median(r.SetupS)
	v["peak_rss_mb"] = r.RSSMB
	v["cpu_ms_per_kop"] = r.CPUS * 1000 / (r.Ops / 1000)
	r.Loop.report(out, v)
}

// liveTCPChild sets the TCP deployment up tcpSetups times, keeps the
// last, and drives the measured open loop against it.
func liveTCPChild(args []string) (any, error) {
	fs := flag.NewFlagSet("live-tcp", flag.ContinueOnError)
	seed := fs.Int64("seed", 1, "input seed")
	seconds := fs.Float64("seconds", 10, "measured phase length")
	traced := fs.Bool("traced", false, "time the calls into the live network")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(*seed))
	keys := genKeys(rng, "k", tcpKeys, tcpReplicas)
	ctx := context.Background()
	var (
		r tcpRep
		d *cup.Deployment
	)
	for i := 0; i < tcpSetups; i++ {
		if d != nil {
			// The operation closures below capture d: drop the closed
			// deployment so it is garbage before the next set-up.
			_ = d.Close()
			d = nil
		}
		if i == tcpSetups-1 {
			resetPeakRSS()
		}
		runtime.GC()
		start := time.Now()
		var err error
		d, err = cup.New(cup.WithTCP(), cup.WithNodes(tcpNodes), cup.WithOverlay("can"), cup.WithSeed(deploymentSeed))
		if err != nil {
			return nil, err
		}
		boot := time.Now()
		d.Size() // the network boots on first use
		r.BootS = append(r.BootS, time.Since(boot).Seconds())
		for _, k := range keys {
			for rep, a := range k.Addrs {
				if err := d.Publish(ctx, cup.Key(k.Key), rep, a, serveTTL); err != nil {
					_ = d.Close()
					return nil, fmt.Errorf("publish %q: %w", k.Key, err)
				}
			}
		}
		r.SetupS = append(r.SetupS, time.Since(start).Seconds())
	}
	defer d.Close()

	pub := newPublished()
	writes := newWriteBook(rng, keys, pub)
	var spans struct{ hit, miss, publish spanStat }
	span := func(s *spanStat) *spanStat {
		if *traced {
			return s
		}
		return nil
	}
	// Lookups: a seeded order over every (node, key) pair gives the cold
	// ones; a warm lookup repeats a pair already scheduled.
	pairs := rng.Perm(tcpNodes * tcpKeys)
	var warm []int
	var ops []schedOp
	for i := 0; i < int(tcpLookupRate**seconds); i++ {
		at := time.Duration(float64(i) / tcpLookupRate * float64(time.Second))
		pair, sp := 0, span(&spans.hit)
		if len(warm) == 0 || (rng.Float64() < tcpColdShare && len(pairs) > 0) {
			pair, pairs, sp = pairs[0], pairs[1:], span(&spans.miss)
			warm = append(warm, pair)
		} else {
			pair = warm[rng.Intn(len(warm))]
		}
		node, key := cup.NodeID(pair/tcpKeys), keys[pair%tcpKeys].Key
		ops = append(ops, schedOp{at: at, class: classRead, run: func(ctx context.Context) (error, error) {
			entries, err := timed(sp, func() ([]cup.Entry, error) { return d.LookupAt(ctx, node, cup.Key(key)) })
			if err != nil {
				return err, nil
			}
			addrs := make([]string, len(entries))
			for i, e := range entries {
				addrs[i] = e.Addr
			}
			return nil, pub.check(key, addrs)
		}})
	}
	for i := 0; i < int(tcpWriteRate**seconds); i++ {
		at := time.Duration(float64(i) / tcpWriteRate * float64(time.Second))
		w := writes.pick(at, 1)
		ops = append(ops, schedOp{at: at, class: classWrite, run: func(ctx context.Context) (error, error) {
			_, err := timed(span(&spans.publish), func() (struct{}, error) {
				if w.del {
					return struct{}{}, d.Unpublish(ctx, cup.Key(w.key), w.replica)
				}
				pub.add(w.key, w.addr)
				return struct{}{}, d.Publish(ctx, cup.Key(w.key), w.replica, w.addr, serveTTL)
			})
			return err, nil
		}})
	}
	sort.SliceStable(ops, func(i, j int) bool { return ops[i].at < ops[j].at })

	c0 := d.Counters()
	probe := startGCProbe(*traced)
	cpu0 := cpuSeconds()
	loop := runOpenLoop(ctx, ops, opTimeout)
	r.CPUS = cpuSeconds() - cpu0
	r.GC = probe.finish()
	r.RSSMB = peakRSSMB()
	c := d.Counters()
	r.QueryMsgs, r.UpdateMsgs, r.ClearBitMsgs = c.QueryHops-c0.QueryHops, c.UpdateHops-c0.UpdateHops, c.ClearBitHops-c0.ClearBitHops

	r.Ops = float64(loop.attempted)
	r.Loop = loop.summary()
	if *traced {
		r.Hit, r.Miss, r.Publish = spans.hit.total(), spans.miss.total(), spans.publish.total()
		r.Wire = replayWire(keys[0], r.QueryMsgs, r.UpdateMsgs, r.ClearBitMsgs)
	}
	return r, nil
}

// wireCost is the codec's cost on a run's message mix.
type wireCost struct {
	EncodeNs float64 `json:"encode_ns"`
	DecodeNs float64 `json:"decode_ns"`
	Bytes    float64 `json:"bytes"`
}

// replayWire times wire.Marshal and wire.Unmarshal on one message of
// each kind the TCP peers exchange, shaped like the run's (its key, its
// replica count), and weights them by the run's message counts.
func replayWire(k keySpec, queries, updates, clearBits uint64) wireCost {
	key := cup.Key(k.Key)
	entries := make([]cache.Entry, len(k.Addrs))
	for i, a := range k.Addrs {
		entries[i] = cache.Entry{Key: key, Replica: i, Addr: a, Expires: 3600}
	}
	mix := []struct {
		m wire.Message
		n uint64
	}{
		{wire.Query{From: 17, Key: key, QueryID: 1 << 40}, queries},
		{wire.UpdateMsg{From: 17, Update: cupcore.Update{Key: key, Type: cupcore.FirstTime, Entries: entries, Replica: -1, Depth: 3}}, updates},
		{wire.ClearBit{From: 17, Key: key}, clearBits},
	}
	const iters = 20000
	var c wireCost
	total := float64(queries + updates + clearBits)
	if total == 0 {
		return c
	}
	for _, x := range mix {
		w := float64(x.n) / total
		start := time.Now()
		var b []byte
		for i := 0; i < iters; i++ {
			b = wire.Marshal(x.m)
		}
		c.EncodeNs += w * float64(time.Since(start).Nanoseconds()) / iters
		start = time.Now()
		for i := 0; i < iters; i++ {
			if _, err := wire.Unmarshal(b); err != nil {
				panic(fmt.Sprintf("wire replay: %v", err))
			}
		}
		c.DecodeNs += w * float64(time.Since(start).Nanoseconds()) / iters
		c.Bytes += w * float64(len(b))
	}
	return c
}
