package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"time"

	"cup"
	"cup/client"
	"cup/internal/obs"
	"cup/internal/serve"
)

// serve-mixed: the cupd configuration (goroutine network, 64-node CAN,
// 1 ms hop) served through cup.WithServing in its own process, driven
// over HTTP by cup/client from this one.
const (
	serveNodes    = 64
	serveWarmKeys = 1024
	serveReplicas = 2
	serveTTL      = time.Hour
	// serveSetups is how many times the server sets the deployment up;
	// setup_s is their median. One set-up takes about 15 ms, so dozens
	// cost little and outvote scheduler noise.
	serveSetups = 41
	// serveRate is the fixed offered rate, operations per second: about
	// 40% of the median capacity_rps this benchmark's capacity ladder
	// measured on a 2-vCPU VM (5000–5500/s in three sets of ten seeded
	// runs; single runs 2000–7000/s). The server has headroom, so
	// the phase measures service time with some queueing, and a busier
	// machine does not push it into overload.
	serveRate      = 2000
	serveColdShare = 0.01 // cold GetOrFill
	serveWriteRate = 0.05 // PUT and DELETE
	opTimeout      = 5 * time.Second
	// readLimitMs is the latency limit read_p99_ms must meet at a step
	// of the capacity ladder.
	readLimitMs = 100
	ladderStep  = time.Second
)

// capacityLadder is the fixed offered-rate ladder capacity_rps is read
// from, in operations per second.
var capacityLadder = []float64{500, 1000, 2000, 3000, 3500, 4000, 4500, 5000, 5500, 6000, 7000, 8000, 10000, 12000, 16000, 20000}

// deploymentSeed fixes the live deployments' topology: the system under
// test is the same in every run, and --seed varies only its inputs.
const deploymentSeed = 1

// keySpec is one preloaded key and its replica addresses.
type keySpec struct {
	Key   string   `json:"key"`
	Addrs []string `json:"addrs"`
}

// serverPhase is what the server process reports for the measured
// phase, between its "begin" and "end" commands.
type serverPhase struct {
	CPUS     float64 `json:"cpu_s"`
	RSSMB    float64 `json:"rss_mb"`
	Requests float64 `json:"requests"`
	// Live network message counts over the phase (one message = one hop).
	QueryHops    uint64  `json:"query_hops"`
	UpdateHops   uint64  `json:"update_hops"`
	ClearBitHops uint64  `json:"clearbit_hops"`
	GC           gcStats `json:"gc"`
	// Traced runs only.
	Spans     map[string]spanTotal `json:"spans,omitempty"`
	Status    map[string]int64     `json:"status,omitempty"`
	Hits      float64              `json:"hits"`
	Misses    float64              `json:"misses"`
	InboxPeak float64              `json:"inbox_peak"`
}

// genKeys generates n keys named after prefix, each with its replica
// addresses, from the seed.
func genKeys(rng *rand.Rand, prefix string, n, replicas int) []keySpec {
	keys := make([]keySpec, n)
	for i := range keys {
		keys[i].Key = fmt.Sprintf("%s%08x-%d", prefix, rng.Uint32(), i)
		for r := 0; r < replicas; r++ {
			keys[i].Addrs = append(keys[i].Addrs, randAddr(rng))
		}
	}
	return keys
}

func randAddr(rng *rand.Rand) string {
	return fmt.Sprintf("10.%d.%d.%d:%d", rng.Intn(256), rng.Intn(256), rng.Intn(256), 1024+rng.Intn(60000))
}

// serveRun is one server process driven through one measured phase.
type serveRun struct {
	setups   []float64
	phase    serverPhase
	loop     loopSummary
	capacity float64
	client   client.Stats
	ops      clientTrace
	rt       spanTotal
}

func runServe(ctx context.Context, cfg runConfig) (*outcome, error) {
	out := newOutcome()
	u, err := serveOnce(ctx, cfg, false, !cfg.traced)
	if err != nil {
		return nil, err
	}
	v := out.values
	v["setup_s"] = median(u.setups)
	v["peak_rss_mb"] = u.phase.RSSMB
	v["cpu_ms_per_kop"] = u.phase.CPUS * 1000 / (u.phase.Requests / 1000)
	v["capacity_rps"] = u.capacity
	u.loop.report(out, v)
	out.info["requests"] = u.phase.Requests
	out.info["rate"] = serveRate
	if !cfg.traced {
		return out, nil
	}

	t, err := serveOnce(ctx, cfg, true, false)
	if err != nil {
		return nil, err
	}
	t.loop.report(out, map[string]float64{})
	v["gen.lag_p99_ms"], v["gen.inflight_peak"] = t.loop.LagP99, float64(t.loop.InflightPeak)
	p := t.phase
	ops := float64(t.ops.read.N + t.ops.fill.N + t.ops.write.N)
	opNs := float64(t.ops.read.Ns + t.ops.fill.Ns + t.ops.write.Ns)
	var handler spanTotal
	for _, r := range routes {
		handler.N += p.Spans[r].N
		handler.Ns += p.Spans[r].Ns
	}
	backendNs := float64(p.Spans["lookup.hit"].Ns + p.Spans["lookup.miss"].Ns + p.Spans["publish"].Ns)
	v["client.op_ms"] = ratio(opNs/1e6, ops)
	v["client.op_ms.read"] = t.ops.read.meanMs()
	v["client.op_ms.fill"] = t.ops.fill.meanMs()
	v["client.op_ms.write"] = t.ops.write.meanMs()
	v["client.retries"] = float64(t.client.Busy)
	v["client.promises"] = float64(t.client.Promises)
	v["http.roundtrip_ms"] = t.rt.meanMs()
	v["serve.handler_ms"] = handler.meanMs()
	for _, r := range routes {
		v["serve.handler_ms."+r] = p.Spans[r].meanMs()
	}
	// Per client operation, each layer's self time: these four add up
	// to client.op_ms.
	v["client.self_ms"] = ratio((opNs-float64(t.rt.Ns))/1e6, ops)
	v["http.self_ms"] = ratio(float64(t.rt.Ns-handler.Ns)/1e6, ops)
	v["serve.self_ms"] = ratio((float64(handler.Ns)-backendNs)/1e6, ops)
	v["live.self_ms"] = ratio(backendNs/1e6, ops)
	for name, self := range map[string]float64{"client": v["client.self_ms"], "http": v["http.self_ms"], "serve": v["serve.self_ms"]} {
		if self < 0 {
			out.failf("%s spans do not nest: self time %.4f ms per operation", name, self)
		}
	}
	v["serve.hit_ratio"] = ratio(p.Hits, p.Hits+p.Misses)
	for _, s := range statusClasses {
		v["serve.status."+s] = float64(p.Status[s])
	}
	lookups := spanTotal{p.Spans["lookup.hit"].N + p.Spans["lookup.miss"].N, p.Spans["lookup.hit"].Ns + p.Spans["lookup.miss"].Ns}
	v["live.lookup_ms"] = lookups.meanMs()
	v["live.lookup_ms.hit"] = p.Spans["lookup.hit"].meanMs()
	v["live.lookup_ms.miss"] = p.Spans["lookup.miss"].meanMs()
	v["live.publish_ms"] = p.Spans["publish"].meanMs()
	v["live.inbox_peak_frac"] = p.InboxPeak
	v["cup.query_hops"] = float64(p.QueryHops)
	v["cup.update_hops"] = float64(p.UpdateHops)
	v["cup.clearbit_hops"] = float64(p.ClearBitHops)
	v["cup.query_hops_per_lookup"] = ratio(float64(p.QueryHops), float64(lookups.N))
	v["cup.update_hops_per_write"] = ratio(float64(p.UpdateHops), float64(p.Spans["publish"].N))
	gcLayers(v, p.GC, p.Requests)
	v["trace.overhead_frac"] = (p.CPUS/p.Requests)/(u.phase.CPUS/u.phase.Requests) - 1
	runLayers(v)
	return out, nil
}

// routes are the serving layer's /v1 routes; statusClasses bucket the
// answers the traced handler sees.
var (
	routes        = []string{"get", "put", "delete", "promise"}
	statusClasses = []string{"2xx", "404", "409", "429", "503", "504", "other"}
)

// serveGen generates serve-mixed operations from the seed: warm GETs,
// about 1% cold GetOrFill and about 5% PUT/DELETE writes.
type serveGen struct {
	rng    *rand.Rand
	keys   []string
	pub    *published
	writes *writeBook
	phase  int
	cold   int
	salt   uint32
	spans  *clientSpans
}

func newServeGen(rng *rand.Rand, keys []keySpec, spans *clientSpans) *serveGen {
	g := &serveGen{rng: rng, pub: newPublished(), salt: rng.Uint32(), spans: spans}
	g.writes = newWriteBook(rng, keys, g.pub)
	for _, k := range keys {
		g.keys = append(g.keys, k.Key)
	}
	return g
}

func (g *serveGen) span(pick func(*clientSpans) *spanStat) *spanStat {
	if g.spans == nil {
		return nil
	}
	return pick(g.spans)
}

// schedule generates one open-loop phase at rate for dur. With strict
// set, a warm key answering a miss is a wrong answer; without it (the
// capacity ladder, which overloads on purpose) it is a failed operation.
func (g *serveGen) schedule(c *client.Client, rate float64, dur time.Duration, strict bool) []schedOp {
	g.phase++
	n := int(rate * dur.Seconds())
	ops := make([]schedOp, 0, n)
	for i := 0; i < n; i++ {
		at := time.Duration(float64(i) / rate * float64(time.Second))
		switch u := g.rng.Float64(); {
		case u < serveColdShare:
			ops = append(ops, g.fill(c, at))
		case u < serveColdShare+serveWriteRate:
			ops = append(ops, g.write(c, at))
		default:
			ops = append(ops, g.read(c, at, strict))
		}
	}
	return ops
}

func addrsOf(entries []client.Entry) []string {
	out := make([]string, len(entries))
	for i, e := range entries {
		out[i] = e.Addr
	}
	return out
}

func (g *serveGen) read(c *client.Client, at time.Duration, strict bool) schedOp {
	key := g.keys[g.rng.Intn(len(g.keys))]
	span := g.span(func(s *clientSpans) *spanStat { return &s.read })
	return schedOp{at: at, class: classRead, run: func(ctx context.Context) (error, error) {
		entries, err := timed(span, func() ([]client.Entry, error) { return c.Get(ctx, key) })
		if err != nil {
			if strict && errors.Is(err, client.ErrMiss) {
				return nil, fmt.Errorf("key %q with a live replica answered a miss", key)
			}
			return err, nil
		}
		return nil, g.pub.check(key, addrsOf(entries))
	}}
}

func (g *serveGen) fill(c *client.Client, at time.Duration) schedOp {
	g.cold++
	key := fmt.Sprintf("cold-%08x-%d", g.salt, g.cold)
	addr := randAddr(g.rng)
	span := g.span(func(s *clientSpans) *spanStat { return &s.fill })
	fill := func(context.Context) (client.Entry, time.Duration, error) {
		return client.Entry{Replica: 0, Addr: addr}, serveTTL, nil
	}
	return schedOp{at: at, class: classRead, run: func(ctx context.Context) (error, error) {
		g.pub.add(key, addr)
		entries, err := timed(span, func() ([]client.Entry, error) { return c.GetOrFill(ctx, key, fill) })
		if err != nil {
			return err, nil
		}
		return nil, g.pub.check(key, addrsOf(entries))
	}}
}

func (g *serveGen) write(c *client.Client, at time.Duration) schedOp {
	span := g.span(func(s *clientSpans) *spanStat { return &s.write })
	w := g.writes.pick(at, g.phase)
	return schedOp{at: at, class: classWrite, run: func(ctx context.Context) (error, error) {
		_, err := timed(span, func() (struct{}, error) {
			if w.del {
				return struct{}{}, c.Delete(ctx, w.key, w.replica)
			}
			g.pub.add(w.key, w.addr)
			return struct{}{}, c.Put(ctx, w.key, client.Entry{Replica: w.replica, Addr: w.addr}, serveTTL)
		})
		return err, nil
	}}
}

// serverProc is the server under test, a child process driven by line
// commands on its stdin.
type serverProc struct {
	cmd *exec.Cmd
	in  io.WriteCloser
	out *bufio.Reader
}

func (s *serverProc) call(cmd string, v any) error {
	if _, err := fmt.Fprintln(s.in, cmd); err != nil {
		return fmt.Errorf("server %s: %w", cmd, err)
	}
	line, err := s.out.ReadBytes('\n')
	if err != nil {
		return fmt.Errorf("server %s: %w", cmd, err)
	}
	return json.Unmarshal(line, v)
}

// stop asks the server to exit and waits for it.
func (s *serverProc) stop() error {
	_, _ = fmt.Fprintln(s.in, "quit")
	_ = s.in.Close()
	return s.cmd.Wait()
}

// serveOnce boots one server process, warms its caches, drives the
// measured phase at the fixed rate and, with ladder set, the capacity
// ladder.
func serveOnce(ctx context.Context, cfg runConfig, traced, ladder bool) (*serveRun, error) {
	rng := rand.New(rand.NewSource(cfg.seed))
	keys := genKeys(rng, "warm-", serveWarmKeys, serveReplicas)
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.CommandContext(ctx, self, "child", "serve", "-traced="+strconv.FormatBool(traced))
	cmd.Stderr = os.Stderr
	cmd.WaitDelay = 5 * time.Second
	in, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start server: %w", err)
	}
	srv := &serverProc{cmd: cmd, in: in, out: bufio.NewReader(stdout)}
	defer srv.stop()

	line, _ := json.Marshal(keys)
	var ready struct {
		Addr   string    `json:"addr"`
		SetupS []float64 `json:"setup_s"`
	}
	if err := srv.call(string(line), &ready); err != nil {
		return nil, err
	}

	// At most nproc connections, as many as the server has cores.
	tr := http.DefaultTransport.(*http.Transport).Clone()
	tr.MaxConnsPerHost = runtime.NumCPU()
	tr.MaxIdleConnsPerHost = runtime.NumCPU()
	var (
		rt    http.RoundTripper = tr
		tt    *timingTransport
		spans *clientSpans
	)
	if traced {
		tt = &timingTransport{base: tr}
		rt = tt
		spans = &clientSpans{}
	}
	c, err := client.New(client.Config{
		Hosts: []string{ready.Addr},
		HTTP:  &http.Client{Transport: rt, Timeout: opTimeout},
		Seed:  cfg.seed,
	})
	if err != nil {
		return nil, err
	}
	defer c.Close()
	defer tr.CloseIdleConnections()

	g := newServeGen(rng, keys, spans)
	// Warm every entry node's cache before timing: one read per key.
	for _, k := range keys {
		entries, err := c.Get(ctx, k.Key)
		if err != nil {
			return nil, fmt.Errorf("warm-up read of %q: %w", k.Key, err)
		}
		if err := g.pub.check(k.Key, addrsOf(entries)); err != nil {
			return nil, fmt.Errorf("warm-up: %w", err)
		}
	}
	if spans != nil {
		*spans = clientSpans{}
		tt.span = spanStat{}
	}

	run := &serveRun{setups: ready.SetupS}
	var ack struct{}
	if err := srv.call("begin", &ack); err != nil {
		return nil, err
	}
	stats0 := c.Stats()
	ops := g.schedule(c, serveRate, time.Duration(cfg.seconds*float64(time.Second)), true)
	run.loop = runOpenLoop(ctx, ops, opTimeout).summary()
	if err := srv.call("end", &run.phase); err != nil {
		return nil, err
	}
	stats := c.Stats()
	run.client = client.Stats{Busy: stats.Busy - stats0.Busy, Promises: stats.Promises - stats0.Promises}
	if spans != nil {
		run.ops = clientTrace{spans.read.total(), spans.fill.total(), spans.write.total()}
		run.rt = tt.span.total()
	}
	if ladder {
		run.capacity, err = climbLadder(ctx, g, c)
		if err != nil {
			return nil, err
		}
	}
	return run, nil
}

// climbLadder binary-searches the fixed ladder for the highest offered
// rate at which read_p99_ms meets the limit and the backlog does not
// grow (reads due in the step's last quarter still meet it at p50).
func climbLadder(ctx context.Context, g *serveGen, c *client.Client) (float64, error) {
	lo, hi := -1, len(capacityLadder)
	for hi-lo > 1 {
		mid := (lo + hi) / 2
		r := runOpenLoop(ctx, g.schedule(c, capacityLadder[mid], ladderStep, false), opTimeout)
		if len(r.wrong) > 0 {
			return 0, fmt.Errorf("capacity ladder at %g/s: wrong answer: %v", capacityLadder[mid], r.wrong[0])
		}
		p99, lateP50 := percentileMs(r.latencies(classRead, false), 0.99), percentileMs(r.latencies(classRead, true), 0.50)
		pass := p99 <= readLimitMs && lateP50 <= readLimitMs
		fmt.Fprintf(os.Stderr, "capacity ladder %g/s: read p99 %.2f ms, last-quarter p50 %.2f ms, pass %v\n",
			capacityLadder[mid], p99, lateP50, pass)
		if pass {
			lo = mid
		} else {
			hi = mid
		}
	}
	if lo < 0 {
		return 0, nil
	}
	return capacityLadder[lo], nil
}

// serveChild is the server under test: it boots the deployment
// serveSetups times (reporting each set-up time, keeping the last), then
// answers "begin", "end" and "quit" on stdin.
func serveChild(args []string, in *bufio.Reader, w io.Writer) error {
	fs := flag.NewFlagSet("serve", flag.ContinueOnError)
	traced := fs.Bool("traced", false, "serve through timing wrappers")
	if err := fs.Parse(args); err != nil {
		return err
	}
	line, err := in.ReadBytes('\n')
	if err != nil {
		return fmt.Errorf("read keyspace: %w", err)
	}
	var keys []keySpec
	if err := json.Unmarshal(line, &keys); err != nil {
		return fmt.Errorf("decode keyspace: %w", err)
	}
	var (
		times []float64
		s     *servedDeployment
	)
	for i := 0; i < serveSetups; i++ {
		if s != nil {
			s.close()
			s = nil
		}
		if i == serveSetups-1 {
			resetPeakRSS()
		}
		runtime.GC()
		start := time.Now()
		if s, err = startServed(*traced, keys); err != nil {
			return err
		}
		times = append(times, time.Since(start).Seconds())
	}
	defer s.close()
	enc := json.NewEncoder(w)
	if err := enc.Encode(map[string]any{"addr": s.addr, "setup_s": times}); err != nil {
		return err
	}
	for {
		cmd, err := in.ReadString('\n')
		if err != nil {
			return nil // the generator closed stdin
		}
		switch strings.TrimSpace(cmd) {
		case "begin":
			s.begin()
			err = enc.Encode(struct{}{})
		case "end":
			err = enc.Encode(s.end())
		case "quit":
			return nil
		default:
			err = fmt.Errorf("unknown command %q", cmd)
		}
		if err != nil {
			return err
		}
	}
}

// servedDeployment is the deployment under test. Untraced it is exactly
// cupd's configuration; traced, the same deployment is served by a
// serve.Server built here, with timing wrappers around its backend and
// its mux.
type servedDeployment struct {
	d       *cup.Deployment
	addr    string
	reg     *obs.Registry
	ln      *obs.Server
	srv     *serve.Server
	backend *tracedBackend
	handler *tracedHandler
	inbox   *inboxGauge

	cpu0                 float64
	probe                *gcProbe
	c0                   cup.Counters
	req0, hits0, misses0 float64
	spans0               map[string]spanTotal
	status0              map[string]int64
}

func startServed(traced bool, keys []keySpec) (*servedDeployment, error) {
	opts := []cup.Option{
		cup.WithLive(),
		cup.WithNodes(serveNodes),
		cup.WithOverlay("can"),
		cup.WithHopDelay(time.Millisecond),
		cup.WithSeed(deploymentSeed),
		cup.WithTelemetry(""),
	}
	if !traced {
		opts = append(opts, cup.WithServing("127.0.0.1:0"))
	}
	d, err := cup.New(opts...)
	if err != nil {
		return nil, err
	}
	s := &servedDeployment{d: d}
	if traced {
		s.reg = obs.NewRegistry()
		s.inbox = startInboxGauge(d)
		s.backend = &tracedBackend{b: facadeBackend{d, s.inbox}}
		if s.srv, err = serve.New(serve.Config{Backend: s.backend, Registry: s.reg}); err != nil {
			_ = d.Close()
			return nil, err
		}
		mux := obs.NewMux(s.reg, nil)
		s.srv.Register(mux)
		s.handler = newTracedHandler(mux)
		if s.ln, err = obs.Serve("127.0.0.1:0", s.handler); err != nil {
			s.close()
			return nil, err
		}
		s.addr = s.ln.Addr()
	} else {
		s.addr = d.ServingAddrs()[0]
	}
	ctx := context.Background()
	for _, k := range keys {
		for r, a := range k.Addrs {
			if err := d.Publish(ctx, cup.Key(k.Key), r, a, serveTTL); err != nil {
				s.close()
				return nil, fmt.Errorf("preload %q: %w", k.Key, err)
			}
		}
	}
	return s, nil
}

func (s *servedDeployment) close() {
	if s.ln != nil {
		_ = s.ln.Close()
	}
	if s.srv != nil {
		_ = s.srv.Close()
	}
	if s.inbox != nil {
		s.inbox.close()
	}
	_ = s.d.Close()
}

// requests is how many HTTP requests the serving layer has answered.
func (s *servedDeployment) requests() float64 {
	snaps := s.d.Metrics()
	if s.reg != nil {
		snaps = s.reg.Snapshot()
	}
	var n float64
	for _, m := range snaps {
		if m.Name == serve.MetricHTTPRequests {
			n += m.Value
		}
	}
	return n
}

func (s *servedDeployment) begin() {
	s.c0 = s.d.Counters()
	s.req0 = s.requests()
	if s.handler != nil {
		s.spans0, s.status0 = s.spanTotals(), s.handler.statusCounts()
		s.hits0, _ = s.reg.Value(serve.MetricHits)
		s.misses0, _ = s.reg.Value(serve.MetricMisses)
		s.inbox.resetPeak()
	}
	s.probe = startGCProbe(s.handler != nil)
	s.cpu0 = cpuSeconds()
}

func (s *servedDeployment) end() serverPhase {
	p := serverPhase{CPUS: cpuSeconds() - s.cpu0}
	p.GC = s.probe.finish()
	p.RSSMB = peakRSSMB()
	p.Requests = s.requests() - s.req0
	c := s.d.Counters()
	p.QueryHops = c.QueryHops - s.c0.QueryHops
	p.UpdateHops = c.UpdateHops - s.c0.UpdateHops
	p.ClearBitHops = c.ClearBitHops - s.c0.ClearBitHops
	if s.handler != nil {
		p.InboxPeak = s.inbox.peakFrac()
		p.Spans = map[string]spanTotal{}
		for k, v := range s.spanTotals() {
			p.Spans[k] = v.minus(s.spans0[k])
		}
		p.Status = map[string]int64{}
		for k, v := range s.handler.statusCounts() {
			p.Status[k] = v - s.status0[k]
		}
		hits, _ := s.reg.Value(serve.MetricHits)
		misses, _ := s.reg.Value(serve.MetricMisses)
		p.Hits, p.Misses = hits-s.hits0, misses-s.misses0
	}
	return p
}

func (s *servedDeployment) spanTotals() map[string]spanTotal {
	m := map[string]spanTotal{
		"lookup.hit":  s.backend.hit.total(),
		"lookup.miss": s.backend.miss.total(),
		"publish":     s.backend.publish.total(),
	}
	for r, span := range s.handler.spans {
		m[r] = span.total()
	}
	return m
}
