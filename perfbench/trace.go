package main

import (
	"context"
	"math"
	"net/http"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"cup"
	"cup/internal/overlay"
	"cup/internal/serve"
	"cup/internal/sim"
)

// The traced run's instruments: timing wrappers the benchmark puts
// around each layer's public surface. Untraced runs use none of them.

// spanTotal is a count of spans and their summed duration.
type spanTotal struct {
	N  int64 `json:"n"`
	Ns int64 `json:"ns"`
}

func (s spanTotal) meanMs() float64 { return ratio(float64(s.Ns)/1e6, float64(s.N)) }

// spanStat accumulates spans from many goroutines.
type spanStat struct{ n, ns atomic.Int64 }

func (s *spanStat) add(d time.Duration) {
	s.n.Add(1)
	s.ns.Add(int64(d))
}

func (s *spanStat) total() spanTotal { return spanTotal{s.n.Load(), s.ns.Load()} }

func (s spanTotal) minus(o spanTotal) spanTotal { return spanTotal{s.N - o.N, s.Ns - o.Ns} }

// clientSpans times the generator's client calls by kind (traced runs).
type clientSpans struct{ read, fill, write spanStat }

type clientTrace struct{ read, fill, write spanTotal }

// timed runs f, adding its duration to span when tracing.
func timed[T any](span *spanStat, f func() (T, error)) (T, error) {
	if span == nil {
		return f()
	}
	start := time.Now()
	v, err := f()
	span.add(time.Since(start))
	return v, err
}

// timingTransport times every HTTP round trip of the client (traced
// runs): from sending the request to receiving the response headers.
type timingTransport struct {
	base http.RoundTripper
	span spanStat
}

func (t *timingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	start := time.Now()
	resp, err := t.base.RoundTrip(req)
	t.span.add(time.Since(start))
	return resp, err
}

// facadeBackend serves a cup.Deployment through its public API, as the
// façade's own serving adapter does. Its inbox load for the shed guard
// is the inboxGauge's last sample, at most 5 ms old, where the façade
// reads the inboxes directly on every request: the traced server spends
// less per request on it, not more.
type facadeBackend struct {
	d     *cup.Deployment
	inbox *inboxGauge
}

func (b facadeBackend) Size() int     { return b.d.Size() }
func (b facadeBackend) Now() sim.Time { return b.d.Now() }

func (b facadeBackend) LookupAt(ctx context.Context, at cup.NodeID, key cup.Key) ([]cup.Entry, error) {
	return b.d.LookupAt(ctx, at, key)
}

func (b facadeBackend) Publish(ctx context.Context, key cup.Key, replica int, addr string, lifetime time.Duration) error {
	return b.d.Publish(ctx, key, replica, addr, lifetime)
}

func (b facadeBackend) Unpublish(ctx context.Context, key cup.Key, replica int) error {
	return b.d.Unpublish(ctx, key, replica)
}

func (b facadeBackend) Load() (used, capacity int) { return b.inbox.load() }

// inboxGauge reads a deployment's live inbox occupancy from its
// telemetry gauges every 5 ms, keeps the last reading for the shed guard
// and tracks the peak occupancy since resetPeak.
type inboxGauge struct {
	d              *cup.Deployment
	used, capacity atomic.Int64
	peak           atomic.Uint64 // math.Float64bits of the peak fraction
	stop, done     chan struct{}
}

func startInboxGauge(d *cup.Deployment) *inboxGauge {
	g := &inboxGauge{d: d, stop: make(chan struct{}), done: make(chan struct{})}
	g.sample()
	go func() {
		defer close(g.done)
		t := time.NewTicker(5 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-g.stop:
				return
			case <-t.C:
				g.sample()
			}
		}
	}()
	return g
}

func (g *inboxGauge) sample() {
	u, _ := g.d.MetricValue("cup_live_inbox_used")
	c, _ := g.d.MetricValue("cup_live_inbox_capacity")
	g.used.Store(int64(u))
	g.capacity.Store(int64(c))
	if f := ratio(u, c); f > math.Float64frombits(g.peak.Load()) {
		g.peak.Store(math.Float64bits(f))
	}
}

func (g *inboxGauge) load() (used, capacity int) {
	return int(g.used.Load()), int(g.capacity.Load())
}

func (g *inboxGauge) resetPeak()        { g.peak.Store(0) }
func (g *inboxGauge) peakFrac() float64 { return math.Float64frombits(g.peak.Load()) }

func (g *inboxGauge) close() {
	close(g.stop)
	<-g.done
}

// tracedBackend times the serving layer's calls into the live network:
// lookups split by whether they answered (hit) or came back empty
// (miss), and publishes with unpublishes.
type tracedBackend struct {
	b                  serve.Backend
	hit, miss, publish spanStat
}

func (t *tracedBackend) Size() int                  { return t.b.Size() }
func (t *tracedBackend) Now() sim.Time              { return t.b.Now() }
func (t *tracedBackend) Load() (used, capacity int) { return t.b.Load() }

func (t *tracedBackend) LookupAt(ctx context.Context, at cup.NodeID, key cup.Key) ([]cup.Entry, error) {
	start := time.Now()
	entries, err := t.b.LookupAt(ctx, at, key)
	if len(entries) > 0 {
		t.hit.add(time.Since(start))
	} else {
		t.miss.add(time.Since(start))
	}
	return entries, err
}

func (t *tracedBackend) Publish(ctx context.Context, key cup.Key, replica int, addr string, lifetime time.Duration) error {
	start := time.Now()
	err := t.b.Publish(ctx, key, replica, addr, lifetime)
	t.publish.add(time.Since(start))
	return err
}

func (t *tracedBackend) Unpublish(ctx context.Context, key cup.Key, replica int) error {
	start := time.Now()
	err := t.b.Unpublish(ctx, key, replica)
	t.publish.add(time.Since(start))
	return err
}

// tracedHandler times the registered mux per /v1 route and counts the
// status codes it answers.
type tracedHandler struct {
	h      http.Handler
	spans  map[string]*spanStat
	status map[string]*atomic.Int64
}

func newTracedHandler(h http.Handler) *tracedHandler {
	t := &tracedHandler{h: h, spans: map[string]*spanStat{}, status: map[string]*atomic.Int64{}}
	for _, r := range routes {
		t.spans[r] = &spanStat{}
	}
	for _, s := range statusClasses {
		t.status[s] = &atomic.Int64{}
	}
	return t
}

func (t *tracedHandler) statusCounts() map[string]int64 {
	m := map[string]int64{}
	for k, v := range t.status {
		m[k] = v.Load()
	}
	return m
}

type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}

func (t *tracedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	route := ""
	if strings.HasPrefix(r.URL.Path, "/v1/key/") {
		switch r.Method {
		case http.MethodGet:
			route = "get"
		case http.MethodPut:
			route = "put"
		case http.MethodDelete:
			route = "delete"
		case http.MethodPost:
			route = "promise"
		}
	}
	if route == "" {
		t.h.ServeHTTP(w, r)
		return
	}
	sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
	start := time.Now()
	t.h.ServeHTTP(sw, r)
	t.spans[route].add(time.Since(start))
	class := "other"
	switch c := sw.code; {
	case c >= 200 && c < 300:
		class = "2xx"
	case c == 404 || c == 409 || c == 429 || c == 503 || c == 504:
		class = strconv.Itoa(c)
	}
	t.status[class].Add(1)
}

// overlayTrace times builds and next-hop calls of one overlay kind
// through a benchmark-registered kind that delegates to the real one.
type overlayTrace struct {
	kind     string
	builds   atomic.Int64
	buildNs  atomic.Int64
	hopCalls atomic.Int64
	hopNs    atomic.Int64
}

func (t *overlayTrace) buildSeconds() float64 { return float64(t.buildNs.Load()) / 1e9 }

// dynamicOverlay is the optional churn interface the simulator and the
// live networks type-assert on an overlay; the traced kind forwards it
// when the real overlay has it.
type dynamicOverlay interface {
	overlay.Overlay
	Alive(overlay.NodeID) bool
	JoinRand(*sim.Rand) overlay.NodeID
	Leave(overlay.NodeID) overlay.NodeID
}

// traceOverlay registers "traced-<kind>" and returns its counters.
// Registration is not concurrency-safe, so it runs once, before any
// deployment exists.
func traceOverlay(kind string) *overlayTrace {
	t := &overlayTrace{kind: "traced-" + kind}
	overlay.Register(t.kind, func(n int, seed int64) overlay.Overlay {
		start := time.Now()
		ov := overlay.MustBuild(kind, n, seed)
		t.buildNs.Add(int64(time.Since(start)))
		t.builds.Add(1)
		to := tracedOverlay{Overlay: ov, t: t}
		if d, ok := ov.(dynamicOverlay); ok {
			return tracedDynamic{tracedOverlay: to, d: d}
		}
		return to
	})
	return t
}

type tracedOverlay struct {
	overlay.Overlay
	t *overlayTrace
}

func (o tracedOverlay) NextHop(n overlay.NodeID, k overlay.Key) (overlay.NodeID, bool) {
	start := time.Now()
	next, ok := o.Overlay.NextHop(n, k)
	o.t.hopNs.Add(int64(time.Since(start)))
	o.t.hopCalls.Add(1)
	return next, ok
}

type tracedDynamic struct {
	tracedOverlay
	d dynamicOverlay
}

func (o tracedDynamic) Alive(n overlay.NodeID) bool           { return o.d.Alive(n) }
func (o tracedDynamic) JoinRand(r *sim.Rand) overlay.NodeID   { return o.d.JoinRand(r) }
func (o tracedDynamic) Leave(n overlay.NodeID) overlay.NodeID { return o.d.Leave(n) }
