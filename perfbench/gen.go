package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"
)

// published is every address the generator has published per key. A
// read answer may hold only these: caches may lag a delete, so an
// address once published stays allowed.
type published struct {
	mu    sync.Mutex
	addrs map[string]map[string]bool
}

func newPublished() *published { return &published{addrs: map[string]map[string]bool{}} }

// add allows addr for key. Callers add before they send the write, so a
// read racing the write may already see it.
func (p *published) add(key, addr string) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.addrs[key] == nil {
		p.addrs[key] = map[string]bool{}
	}
	p.addrs[key][addr] = true
}

// check reports an answer that is empty or holds an address the
// generator never published for key.
func (p *published) check(key string, answer []string) error {
	if len(answer) == 0 {
		return fmt.Errorf("key %q with a live replica answered a miss", key)
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, a := range answer {
		if !p.addrs[key][a] {
			return fmt.Errorf("key %q answered address %q the generator never published for it", key, a)
		}
	}
	return nil
}

type opClass int

const (
	classRead opClass = iota
	classWrite
)

// schedOp is one arrival of an open loop: due at offset at from the
// phase start.
type schedOp struct {
	at    time.Duration
	class opClass
	// run performs the operation. failed is an error the system
	// returned (a refused or failed call); wrong is an answer the
	// checker rejects.
	run func(ctx context.Context) (failed, wrong error)
}

// failedLatency is the latency of a failed operation: it misses every
// latency limit.
const failedLatency = time.Duration(math.MaxInt64)

// loopResult is one open-loop phase. Latencies run from each
// operation's scheduled arrival to its completion, in schedule order,
// with failedLatency for a failed operation.
type loopResult struct {
	lat          []time.Duration
	class        []opClass
	lag          []time.Duration
	inflightPeak int64
	attempted    uint64
	failed       uint64
	failures     []error
	wrong        []error
}

// runOpenLoop dispatches every arrival on its own goroutine at its
// scheduled time, so a slow operation never delays later sends, and
// waits for all of them. opTimeout bounds each operation.
func runOpenLoop(ctx context.Context, ops []schedOp, opTimeout time.Duration) *loopResult {
	r := &loopResult{
		lat:   make([]time.Duration, len(ops)),
		class: make([]opClass, len(ops)),
		lag:   make([]time.Duration, len(ops)),
	}
	var (
		mu       sync.Mutex
		wg       sync.WaitGroup
		inflight atomic.Int64
	)
	start := time.Now().Add(5 * time.Millisecond)
	for i, op := range ops {
		due := start.Add(op.at)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		if ctx.Err() != nil {
			break
		}
		r.class[i] = op.class
		r.attempted++
		wg.Add(1)
		go func(i int, op schedOp, due time.Time) {
			defer wg.Done()
			r.lag[i] = time.Since(due)
			n := inflight.Add(1)
			defer inflight.Add(-1)
			mu.Lock()
			r.inflightPeak = max(r.inflightPeak, n)
			mu.Unlock()
			octx, cancel := context.WithTimeout(ctx, opTimeout)
			defer cancel()
			failed, wrong := op.run(octx)
			r.lat[i] = time.Since(due)
			if failed == nil && wrong == nil {
				return
			}
			r.lat[i] = failedLatency
			mu.Lock()
			defer mu.Unlock()
			r.failed++
			if failed != nil {
				r.failures = append(r.failures, failed)
			}
			if wrong != nil {
				r.wrong = append(r.wrong, wrong)
			}
		}(i, op, due)
	}
	wg.Wait()
	r.lat = r.lat[:r.attempted]
	r.class = r.class[:r.attempted]
	r.lag = r.lag[:r.attempted]
	return r
}

// latencies returns the latencies of one class of operation, optionally
// only those scheduled in the last quarter of the phase.
func (r *loopResult) latencies(c opClass, lastQuarter bool) []time.Duration {
	var out []time.Duration
	from := 0
	if lastQuarter {
		from = len(r.lat) * 3 / 4
	}
	for i := from; i < len(r.lat); i++ {
		if r.class[i] == c {
			out = append(out, r.lat[i])
		}
	}
	return out
}

// loopSummary is what one open-loop phase reports.
type loopSummary struct {
	ReadP50      float64  `json:"read_p50_ms"`
	ReadP99      float64  `json:"read_p99_ms"`
	WriteP50     float64  `json:"write_p50_ms"`
	WriteP99     float64  `json:"write_p99_ms"`
	LagP99       float64  `json:"lag_p99_ms"`
	InflightPeak int64    `json:"inflight_peak"`
	Reads        int      `json:"reads"`
	Writes       int      `json:"writes"`
	Attempted    uint64   `json:"attempted"`
	Failed       uint64   `json:"failed"`
	FailedOps    []string `json:"failed_ops,omitempty"`
	Wrong        []string `json:"wrong,omitempty"`
}

func (r *loopResult) summary() loopSummary {
	reads, writes := r.latencies(classRead, false), r.latencies(classWrite, false)
	s := loopSummary{
		ReadP50:      percentileMs(reads, 0.50),
		ReadP99:      percentileMs(reads, 0.99),
		WriteP50:     percentileMs(writes, 0.50),
		WriteP99:     percentileMs(writes, 0.99),
		LagP99:       percentileMs(r.lag, 0.99),
		InflightPeak: r.inflightPeak,
		Reads:        len(reads),
		Writes:       len(writes),
		Attempted:    r.attempted,
		Failed:       r.failed,
	}
	for i, err := range r.failures {
		if i == 5 {
			break
		}
		s.FailedOps = append(s.FailedOps, err.Error())
	}
	for i, err := range r.wrong {
		if i == 5 {
			s.Wrong = append(s.Wrong, fmt.Sprintf("%d more wrong answers", len(r.wrong)-i))
			break
		}
		s.Wrong = append(s.Wrong, "wrong answer: "+err.Error())
	}
	// The generator must keep to its schedule for the latencies to mean
	// anything.
	if s.LagP99 > maxLagMs {
		s.Wrong = append(s.Wrong, fmt.Sprintf("generator fell behind its schedule: lag p99 %.1f ms > %d ms", s.LagP99, maxLagMs))
	}
	return s
}

// report adds the phase's latency metrics, error fraction and generator
// figures to v, and its counts and checks to out. A failed or refused
// operation counts against error_frac and every latency limit; only a
// wrong answer (or a generator off its schedule) fails the run.
func (s loopSummary) report(out *outcome, v map[string]float64) {
	v["read_p50_ms"], v["read_p99_ms"] = s.ReadP50, s.ReadP99
	v["write_p50_ms"], v["write_p99_ms"] = s.WriteP50, s.WriteP99
	v["error_frac"] = ratio(float64(s.Failed), float64(s.Attempted))
	v["gen.lag_p99_ms"] = s.LagP99
	v["gen.inflight_peak"] = float64(s.InflightPeak)
	out.info["reads"], out.info["writes"] = s.Reads, s.Writes
	if len(s.FailedOps) > 0 {
		out.info["failed_ops"] = s.FailedOps
	}
	out.attempted += s.Attempted
	out.failed += s.Failed
	for _, w := range s.Wrong {
		out.failf("%s", w)
	}
}

// maxLagMs is how late the generator may dispatch its arrivals (p99)
// before a run is invalid.
const maxLagMs = 250

// writeBook picks a generator's writes: a new replica for a random key,
// or, half the time once one is old enough, the delete of the oldest
// replica the generator added. Preloaded replicas are never deleted, so
// every key keeps a live replica.
type writeBook struct {
	rng  *rand.Rand
	keys []string
	next map[string]int
	puts []putRec
}

// putRec is a replica the generator added and may delete again.
type putRec struct {
	key     string
	replica int
	phase   int
	at      time.Duration
}

// write is one picked write: a delete of (key, replica), or an add of
// replica at addr.
type write struct {
	del     bool
	key     string
	replica int
	addr    string
}

func newWriteBook(rng *rand.Rand, keys []keySpec, pub *published) *writeBook {
	b := &writeBook{rng: rng, next: map[string]int{}}
	for _, k := range keys {
		b.keys = append(b.keys, k.Key)
		b.next[k.Key] = len(k.Addrs)
		for _, a := range k.Addrs {
			pub.add(k.Key, a)
		}
	}
	return b
}

// pick chooses the write due at offset at of the given phase. A delete
// targets only a replica added at least a second earlier, so it does not
// overtake its add.
func (b *writeBook) pick(at time.Duration, phase int) write {
	if len(b.puts) > 0 && (b.puts[0].phase < phase || b.puts[0].at+time.Second <= at) && b.rng.Intn(2) == 0 {
		p := b.puts[0]
		b.puts = b.puts[1:]
		return write{del: true, key: p.key, replica: p.replica}
	}
	key := b.keys[b.rng.Intn(len(b.keys))]
	w := write{key: key, replica: b.next[key], addr: randAddr(b.rng)}
	b.next[key]++
	b.puts = append(b.puts, putRec{key: key, replica: w.replica, phase: phase, at: at})
	return w
}
