package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	cupmetrics "cup/internal/metrics"
)

// cpuSeconds is the process's user plus system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// resetPeakRSS returns freed memory to the OS and restarts the peak
// resident set count, so that a workload which sets its deployment up
// several times (to take the median set-up time) reports the peak of one
// set-up and its measured phase, not of the earlier set-ups' garbage.
func resetPeakRSS() {
	debug.FreeOSMemory()
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		fmt.Fprintf(os.Stderr, "cupperf: peak RSS not reset, it covers every set-up: %v\n", err)
	}
}

// peakRSSMB is the process's peak resident set (VmHWM) in MiB.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// percentileMs is the nearest-rank q-quantile of xs in milliseconds.
// Failed operations (failedLatency) sort last, so they count as missing
// every latency limit.
func percentileMs(xs []time.Duration, q float64) float64 {
	return float64(cupmetrics.Percentile(xs, q)) / float64(time.Millisecond)
}

// gcProbe measures the Go runtime over one phase: allocations, the
// share of CPU spent in GC, and (sampled) the peak live heap.
type gcProbe struct {
	mallocs0      uint64
	gcCPU0, cpu0  float64
	stop          chan struct{}
	wg            sync.WaitGroup
	mu            sync.Mutex
	heapPeakBytes uint64
}

var gcSamples = []metrics.Sample{
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
	{Name: "/memory/classes/heap/objects:bytes"},
}

func readGC() (gcCPU, total float64, heap uint64) {
	s := append([]metrics.Sample(nil), gcSamples...)
	metrics.Read(s)
	f := func(i int) float64 {
		if s[i].Value.Kind() == metrics.KindFloat64 {
			return s[i].Value.Float64()
		}
		return 0
	}
	if s[2].Value.Kind() == metrics.KindUint64 {
		heap = s[2].Value.Uint64()
	}
	return f(0), f(1), heap
}

// startGCProbe begins a phase; sampleHeap adds a 10 ms live-heap sampler
// (traced runs only: it costs a little CPU).
func startGCProbe(sampleHeap bool) *gcProbe {
	p := &gcProbe{stop: make(chan struct{})}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	p.mallocs0 = ms.Mallocs
	p.gcCPU0, p.cpu0, p.heapPeakBytes = readGC()
	if sampleHeap {
		p.wg.Add(1)
		go func() {
			defer p.wg.Done()
			t := time.NewTicker(10 * time.Millisecond)
			defer t.Stop()
			for {
				select {
				case <-p.stop:
					return
				case <-t.C:
					_, _, h := readGC()
					p.mu.Lock()
					p.heapPeakBytes = max(p.heapPeakBytes, h)
					p.mu.Unlock()
				}
			}
		}()
	}
	return p
}

// gcStats is what a gcProbe reports for its phase.
type gcStats struct {
	Mallocs    uint64  `json:"mallocs"`
	CPUFrac    float64 `json:"cpu_frac"`
	HeapPeakMB float64 `json:"heap_peak_mb"`
}

func (p *gcProbe) finish() gcStats {
	close(p.stop)
	p.wg.Wait()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	gcCPU, cpu, heap := readGC()
	st := gcStats{Mallocs: ms.Mallocs - p.mallocs0}
	if d := cpu - p.cpu0; d > 0 {
		st.CPUFrac = (gcCPU - p.gcCPU0) / d
	}
	p.mu.Lock()
	st.HeapPeakMB = float64(max(p.heapPeakBytes, heap)) / (1 << 20)
	p.mu.Unlock()
	return st
}

// ratio is a/b, or 0 when b is 0 (a layer the workload never used).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
