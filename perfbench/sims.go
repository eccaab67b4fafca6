package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"runtime"
	"strconv"
	"sync"
	"time"

	"cup"
	internal "cup/internal/cup"
	"cup/internal/metrics"
	"cup/internal/sim"
)

// simSpec is one simulated workload: the paper's batch simulator at a
// stated size.
type simSpec struct {
	Overlay  string  `json:"overlay"`
	Nodes    int     `json:"nodes"`
	Keys     int     `json:"keys"`
	Rate     float64 `json:"rate"`     // network-wide λ, queries per virtual second
	Duration float64 `json:"duration"` // query window, virtual seconds
	Dense    bool    `json:"dense"`
	Trials   bool    `json:"trials"` // WithTrials(nproc) at WithParallelism(nproc)
	// Reps is how many child runs an untraced run makes, and Setups how
	// many times each child sets the deployment up before its run (it
	// keeps the last). setup_s is the median of every set-up; the
	// children's counters must agree.
	Reps   int `json:"reps"`
	Setups int `json:"setups"`
}

var simSpecs = map[string]simSpec{
	// The paper's largest Table 2 size with its 3000 s window.
	"sim-paper": {Overlay: "can", Nodes: 4096, Keys: 16, Rate: 300, Duration: 3000, Trials: true, Reps: 2, Setups: 5},
	// The million-node experiment's settings at half the size.
	"sim-large": {Overlay: "chord", Nodes: 1 << 19, Keys: 1, Rate: 100, Duration: 600, Dense: true, Reps: 2, Setups: 1},
}

// simSeed pins the simulated workloads' inputs: their counters are the
// paper's metrics and must repeat exactly in every run of a set, so the
// benchmark's --seed does not reach them.
const simSeed = 1

// simRep is one child process's run of a simulated workload.
type simRep struct {
	SetupS   []float64        `json:"setup_s"`
	WallS    float64          `json:"wall_s"`
	CPUS     float64          `json:"cpu_s"`
	RSSMB    float64          `json:"rss_mb"`
	Workers  int              `json:"workers"`
	Counters metrics.Counters `json:"counters"`
	GC       gcStats          `json:"gc"`
	// Traced runs only.
	Events      uint64  `json:"events"`
	SetupBuildS float64 `json:"setup_build_s"`
	RunBuildS   float64 `json:"run_build_s"`
	BuildCalls  int64   `json:"build_calls"`
	HopCalls    int64   `json:"hop_calls"`
	HopNs       int64   `json:"hop_ns"`
}

func runSim(ctx context.Context, cfg runConfig) (*outcome, error) {
	spec := simSpecs[cfg.workload]
	workers := 1
	if spec.Trials {
		workers = runtime.NumCPU()
	}
	specJSON, err := json.Marshal(spec)
	if err != nil {
		return nil, err
	}
	rep := func(traced bool) (simRep, error) {
		var r simRep
		err := spawn(ctx, &r, "sim", "-spec", string(specJSON),
			"-workers", strconv.Itoa(workers), "-traced="+strconv.FormatBool(traced))
		return r, err
	}
	var reps []simRep
	n := spec.Reps
	if cfg.traced {
		n = 1
	}
	for i := 0; i < n; i++ {
		r, err := rep(false)
		if err != nil {
			return nil, err
		}
		reps = append(reps, r)
	}
	out := newOutcome()
	out.info["workers"] = workers
	out.info["reps"] = n
	for i, r := range reps {
		c := r.Counters
		checkConservation(out, fmt.Sprintf("rep %d", i), &c)
		if c != reps[0].Counters {
			out.failf("rep %d counters differ from rep 0: %s vs %s", i, c.String(), reps[0].Counters.String())
		}
		out.attempted += c.Queries
	}
	col := func(f func(simRep) float64) float64 {
		xs := make([]float64, len(reps))
		for i, r := range reps {
			xs[i] = f(r)
		}
		return median(xs)
	}
	c := reps[0].Counters
	kq := float64(c.Queries) / 1000
	var setups []float64
	for _, r := range reps {
		setups = append(setups, r.SetupS...)
	}
	out.values["setup_s"] = median(setups)
	out.values["peak_rss_mb"] = col(func(r simRep) float64 { return r.RSSMB })
	out.values["cpu_ms_per_kop"] = col(func(r simRep) float64 { return r.CPUS * 1000 / kq })
	out.values["sim_queries_per_s"] = col(func(r simRep) float64 { return float64(c.Queries) / r.WallS })
	out.values["miss_latency_hops"] = c.MissLatencyHops()
	out.values["total_cost_per_query"] = ratio(float64(c.TotalCost()), float64(c.Queries))
	out.values["error_frac"] = 0
	out.info["counters"] = c.String()

	if cfg.traced {
		t, err := rep(true)
		if err != nil {
			return nil, err
		}
		if t.Counters != c {
			out.failf("traced counters differ from untraced: %s vs %s", t.Counters.String(), c.String())
		}
		u := reps[0]
		v := out.values
		v["overlay.build_s"] = t.SetupBuildS + t.RunBuildS
		v["overlay.build_calls"] = float64(t.BuildCalls)
		v["overlay.nexthop_calls"] = float64(t.HopCalls)
		v["overlay.nexthop_ns"] = ratio(float64(t.HopNs), float64(t.HopCalls))
		v["cup.init_s"] = t.SetupS[len(t.SetupS)-1] - t.SetupBuildS
		// Parallel trials overlap their overlay spans, so the spans are
		// spread evenly over the workers before they leave the wall time.
		v["sim.run_self_s"] = t.WallS - (t.RunBuildS+float64(t.HopNs)/1e9)/float64(t.Workers)
		v["sim.events"] = float64(t.Events)
		v["sim.events_per_s"] = float64(t.Events) / t.WallS
		counterLayers(v, &t.Counters)
		v["trials.cpu_util"] = u.CPUS / (u.WallS * float64(u.Workers))
		gcLayers(v, t.GC, float64(t.Counters.Queries))
		v["trace.overhead_frac"] = t.CPUS/u.CPUS - 1
		runLayers(v)
	}
	return out, nil
}

// checkConservation fails the run when the protocol's counters break
// their invariants.
func checkConservation(out *outcome, who string, c *metrics.Counters) {
	if c.Queries == 0 {
		out.failf("%s: no simulated query ran", who)
	}
	if c.Hits > c.Queries {
		out.failf("%s: hits %d exceed queries %d", who, c.Hits, c.Queries)
	}
	if c.MissesServed > c.Misses() {
		out.failf("%s: misses served %d exceed misses %d", who, c.MissesServed, c.Misses())
	}
	if c.Coalesced > c.Misses() {
		out.failf("%s: coalesced %d exceed misses %d", who, c.Coalesced, c.Misses())
	}
}

func counterLayers(v map[string]float64, c *metrics.Counters) {
	v["cup.hit_ratio"] = ratio(float64(c.Hits), float64(c.Queries))
	v["cup.coalesced"] = float64(c.Coalesced)
	v["cup.query_hops"] = float64(c.QueryHops)
	v["cup.update_hops"] = float64(c.UpdateHops)
	v["cup.clearbit_hops"] = float64(c.ClearBitHops)
	v["cup.updates_dropped"] = float64(c.UpdatesDropped)
	v["cup.justified_frac"] = c.JustifiedFraction()
}

func gcLayers(v map[string]float64, g gcStats, ops float64) {
	v["gc.allocs_per_op"] = ratio(float64(g.Mallocs), ops)
	v["gc.cpu_frac"] = g.CPUFrac
	v["gc.heap_peak_mb"] = g.HeapPeakMB
}

func runLayers(v map[string]float64) {
	v["run.nproc"] = float64(runtime.NumCPU())
	v["run.gomaxprocs"] = float64(runtime.GOMAXPROCS(0))
}

// simChild runs one set-up and one measured run of a simulated workload
// in this process.
func simChild(args []string) (any, error) {
	fs := flag.NewFlagSet("sim", flag.ContinueOnError)
	specJSON := fs.String("spec", "", "the simulated workload, JSON")
	workers := fs.Int("workers", 1, "trials, and the trial pool's width")
	traced := fs.Bool("traced", false, "wrap the overlay and count events")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	var spec simSpec
	if err := json.Unmarshal([]byte(*specJSON), &spec); err != nil {
		return nil, fmt.Errorf("decode -spec: %w", err)
	}
	kind := spec.Overlay
	var ot *overlayTrace
	if *traced {
		ot = traceOverlay(kind)
		kind = ot.kind
	}
	opts := []cup.Option{
		cup.WithOverlay(kind),
		cup.WithNodes(spec.Nodes),
		cup.WithKeys(spec.Keys),
		cup.WithQueryRate(spec.Rate),
		cup.WithQueryDuration(cup.Seconds(spec.Duration)),
		cup.WithSeed(simSeed),
	}
	if spec.Dense {
		opts = append(opts, cup.WithDenseState())
	}
	if spec.Trials {
		opts = append(opts, cup.WithTrials(*workers), cup.WithParallelism(*workers))
	}

	ctx := context.Background()
	r := simRep{Workers: *workers}
	var (
		d          *cup.Deployment
		err        error
		build0     float64 // build seconds before the kept set-up
		buildCalls int64   // build calls before the kept set-up
	)
	for i := 0; i < max(spec.Setups, 1); i++ {
		if d != nil {
			// Drop the closed deployment before the next set-up, so that
			// neither its heap nor the peak RSS count carries into it.
			_ = d.Close()
			d = nil
		}
		if i > 0 && i == spec.Setups-1 {
			resetPeakRSS()
		}
		runtime.GC()
		if ot != nil {
			build0, buildCalls = ot.buildSeconds(), ot.builds.Load()
		}
		start := time.Now()
		if d, err = cup.New(opts...); err != nil {
			return nil, err
		}
		r.SetupS = append(r.SetupS, time.Since(start).Seconds())
		if ot != nil {
			r.SetupBuildS = ot.buildSeconds() - build0
		}
	}
	defer d.Close()

	probe := startGCProbe(*traced)
	cpu0 := cpuSeconds()
	start := time.Now()
	var res *cup.Result
	switch {
	case *traced && spec.Trials:
		// Deployment.EventsExecuted reads 0 after a multi-trial Run, so
		// the traced run drives the same trials itself to count events.
		res, r.Events, err = runTrialsCounted(ctx, spec, kind, *workers)
	default:
		res, err = d.Run(ctx)
		r.Events = d.EventsExecuted()
	}
	if err != nil {
		return nil, err
	}
	r.WallS = time.Since(start).Seconds()
	r.CPUS = cpuSeconds() - cpu0
	r.GC = probe.finish()
	r.Counters = res.Counters
	r.RSSMB = peakRSSMB()
	if ot != nil {
		r.RunBuildS = ot.buildSeconds() - build0 - r.SetupBuildS
		r.BuildCalls = ot.builds.Load() - buildCalls
		r.HopCalls = ot.hopCalls.Load()
		r.HopNs = ot.hopNs.Load()
	}
	return r, nil
}

// runTrialsCounted runs the workload's trials the way Deployment.Run
// does — same derived seeds, a pool of the same width, counters merged
// in trial order — and also sums the scheduler events they fire.
func runTrialsCounted(ctx context.Context, spec simSpec, kind string, workers int) (*cup.Result, uint64, error) {
	p := internal.Params{
		Nodes:         spec.Nodes,
		OverlayKind:   kind,
		Keys:          spec.Keys,
		QueryRate:     spec.Rate,
		QueryDuration: sim.Duration(spec.Duration),
		Seed:          simSeed,
		DenseState:    spec.Dense,
	}.WithDefaults()
	results := make([]*internal.Result, workers)
	events := make([]uint64, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			tp := p
			tp.Seed = internal.TrialSeed(p.Seed, i)
			s := internal.NewSimulation(tp)
			results[i], errs[i] = s.RunContext(ctx)
			events[i] = s.EventsExecuted()
		}(i)
	}
	wg.Wait()
	merged := &cup.Result{Params: p}
	var total uint64
	for i := range results {
		if errs[i] != nil {
			return nil, 0, errs[i]
		}
		merged.Counters.Add(&results[i].Counters)
		total += events[i]
	}
	return merged, total, nil
}
