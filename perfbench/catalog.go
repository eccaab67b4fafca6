package main

import "slices"

// metricDef is one metric of the catalog. BENCHMARK.json's end_to_end
// list is exactly the gated end-to-end metrics, and its per_layer list
// is perLayer; TestCatalogMatchesBenchmarkJSON keeps them in step.
type metricDef struct {
	Name   string
	Unit   string
	Better string
	// Bound is the share of the parent's median by which a gated metric
	// may worsen before a change counts as a regression.
	Bound float64
	// Workloads lists where an end-to-end metric is measured; nil means
	// every workload.
	Workloads []string
	// Gated marks the end-to-end metrics that go on the result line and
	// into BENCHMARK.json's end_to_end: every workload measures them, they
	// are never zero and they repeat within their bound. The others are
	// printed on the "metrics" line of the workloads they apply to.
	Gated bool
}

func (m metricDef) appliesTo(workload string) bool {
	return m.Workloads == nil || slices.Contains(m.Workloads, workload)
}

var (
	sims  = []string{"sim-paper", "sim-large"}
	lives = []string{"serve-mixed", "live-tcp"}
)

var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25, Gated: true},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.25, Gated: true},
	// CPU time per operation is measured on every workload but not gated:
	// on a shared 2-vCPU machine its run-to-run spread reached a quarter
	// of its median under neighbours' load, the largest bound allowed.
	{Name: "cpu_ms_per_kop", Unit: "ms", Better: "lower"},
	{Name: "error_frac", Unit: "frac", Better: "lower"},
	{Name: "sim_queries_per_s", Unit: "1/s", Better: "higher", Workloads: sims},
	{Name: "miss_latency_hops", Unit: "hops", Better: "lower", Workloads: sims},
	{Name: "total_cost_per_query", Unit: "hops", Better: "lower", Workloads: sims},
	{Name: "read_p50_ms", Unit: "ms", Better: "lower", Workloads: lives},
	{Name: "read_p99_ms", Unit: "ms", Better: "lower", Workloads: lives},
	{Name: "write_p50_ms", Unit: "ms", Better: "lower", Workloads: lives},
	{Name: "write_p99_ms", Unit: "ms", Better: "lower", Workloads: lives},
	{Name: "capacity_rps", Unit: "1/s", Better: "higher", Workloads: []string{"serve-mixed"}},
}

// perLayer is printed in full by every traced run; a layer a workload
// does not exercise reads 0 there.
var perLayer = []metricDef{
	{Name: "overlay.build_s", Unit: "s", Better: "lower"},
	{Name: "overlay.build_calls", Unit: "count", Better: "lower"},
	{Name: "overlay.nexthop_calls", Unit: "count", Better: "lower"},
	{Name: "overlay.nexthop_ns", Unit: "ns", Better: "lower"},
	{Name: "cup.init_s", Unit: "s", Better: "lower"},
	{Name: "sim.run_self_s", Unit: "s", Better: "lower"},
	{Name: "sim.events", Unit: "count", Better: "lower"},
	{Name: "sim.events_per_s", Unit: "1/s", Better: "higher"},
	{Name: "cup.hit_ratio", Unit: "frac", Better: "higher"},
	{Name: "cup.coalesced", Unit: "count", Better: "higher"},
	{Name: "cup.query_hops", Unit: "count", Better: "lower"},
	{Name: "cup.update_hops", Unit: "count", Better: "lower"},
	{Name: "cup.clearbit_hops", Unit: "count", Better: "lower"},
	{Name: "cup.updates_dropped", Unit: "count", Better: "lower"},
	{Name: "cup.justified_frac", Unit: "frac", Better: "higher"},
	{Name: "cup.query_hops_per_lookup", Unit: "hops", Better: "lower"},
	{Name: "cup.update_hops_per_write", Unit: "hops", Better: "lower"},
	{Name: "trials.cpu_util", Unit: "frac", Better: "higher"},
	{Name: "gc.allocs_per_op", Unit: "count", Better: "lower"},
	{Name: "gc.cpu_frac", Unit: "frac", Better: "lower"},
	{Name: "gc.heap_peak_mb", Unit: "MB", Better: "lower"},
	{Name: "client.op_ms", Unit: "ms", Better: "lower"},
	{Name: "client.op_ms.read", Unit: "ms", Better: "lower"},
	{Name: "client.op_ms.fill", Unit: "ms", Better: "lower"},
	{Name: "client.op_ms.write", Unit: "ms", Better: "lower"},
	{Name: "client.self_ms", Unit: "ms", Better: "lower"},
	{Name: "client.retries", Unit: "count", Better: "lower"},
	{Name: "client.promises", Unit: "count", Better: "lower"},
	{Name: "http.roundtrip_ms", Unit: "ms", Better: "lower"},
	{Name: "http.self_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.handler_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.handler_ms.get", Unit: "ms", Better: "lower"},
	{Name: "serve.handler_ms.put", Unit: "ms", Better: "lower"},
	{Name: "serve.handler_ms.delete", Unit: "ms", Better: "lower"},
	{Name: "serve.handler_ms.promise", Unit: "ms", Better: "lower"},
	{Name: "serve.self_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.hit_ratio", Unit: "frac", Better: "higher"},
	{Name: "serve.status.2xx", Unit: "count", Better: "higher"},
	{Name: "serve.status.404", Unit: "count", Better: "lower"},
	{Name: "serve.status.409", Unit: "count", Better: "lower"},
	{Name: "serve.status.429", Unit: "count", Better: "lower"},
	{Name: "serve.status.503", Unit: "count", Better: "lower"},
	{Name: "serve.status.504", Unit: "count", Better: "lower"},
	{Name: "serve.status.other", Unit: "count", Better: "lower"},
	{Name: "live.lookup_ms", Unit: "ms", Better: "lower"},
	{Name: "live.lookup_ms.hit", Unit: "ms", Better: "lower"},
	{Name: "live.lookup_ms.miss", Unit: "ms", Better: "lower"},
	{Name: "live.publish_ms", Unit: "ms", Better: "lower"},
	{Name: "live.self_ms", Unit: "ms", Better: "lower"},
	{Name: "live.inbox_peak_frac", Unit: "frac", Better: "lower"},
	{Name: "live.boot_s", Unit: "s", Better: "lower"},
	{Name: "wire.encode_ns", Unit: "ns", Better: "lower"},
	{Name: "wire.decode_ns", Unit: "ns", Better: "lower"},
	{Name: "wire.bytes_per_msg", Unit: "bytes", Better: "lower"},
	{Name: "gen.lag_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "gen.inflight_peak", Unit: "count", Better: "lower"},
	{Name: "trace.overhead_frac", Unit: "frac", Better: "lower"},
	{Name: "run.nproc", Unit: "count", Better: "higher"},
	{Name: "run.gomaxprocs", Unit: "count", Better: "higher"},
}
