package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"cup"
	"cup/client"
	"cup/internal/serve"
	"cup/internal/sim"
)

// TestMain lets the test binary stand in for cupperf: the workloads
// re-execute their own binary as "child <role> ...".
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "child" {
		os.Exit(childMain(os.Args[2:]))
	}
	os.Exit(m.Run())
}

// runBench runs one workload through benchMain and returns its exit
// code, result line and workload-specific metrics line.
func runBench(t *testing.T, args ...string) (int, resultJSON, map[string]metricJSON, string) {
	t.Helper()
	var buf bytes.Buffer
	code := benchMain(args, &buf)
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	var res resultJSON
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("%v: last line %q: %v", args, lines[len(lines)-1], err)
	}
	extra := map[string]metricJSON{}
	for _, l := range lines {
		if rest, ok := strings.CutPrefix(l, "metrics "); ok {
			if err := json.Unmarshal([]byte(rest), &extra); err != nil {
				t.Fatalf("metrics line %q: %v", l, err)
			}
		}
	}
	return code, res, extra, buf.String()
}

// TestSmokeEveryWorkload runs every workload briefly, untraced and
// traced, and checks that each metric it owes is printed with its unit.
// The simulated workloads run at a small size.
func TestSmokeEveryWorkload(t *testing.T) {
	saved := map[string]simSpec{}
	for k, v := range simSpecs {
		saved[k] = v
	}
	t.Cleanup(func() {
		for k, v := range saved {
			simSpecs[k] = v
		}
	})
	simSpecs["sim-paper"] = simSpec{Overlay: "can", Nodes: 128, Keys: 4, Rate: 20, Duration: 300, Trials: true, Reps: 2, Setups: 2}
	simSpecs["sim-large"] = simSpec{Overlay: "chord", Nodes: 1024, Keys: 1, Rate: 10, Duration: 300, Dense: true, Reps: 2, Setups: 1}

	for _, w := range workloadNames() {
		for _, trace := range []string{"0", "1"} {
			code, res, extra, out := runBench(t, "--workload", w, "--seed", "7", "--seconds", "0.5", "--trace", trace)
			if code != 0 || !res.Correct {
				t.Fatalf("%s trace %s: exit %d, correct %v\n%s", w, trace, code, res.Correct, out)
			}
			if res.Attempted == 0 || res.Failed != 0 {
				t.Errorf("%s trace %s: attempted %d, failed %d", w, trace, res.Attempted, res.Failed)
			}
			want := map[string]string{}
			got := map[string]metricJSON{}
			if trace == "1" {
				for _, m := range perLayer {
					want[m.Name] = m.Unit
				}
				got = res.Metrics
			} else {
				for _, m := range endToEnd {
					if m.appliesTo(w) {
						want[m.Name] = m.Unit
					}
				}
				for k, v := range res.Metrics {
					got[k] = v
				}
				for k, v := range extra {
					got[k] = v
				}
				for _, m := range endToEnd {
					if _, ok := res.Metrics[m.Name]; ok != m.Gated {
						t.Errorf("%s: metric %s on the result line = %v, want %v", w, m.Name, ok, m.Gated)
					}
					if m.Gated && res.Metrics[m.Name].Value == 0 {
						t.Errorf("%s: gated metric %s is 0", w, m.Name)
					}
				}
			}
			if len(got) != len(want) {
				t.Errorf("%s trace %s: %d metrics, want %d", w, trace, len(got), len(want))
			}
			for name, unit := range want {
				if m, ok := got[name]; !ok || m.Unit != unit {
					t.Errorf("%s trace %s: metric %s = %+v, want unit %q", w, trace, name, m, unit)
				}
			}
		}
	}
}

// TestSimCountersRepeat pins the simulated workloads' determinism: two
// runs of a set report identical paper metrics.
func TestSimCountersRepeat(t *testing.T) {
	saved := simSpecs["sim-paper"]
	t.Cleanup(func() { simSpecs["sim-paper"] = saved })
	simSpecs["sim-paper"] = simSpec{Overlay: "can", Nodes: 64, Keys: 2, Rate: 10, Duration: 200, Trials: true, Reps: 1, Setups: 1}
	var first map[string]metricJSON
	for seed := 1; seed <= 2; seed++ {
		_, _, extra, out := runBench(t, "--workload", "sim-paper", "--seed", strconv.Itoa(seed), "--seconds", "1")
		if first == nil {
			first = extra
			continue
		}
		for _, m := range []string{"miss_latency_hops", "total_cost_per_query"} {
			if extra[m].Value != first[m].Value || extra[m].Value == 0 {
				t.Errorf("%s = %v, first run %v\n%s", m, extra[m].Value, first[m].Value, out)
			}
		}
	}
}

// fakeBackend is an in-memory serve.Backend that answers every key with
// its preloaded addresses, plus a forged one when corrupt is set.
type fakeBackend struct {
	addrs   map[string][]string
	corrupt bool
}

func (b *fakeBackend) Size() int     { return 1 }
func (b *fakeBackend) Now() sim.Time { return 0 }
func (b *fakeBackend) Load() (int, int) {
	return 0, 0
}

func (b *fakeBackend) LookupAt(_ context.Context, _ cup.NodeID, key cup.Key) ([]cup.Entry, error) {
	var out []cup.Entry
	for i, a := range b.addrs[string(key)] {
		out = append(out, cup.Entry{Key: key, Replica: i, Addr: a, Expires: 3600})
	}
	if b.corrupt && len(out) > 0 {
		out[len(out)-1].Addr = "192.0.2.1:9"
	}
	return out, nil
}

func (b *fakeBackend) Publish(context.Context, cup.Key, int, string, time.Duration) error { return nil }
func (b *fakeBackend) Unpublish(context.Context, cup.Key, int) error                      { return nil }

// TestCheckerCatchesCorruptedAnswer serves reads through the real serving
// layer and client from a backend that forges one address, and checks
// that the read operation reports a wrong answer, which fails the run.
func TestCheckerCatchesCorruptedAnswer(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	keys := genKeys(rng, "warm-", serveWarmKeys, serveReplicas)
	fb := &fakeBackend{addrs: map[string][]string{}}
	for _, k := range keys {
		fb.addrs[k.Key] = k.Addrs
	}
	srv, err := serve.New(serve.Config{Backend: fb})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	mux := http.NewServeMux()
	srv.Register(mux)
	ts := httptest.NewServer(mux)
	defer ts.Close()
	c, err := client.New(client.Config{Hosts: []string{ts.Listener.Addr().String()}})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	g := newServeGen(rng, keys, nil)
	ctx := context.Background()

	if failed, wrong := g.read(c, 0, true).run(ctx); failed != nil || wrong != nil {
		t.Fatalf("honest answer: failed %v, wrong %v", failed, wrong)
	}
	fb.corrupt = true
	failed, wrong := g.read(c, 0, true).run(ctx)
	if failed != nil || wrong == nil || !strings.Contains(wrong.Error(), "192.0.2.1:9") {
		t.Fatalf("corrupted answer: failed %v, wrong %v; want the forged address reported", failed, wrong)
	}

	loop := &loopResult{attempted: 1, failed: 1, lat: []time.Duration{failedLatency}, class: []opClass{classRead}, lag: []time.Duration{0}, wrong: []error{wrong}}
	out := newOutcome()
	loop.summary().report(out, out.values)
	if res, _ := render(runConfig{workload: "serve-mixed"}, out); res.Correct {
		t.Fatal("a run with a wrong answer rendered as correct")
	}

	pub := newPublished()
	pub.add("k", "a")
	if pub.check("k", []string{"a"}) != nil || pub.check("k", nil) == nil || pub.check("k", []string{"a", "b"}) == nil {
		t.Fatal("published.check: want only non-empty answers of published addresses accepted")
	}
}

// TestCatalogMatchesBenchmarkJSON keeps BENCHMARK.json and the catalog
// the benchmark prints from in step.
func TestCatalogMatchesBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var bj struct {
		Workloads []struct{ Name, Why string } `json:"workloads"`
		EndToEnd  []metric                     `json:"end_to_end"`
		PerLayer  []metric                     `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bj); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range bj.Workloads {
		names = append(names, w.Name)
	}
	sort.Strings(names)
	if strings.Join(names, ",") != strings.Join(workloadNames(), ",") {
		t.Errorf("workloads %v, benchmark runs %v", names, workloadNames())
	}
	var gated []metricDef
	for _, m := range endToEnd {
		if m.Gated {
			if m.Workloads != nil {
				t.Errorf("gated metric %s must apply to every workload", m.Name)
			}
			gated = append(gated, m)
		}
	}
	if len(bj.EndToEnd) != len(gated) {
		t.Fatalf("end_to_end has %d metrics, catalog gates %d", len(bj.EndToEnd), len(gated))
	}
	for i, m := range gated {
		got := bj.EndToEnd[i]
		if got.Name != m.Name || got.Unit != m.Unit || got.Better != m.Better || got.Bound == nil || *got.Bound != m.Bound {
			t.Errorf("end_to_end[%d] = %+v, catalog %+v", i, got, m)
		}
	}
	if len(bj.PerLayer) != len(perLayer) {
		t.Fatalf("per_layer has %d metrics, catalog %d", len(bj.PerLayer), len(perLayer))
	}
	for i, m := range perLayer {
		got := bj.PerLayer[i]
		if got.Name != m.Name || got.Unit != m.Unit || got.Better != m.Better || got.Bound != nil {
			t.Errorf("per_layer[%d] = %+v, catalog %+v", i, got, m)
		}
	}
}
