// Command cupperf is the repository's benchmark. One command runs any of
// four workloads, checks the program's outputs and prints every metric
// by name with its unit:
//
//	cupperf --workload sim-paper --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. With --trace 0 the metrics are
// the end-to-end metrics every workload shares (BENCHMARK.json's
// end_to_end list); the workload-specific end-to-end metrics are printed
// on the "metrics" line before it. With --trace 1 the run measures once
// untraced and once with timing wrappers around each layer's public
// calls, and the JSON carries the per-layer metrics.
//
// Heavy work always runs in child processes of this binary ("cupperf
// child ..."), so each measured process starts clean and peak RSS and
// CPU time belong to the process under test alone. The exit code is 0
// when every output check passed and 1 otherwise; bad arguments exit 2.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strings"
	"time"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "child" {
		os.Exit(childMain(os.Args[2:]))
	}
	os.Exit(benchMain(os.Args[1:], os.Stdout))
}

// runConfig is what the orchestrator hands every workload.
type runConfig struct {
	workload string
	seed     int64
	seconds  float64
	traced   bool
}

// outcome is one workload run, before printing.
type outcome struct {
	attempted uint64
	failed    uint64
	// values holds every metric the run measured, end-to-end and
	// per-layer, keyed by catalog name.
	values   map[string]float64
	failures []string
	info     map[string]any
}

func newOutcome() *outcome {
	return &outcome{values: map[string]float64{}, info: map[string]any{}}
}

func (o *outcome) failf(format string, args ...any) {
	o.failures = append(o.failures, fmt.Sprintf(format, args...))
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(context.Context, runConfig) (*outcome, error){
	"sim-paper":   runSim,
	"sim-large":   runSim,
	"serve-mixed": runServe,
	"live-tcp":    runLiveTCP,
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

type metricJSON struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultJSON struct {
	Correct   bool                  `json:"correct"`
	Attempted uint64                `json:"attempted"`
	Failed    uint64                `json:"failed"`
	Metrics   map[string]metricJSON `json:"metrics"`
}

func benchMain(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("cupperf", flag.ContinueOnError)
	workload := fs.String("workload", "", "workload: "+strings.Join(workloadNames(), "|"))
	seed := fs.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := fs.Float64("seconds", 10, "length of the measured phase in seconds")
	trace := fs.Int("trace", 0, "1 prints per-layer metrics from a traced run instead of the end-to-end metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	run, ok := workloads[*workload]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "cupperf: need --workload %s, --seconds > 0 and --trace 0|1\n", strings.Join(workloadNames(), "|"))
		return 2
	}
	cfg := runConfig{workload: *workload, seed: *seed, seconds: *seconds, traced: *trace == 1}
	ctx, cancel := context.WithTimeout(context.Background(), 170*time.Second)
	defer cancel()

	out, err := run(ctx, cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "cupperf: %s: %v\n", cfg.workload, err)
		return 1
	}
	out.info["nproc"] = runtime.NumCPU()
	out.info["gomaxprocs"] = runtime.GOMAXPROCS(0)
	res, extra := render(cfg, out)
	for _, f := range out.failures {
		fmt.Fprintf(stdout, "check failed: %s\n", f)
	}
	info, _ := json.Marshal(out.info)
	fmt.Fprintf(stdout, "info %s\n", info)
	if len(extra) > 0 {
		line, _ := json.Marshal(extra)
		fmt.Fprintf(stdout, "metrics %s\n", line)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "cupperf: encode result: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !res.Correct {
		return 1
	}
	return 0
}

// render turns an outcome into the result line and the workload-specific
// metrics line. A metric the workload should have measured but did not
// is an output check failure, not a silent gap.
func render(cfg runConfig, out *outcome) (resultJSON, map[string]metricJSON) {
	res := resultJSON{Attempted: out.attempted, Failed: out.failed, Metrics: map[string]metricJSON{}}
	extra := map[string]metricJSON{}
	if cfg.traced {
		for _, m := range perLayer {
			res.Metrics[m.Name] = metricJSON{out.values[m.Name], m.Unit}
		}
	}
	for _, m := range endToEnd {
		if !m.appliesTo(cfg.workload) {
			continue
		}
		v, ok := out.values[m.Name]
		if !ok {
			out.failf("metric %s was not measured", m.Name)
			continue
		}
		switch {
		case cfg.traced:
		case m.Gated:
			res.Metrics[m.Name] = metricJSON{v, m.Unit}
		default:
			extra[m.Name] = metricJSON{v, m.Unit}
		}
	}
	if res.Attempted == 0 {
		out.failf("no operation was attempted")
	}
	res.Correct = len(out.failures) == 0
	return res, extra
}

// spawn runs this binary as a child with the given role and arguments
// and decodes the JSON object on the last line of its standard output
// into v. The child's other output goes to stderr.
func spawn(ctx context.Context, v any, args ...string) error {
	self, err := os.Executable()
	if err != nil {
		return fmt.Errorf("locate own binary: %w", err)
	}
	cmd := exec.CommandContext(ctx, self, append([]string{"child"}, args...)...)
	cmd.Stderr = os.Stderr
	cmd.WaitDelay = 5 * time.Second
	out, err := cmd.Output()
	if err != nil {
		return fmt.Errorf("child %v: %w", args, err)
	}
	return decodeLast(out, v)
}

// decodeLast decodes the JSON object on the last non-empty line of out.
func decodeLast(out []byte, v any) error {
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	last := lines[len(lines)-1]
	if err := json.Unmarshal([]byte(last), v); err != nil {
		return fmt.Errorf("decode child result %q: %w", last, err)
	}
	return nil
}

// childMain dispatches a child role.
func childMain(args []string) int {
	if len(args) == 0 {
		fmt.Fprintln(os.Stderr, "cupperf child: need a role")
		return 2
	}
	var (
		v   any
		err error
	)
	switch args[0] {
	case "sim":
		v, err = simChild(args[1:])
	case "serve":
		err = serveChild(args[1:], bufio.NewReader(os.Stdin), os.Stdout)
	case "live-tcp":
		v, err = liveTCPChild(args[1:])
	default:
		err = fmt.Errorf("unknown role %q", args[0])
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "cupperf child %s: %v\n", args[0], err)
		return 1
	}
	if v != nil {
		line, err := json.Marshal(v)
		if err != nil {
			fmt.Fprintf(os.Stderr, "cupperf child %s: encode: %v\n", args[0], err)
			return 1
		}
		fmt.Printf("%s\n", line)
	}
	return 0
}
