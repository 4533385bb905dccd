// Command e2ebench is the end-to-end benchmark of the F2PM loop: FMC
// samples over loopback TCP into the FMS and a prediction service
// (ingest), thousands of in-process sessions on one service (fleet),
// and the model lifecycle of retrain, publish and refresh (retrain).
// Every workload generates a seeded TPC-W campaign, trains the paper's
// models with core.Pipeline, publishes the chosen deployment to an
// in-process model registry and serves it from a node that pulls it
// over HTTP, then measures its phase for --seconds and checks every
// estimate against an independent offline reference.
//
// Usage (from the repository root):
//
//	bash e2ebench/run.sh --workload ingest --seed 1 --seconds 24 --trace 0
//	bash e2ebench/run.sh --repeat 10 --seconds 24
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. With --trace 0 the metrics
// are the end-to-end metrics; with --trace 1 they are the per-layer
// metrics of a traced run. --repeat N runs every workload N times in
// child processes, alternating between workloads, and prints each
// end-to-end metric's median, quartiles and spread against its bound.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strings"
	"time"
)

// metricDef is one metric of the benchmark: the table BENCHMARK.json
// mirrors (main_test.go checks the two agree).
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd lists the metrics a user of the system sees. Every workload
// reports every one of them (see README.md for what each means on each
// workload).
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"samples_per_s", "1/s", "higher", 0.25},
	{"estimates_per_s", "1/s", "higher", 0.25},
	{"estimate_latency_p50_ms", "ms", "lower", 0.25},
	{"allocs_per_sample", "count", "lower", 0.1},
	{"live_heap_mb", "MB", "lower", 0.1},
	{"train_s", "s", "lower", 0.25},
	{"update_s", "s", "lower", 0.25},
	{"publish_to_serve_ms", "ms", "lower", 0.25},
	{"smae_s", "s", "lower", 0.25},
}

// trainedModels are the roster entries whose per-family training time
// the traced run reports.
var trainedModels = []string{"linear", "m5p", "reptree", "svm", "svm2"}

// perLayer lists the per-layer metrics of the traced run.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"monitor.send_us", "us", "lower", 0},
		{"monitor.write_syscalls_per_sample", "count", "lower", 0},
		{"monitor.wire_bytes_per_sample", "bytes", "lower", 0},
		{"monitor.arrival_lag_us", "us", "lower", 0},
		{"aggregate.push_us", "us", "lower", 0},
		{"serve.push_us", "us", "lower", 0},
		{"serve.window_wait_p50_us", "us", "lower", 0},
		{"serve.window_wait_p99_us", "us", "lower", 0},
		{"serve.batch_size_mean", "count", "higher", 0},
		{"serve.batch_size_max", "count", "higher", 0},
		{"serve.queue_depth_max", "count", "lower", 0},
		{"serve.shard_skew", "ratio", "lower", 0},
		{"serve.refresh_ms", "ms", "lower", 0},
		{"ml.predict_us_per_row", "us", "lower", 0},
	}
	for _, m := range trainedModels {
		for _, fs := range []string{"all", "lasso"} {
			defs = append(defs, metricDef{"ml." + m + "." + fs + ".train_s", "s", "lower", 0})
		}
	}
	defs = append(defs,
		metricDef{"core.aggregate_s", "s", "lower", 0},
		metricDef{"core.lasso_path_s", "s", "lower", 0},
		metricDef{"core.update_incremental", "count", "higher", 0},
		metricDef{"core.update_refit", "count", "lower", 0},
		metricDef{"core.lasso_parity_rel", "ratio", "lower", 0},
		metricDef{"registry.publish_ms", "ms", "lower", 0},
		metricDef{"registry.envelope_bytes", "bytes", "lower", 0},
		metricDef{"modelio.encode_ms", "ms", "lower", 0},
		metricDef{"modelio.decode_ms", "ms", "lower", 0},
		metricDef{"runtime.gc_cycles", "count", "lower", 0},
		metricDef{"runtime.gc_pause_ms", "ms", "lower", 0},
		metricDef{"runtime.cpu_ms_per_1k_samples", "ms", "lower", 0},
		metricDef{"trace.overhead_pct", "%", "lower", 0},
	)
	for _, l := range traceLayers {
		defs = append(defs, metricDef{l + ".self_pct", "%", "lower", 0})
	}
	return defs
}()

// workloads maps each workload name to its runner.
var workloads = map[string]func(*env) error{
	"ingest":  runIngest,
	"fleet":   runFleet,
	"retrain": runRetrain,
}

// workloadOrder is the order --repeat alternates in.
var workloadOrder = []string{"ingest", "fleet", "retrain"}

// metricValue is one reported figure.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	var (
		workload = flag.String("workload", "", "workload to run: ingest, fleet or retrain")
		seed     = flag.Uint64("seed", 1, "campaign seed")
		seconds  = flag.Float64("seconds", 24, "length of the measured phase, seconds")
		traced   = flag.Int("trace", 0, "1 = traced run printing the per-layer metrics")
		spans    = flag.String("spans", "", "traced run: write the recorded spans here as JSON lines (default .bench_build/spans-<workload>-<seed>.jsonl)")
		repeat   = flag.Int("repeat", 0, "run every workload this many times in child processes, alternating, and print medians and spreads")
	)
	flag.Parse()
	if *repeat > 0 {
		if err := runRepeat(*repeat, *seed, *seconds); err != nil {
			fmt.Fprintln(os.Stderr, "e2ebench:", err)
			os.Exit(1)
		}
		return
	}
	run, ok := workloads[*workload]
	if !ok {
		fmt.Fprintf(os.Stderr, "e2ebench: unknown workload %q (want ingest, fleet or retrain)\n", *workload)
		os.Exit(2)
	}
	if *seconds <= 0 {
		fmt.Fprintln(os.Stderr, "e2ebench: --seconds must be positive")
		os.Exit(2)
	}
	e := newEnv(*workload, *seed, time.Duration(*seconds*float64(time.Second)), *traced == 1, fullScale())
	e.logf("workload %s seed %d seconds %g trace %d GOMAXPROCS %d NumCPU %d",
		*workload, *seed, *seconds, *traced, runtime.GOMAXPROCS(0), runtime.NumCPU())
	steal := stealTicks()
	if err := run(e); err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
	// Steal is time the hypervisor gave this machine's CPUs to others; on
	// a shared host it explains most of the run-to-run spread.
	e.logf("host CPU steal during the run: %d clock ticks", stealTicks()-steal)
	if e.traced {
		path := *spans
		if path == "" {
			path = fmt.Sprintf(".bench_build/spans-%s-%d.jsonl", *workload, *seed)
		}
		if err := e.tr.writeFile(path); err != nil {
			fmt.Fprintln(os.Stderr, "e2ebench: writing spans:", err)
			os.Exit(1)
		}
		e.logf("wrote %d spans to %s", e.tr.count(), path)
	}
	res := e.result()
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// result assembles the output line, checking that exactly the metrics
// of the run's kind were reported.
func (e *env) result() result {
	defs := endToEnd
	if e.traced {
		defs = perLayer
	}
	res := result{Correct: len(e.errs) == 0, Attempted: e.attempted, Failed: e.failed, Metrics: map[string]metricValue{}}
	for _, d := range defs {
		v, ok := e.metrics[d.Name]
		if !ok {
			e.errorf("metric %s was not measured", d.Name)
			res.Correct = false
			continue
		}
		res.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	for _, msg := range e.errs {
		fmt.Fprintln(os.Stderr, "e2ebench: check failed:", msg)
	}
	return res
}

// runRepeat is the steadiness mode: n rounds, each running every
// workload once in a child process with seed base+i, alternating
// between the workloads so a slow period of the host spreads over all
// of them.
func runRepeat(n int, base uint64, seconds float64) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	vals := map[string]map[string][]float64{}
	failShare := map[string][]float64{}
	for i := 0; i < n; i++ {
		for _, w := range workloadOrder {
			args := []string{"--workload", w, "--seed", fmt.Sprint(base + uint64(i)), "--seconds", fmt.Sprint(seconds), "--trace", "0"}
			start := time.Now()
			res, err := runChild(exe, args)
			if err != nil {
				return fmt.Errorf("%s seed %d: %w", w, base+uint64(i), err)
			}
			if !res.Correct {
				return fmt.Errorf("%s seed %d: run reported correct=false", w, base+uint64(i))
			}
			fmt.Printf("run %d %-8s seed %-4d %6.1fs attempted %d failed %d\n ", i, w, base+uint64(i), time.Since(start).Seconds(), res.Attempted, res.Failed)
			for _, d := range endToEnd {
				fmt.Printf(" %s=%.4g", d.Name, res.Metrics[d.Name].Value)
			}
			fmt.Println()
			if vals[w] == nil {
				vals[w] = map[string][]float64{}
			}
			for name, mv := range res.Metrics {
				vals[w][name] = append(vals[w][name], mv.Value)
			}
			failShare[w] = append(failShare[w], float64(res.Failed)/float64(res.Attempted))
		}
	}
	flagged := 0
	for _, w := range workloadOrder {
		fmt.Printf("\n%s (%d runs)\n%-26s %14s %14s %14s %8s %6s\n", w, n, "metric", "q1", "median", "q3", "spread", "bound")
		for _, d := range endToEnd {
			xs := vals[w][d.Name]
			if len(xs) == 0 {
				continue
			}
			q1, med, q3 := quartiles(xs)
			spread := (q3 - q1) / med
			mark := ""
			if d.Name != "setup_s" && spread > d.Bound/3 {
				mark = " > bound/3"
			}
			if d.Name != "setup_s" && spread > d.Bound {
				mark = " > BOUND"
				flagged++
			}
			fmt.Printf("%-26s %14.6g %14.6g %14.6g %8.4f %6.2f%s\n", d.Name, q1, med, q3, spread, d.Bound, mark)
		}
		fs := failShare[w]
		sort.Float64s(fs)
		fmt.Printf("failed share: min %g max %g\n", fs[0], fs[len(fs)-1])
	}
	if flagged > 0 {
		return fmt.Errorf("%d metric(s) spread beyond their bound", flagged)
	}
	return nil
}

// runChild runs one benchmark run as a child process, waits for it and
// parses its last output line.
func runChild(exe string, args []string) (result, error) {
	var stderr bytes.Buffer
	cmd := exec.Command(exe, args...)
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return result{}, fmt.Errorf("%w\n%s", err, stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return result{}, fmt.Errorf("parsing result line: %w", err)
	}
	return res, nil
}
