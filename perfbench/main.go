// Command perfbench is the repository's end-to-end benchmark. It drives
// the trace framework's public packages from outside — simulation,
// convert, merge, interval files, SLOG, statistics, rendering, the query
// service, the shard router, streaming ingest, sweeps and the load
// generator — over one of four workloads, checks every output it
// measures, and prints the metrics BENCHMARK.json names.
//
//	perfbench --workload batch|scale|serve|ingest --seed N --seconds S --trace 0|1
//	perfbench --compare DIR_A DIR_B
//
// With --trace 0 the last stdout line carries the end-to-end metrics;
// with --trace 1 it carries the per-layer metrics, measured from spans
// the benchmark records around each call it makes into a layer. The
// line before it carries the host facts. --compare reads two sets of
// saved outputs (one file per run) and prints a verdict per workload
// and metric.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"
)

func main() {
	var (
		wl      = flag.String("workload", "", "workload: batch, scale, serve or ingest")
		seed    = flag.Uint64("seed", 1, "input seed")
		seconds = flag.Float64("seconds", 10, "measured seconds")
		traced  = flag.Int("trace", 0, "1 = traced run printing the per-layer metrics")
		compare = flag.Bool("compare", false, "compare two result sets: perfbench --compare DIR_A DIR_B")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fatalf("--compare needs two result directories")
		}
		if err := compareSets(os.Stdout, "BENCHMARK.json", flag.Arg(0), flag.Arg(1)); err != nil {
			fatalf("%v", err)
		}
		return
	}
	run, ok := workloads[*wl]
	if !ok || flag.NArg() != 0 || *seconds <= 0 || (*traced != 0 && *traced != 1) {
		flag.Usage()
		os.Exit(2)
	}
	// Inputs and spans stay inside the checkout the benchmark runs in.
	base := filepath.Join(".bench_build", "run")
	if err := os.MkdirAll(base, 0o755); err != nil {
		fatalf("%v", err)
	}
	dir, err := os.MkdirTemp(base, *wl+"-")
	if err != nil {
		fatalf("%v", err)
	}
	e := newEnv(*seed, time.Duration(*seconds*float64(time.Second)), *traced == 1, dir, fullSizes)
	res, err := e.execute(run)
	os.RemoveAll(dir)
	if err != nil {
		fatalf("%s: %v", *wl, err)
	}
	if e.tr != nil {
		spans := filepath.Join(".bench_build", "spans", fmt.Sprintf("%s-seed%d.jsonl", *wl, *seed))
		if err := e.tr.write(spans); err != nil {
			fatalf("write spans: %v", err)
		}
		e.tr.printSelfTimes(os.Stderr)
	}
	info := map[string]any{
		"workload": *wl, "seed": *seed, "trace": *traced, "seconds": *seconds,
		"host": hostFacts(), "error_rate": res.errorRate(),
		"steal_frac": res.metrics["bench.steal_frac"],
	}
	printJSON(info)
	printJSON(res.line(*traced == 1))
}

// stderr receives diagnostics; tests silence it.
var stderr io.Writer = os.Stderr

func printJSON(v any) {
	b, err := json.Marshal(v)
	if err != nil {
		fatalf("%v", err)
	}
	fmt.Println(string(b))
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	os.Exit(1)
}

// result is one run's outcome: operation counts and metric values by
// name. Units come from the metric tables in metrics.go.
type result struct {
	attempted, failed int
	metrics           map[string]float64
}

func (r *result) errorRate() float64 {
	if r.attempted == 0 {
		return 1
	}
	return float64(r.failed) / float64(r.attempted)
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// line is the last stdout line: the end-to-end metrics, or with traced
// the per-layer ones.
func (r *result) line(traced bool) map[string]any {
	table := endToEnd
	if traced {
		table = perLayer
	}
	m := make(map[string]metricValue, len(table))
	for _, d := range table {
		m[d.name] = metricValue{Value: r.metrics[d.name], Unit: d.unit}
	}
	return map[string]any{
		"correct":   r.failed == 0 && r.attempted > 0,
		"attempted": r.attempted,
		"failed":    r.failed,
		"metrics":   m,
	}
}
