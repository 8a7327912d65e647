// Command perfbench is the repository's benchmark: it trains one named
// workload through the public parallax Session API for a fixed time and
// prints every end-to-end metric, or — with --trace 1 — replays each
// layer's public functions on the workload's shapes and prints the
// per-layer metrics. Every input derives from --seed. The last line of
// standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {"name": {"value": v, "unit": "u"}, ...}}
//
// See README.md for the workloads, the metrics and what each layer
// metric should move.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"time"
)

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metrics map[string]metric

func (m metrics) set(name string, v float64, unit string) { m[name] = metric{v, unit} }

// result is the benchmark's final output line.
type result struct {
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

// runTimeout bounds a whole run: a wedged collective must end the run
// with an error rather than hang it.
const runTimeout = 170 * time.Second

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload name: lm-inproc | lm-tcp | sparse-emb-tcp")
	seed := fs.Int64("seed", 1, "seed for the graph initializers and the token stream")
	seconds := fs.Float64("seconds", 10, "how long the training phase measures")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
	scratch := fs.String("scratch", ".bench_build/run", "directory for checkpoints and the trace file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, err := lookupWorkload(*name)
	if err != nil || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: bad arguments (workload %q, seconds %g, trace %d)\n", *name, *seconds, *trace)
		return 2
	}
	dir := filepath.Join(*scratch, fmt.Sprintf("%s-seed%d-trace%d", w.name, *seed, *trace))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(dir)

	ctx, cancel := context.WithTimeout(context.Background(), runTimeout)
	defer cancel()
	var res result
	if *trace == 1 {
		res, err = traced(ctx, w, *seed, *seconds, dir, *scratch, stdout)
	} else {
		res, err = e2e(ctx, w, *seed, *seconds, dir, stdout)
	}
	if err == nil {
		err = checkFinite(res.Metrics)
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	for _, k := range sortedKeys(res.Metrics) {
		fmt.Fprintf(stdout, "%-34s %14.6g %s\n", k, res.Metrics[k].Value, res.Metrics[k].Unit)
	}
	b, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(b))
	return 0
}

func checkFinite(m metrics) error {
	for _, k := range sortedKeys(m) {
		if v := m[k].Value; math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s has no value (%v)", k, v)
		}
	}
	return nil
}
