// Command perfbench is the repository's benchmark. It hosts the serving
// daemon (internal/serve, configured like the vamanad defaults) on a
// loopback listener in-process, drives it from one process with at most
// nproc connections, checks every response against the DOM oracle, and
// ends by printing one JSON line of metrics.
//
//	perfbench --workload serve-hot --seed 1 --seconds 30 --trace 0
//
// An untraced run (--trace 0) reports the end-to-end metrics; a traced
// run (--trace 1) records spans around the benchmark's calls into each
// layer and reports the per-layer metrics. Workloads, metrics and the
// reasons for them are listed in BENCHMARK.json; perfbench/README.md
// describes each metric. run.py builds and runs this command.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// deadline bounds a whole run, so a hang ends in a failure, not a stall.
const deadline = 170 * time.Second

func main() {
	var (
		workload = flag.String("workload", "", "workload: serve-hot, adhoc-cold or update-mix")
		seed     = flag.Int64("seed", 1, "seed for the document, the request mix and the writer")
		seconds  = flag.Float64("seconds", 30, "measured seconds")
		trace    = flag.Int("trace", 0, "1 runs the traced run and reports per-layer metrics")
		dir      = flag.String("dir", ".bench_build/perfbench", "directory for store files and reports")
	)
	flag.Parse()
	if *trace != 0 && *trace != 1 {
		fatal(fmt.Errorf("--trace must be 0 or 1"))
	}
	time.AfterFunc(deadline, func() {
		fmt.Fprintf(os.Stderr, "perfbench: run exceeded %v\n", deadline)
		os.Exit(3)
	})

	runDir := filepath.Join(*dir, fmt.Sprintf("run-%d", os.Getpid()))
	cfg := config{
		workload: *workload, seed: *seed, seconds: *seconds, trace: *trace == 1,
		scale: 1, dir: runDir, conns: runtime.NumCPU(), setups: 3,
	}
	rep, tr, err := run(cfg)
	if err != nil {
		fatal(err)
	}
	name := fmt.Sprintf("%s-seed%d-trace%d", cfg.workload, cfg.seed, *trace)
	outDir := filepath.Join(*dir, "out")
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		fatal(err)
	}
	if tr != nil {
		if err := tr.writeSpans(filepath.Join(outDir, name+"-spans.jsonl")); err != nil {
			fatal(err)
		}
	}
	if err := rep.save(filepath.Join(outDir, name+".json")); err != nil {
		fatal(err)
	}
	rep.print(os.Stdout)
	res, err := rep.result(cfg.trace)
	if err != nil {
		fatal(err)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(2)
}
