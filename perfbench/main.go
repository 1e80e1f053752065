// Command perfbench is the repository's end-to-end benchmark. It drives the
// public API of internal/serve, internal/serve/wire, internal/cluster and
// internal/cluster/shard from one process, grades every answer, and prints
// one JSON result line. See README.md for the workloads and metrics.
//
// Usage (from the repository root, normally through run.sh):
//
//	perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

type config struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type provenance struct {
	Workload       string  `json:"workload"`
	Seed           int64   `json:"seed"`
	Seconds        int     `json:"seconds"`
	Trace          bool    `json:"trace"`
	NumCPU         int     `json:"nproc"`
	GOMAXPROCS     int     `json:"gomaxprocs"`
	GoVersion      string  `json:"go_version"`
	GOOS           string  `json:"goos"`
	GOARCH         string  `json:"goarch"`
	SleepOversleep float64 `json:"sleep_50us_oversleep_us_p50"`
	SpinWindowMs   float64 `json:"flip_spin_window_ms"`
}

// spanDir is where traced runs write their spans, relative to the
// repository root the benchmark runs from. It is inside the build directory
// that version control ignores.
const spanDir = ".bench_build/perfbench"

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var cfg config
	var trace int
	fs.StringVar(&cfg.workload, "workload", "", "workload name: "+strings.Join(workloadNames(), ", "))
	fs.Int64Var(&cfg.seed, "seed", 1, "seed for the graph, the flip schedule and the lookup keys")
	fs.IntVar(&cfg.seconds, "seconds", 30, "measured seconds")
	fs.IntVar(&trace, "trace", 0, "1 = traced run printing per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	cfg.trace = trace == 1
	spec, ok := workloads[cfg.workload]
	if !ok || cfg.seconds < 1 || (trace != 0 && trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload one of %v, --seconds ≥ 1, --trace 0|1\n", workloadNames())
		return 2
	}
	runtime.GOMAXPROCS(min(runtime.NumCPU(), spec.procs))

	prov := provenance{
		Workload: cfg.workload, Seed: cfg.seed, Seconds: cfg.seconds, Trace: cfg.trace,
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), GOOS: runtime.GOOS, GOARCH: runtime.GOARCH,
		SleepOversleep: oversleepMicros(),
		SpinWindowMs:   float64(spinWindow) / float64(time.Millisecond),
	}
	out, err := runWorkload(cfg, spec)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", cfg.workload, err)
		return 1
	}
	if cfg.trace {
		if err := os.MkdirAll(spanDir, 0o755); err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 1
		}
		path := filepath.Join(spanDir, "spans-"+cfg.workload+".jsonl")
		if err := writeSpans(path, prov, out.tracers...); err != nil {
			fmt.Fprintf(stderr, "perfbench: write spans: %v\n", err)
			return 1
		}
		out.diag["spans_file"] = path
	}
	if out.firstBad != "" {
		fmt.Fprintf(stderr, "perfbench: %s: FAILED: %s\n", cfg.workload, out.firstBad)
	}
	head, _ := json.Marshal(map[string]any{"provenance": prov, "diagnostics": out.diag})
	fmt.Fprintln(stdout, string(head))
	line, err := json.Marshal(out.res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !out.res.Correct {
		return 1
	}
	return 0
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// oversleepMicros measures how late time.Sleep(50µs) wakes up on the host,
// as the median of 100 sleeps. It is why lookups are closed loop: an
// open-loop pacer below about a millisecond would measure the timer.
func oversleepMicros() float64 {
	xs := make([]float64, 100)
	for i := range xs {
		t := time.Now()
		time.Sleep(50 * time.Microsecond)
		xs[i] = float64(time.Since(t)-50*time.Microsecond) / float64(time.Microsecond)
	}
	return quantile(xs, 0.5)
}
