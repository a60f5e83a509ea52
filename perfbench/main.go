// Command perfbench is the repair benchmark: it measures the time to a
// verified repair on four workloads and, in a separate traced run,
// attributes that time to the engine's layers.
//
//	perfbench --workload corpus --seed 1 --seconds 20 --trace 0 --workdir DIR
//
// It drives only the program's public surface — acr.GenerateCorpus and
// acr.Repair for the library workloads, service.New and Server.Handler on
// a loopback listener for the daemon — and checks every repair's output
// with an independent cold verification outside the timed window. The
// last line of standard output is one JSON object: correct, attempted,
// failed and metrics. The line before it, prefixed "report ", records the
// seed, the workload's reason, the output digest and sample counts.
// NOTES.md defines every metric.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// config is one invocation's settings.
type config struct {
	workload *workload
	seed     int64
	seconds  time.Duration
	trace    bool
	workdir  string // per-run state: service state and store directories
	spans    string // directory the traced run writes its spans to ("" = none)
	size     int    // incidents per pass; 0 takes the workload's default
}

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report is the line before the result: what was run and what it produced.
type report struct {
	Workload  string  `json:"workload"`
	Why       string  `json:"why"`
	Seed      int64   `json:"seed"`
	Trace     bool    `json:"trace"`
	Incidents int     `json:"incidents"`
	Passes    int     `json:"passes"`
	Repairs   int     `json:"repairs"`
	WindowS   float64 `json:"window_s"`
	// The window's CPU time, and its wall-clock figures for reference.
	WindowCPUS      float64 `json:"window_cpu_s"`
	WallRepairsPerS float64 `json:"wall_repairs_per_s"`
	WallP50Ms       float64 `json:"wall_p50_ms"`
	WallP90Ms       float64 `json:"wall_p90_ms"`
	// Digest hashes every checked repair's canonical result in pass order;
	// UntracedDigest is the traced run's own untraced reference.
	Digest         string  `json:"digest"`
	UntracedDigest string  `json:"untraced_digest,omitempty"`
	Repaired       int     `json:"repaired"`
	Improved       int     `json:"improved"`
	Checked        int     `json:"checked"`
	FailedFrac     float64 `json:"failed_frac"`
	P90Samples     int     `json:"p90_samples,omitempty"`
	SpansFile      string  `json:"spans_file,omitempty"`
	// Failures lists the first few failed operations with their reason.
	Failures []string `json:"failures,omitempty"`
}

func run(args []string, stdout, stderr io.Writer) int {
	cfg, err := parseFlags(args, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	if err := os.MkdirAll(cfg.workdir, 0o755); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	var rep *report
	var res *result
	if cfg.trace {
		rep, res, err = cfg.workload.traced(cfg)
	} else {
		rep, res, err = cfg.workload.measure(cfg)
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "report %s\n", line)
	line, err = json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

func parseFlags(args []string, stderr io.Writer) (config, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: corpus, scale, universal or service")
	seed := fs.Int64("seed", 1, "workload seed: drives corpus generation and every engine seed")
	seconds := fs.Float64("seconds", 20, "measure for at least this many seconds")
	trace := fs.Int("trace", 0, "1 runs the traced per-layer run instead of the end-to-end one")
	workdir := fs.String("workdir", "", "directory for per-run state (required)")
	spans := fs.String("spans", "", "directory the traced run writes its spans to")
	size := fs.Int("size", 0, "incidents per pass (0 = the workload's default)")
	if err := fs.Parse(args); err != nil {
		return config{}, err
	}
	w := workloadByName(*name)
	switch {
	case w == nil:
		return config{}, fmt.Errorf("unknown workload %q", *name)
	case *trace != 0 && *trace != 1:
		return config{}, errors.New("--trace must be 0 or 1")
	case *seconds <= 0:
		return config{}, errors.New("--seconds must be positive")
	case *workdir == "":
		return config{}, errors.New("--workdir is required")
	case *size < 0:
		return config{}, errors.New("--size must not be negative")
	}
	return config{
		workload: w,
		seed:     *seed,
		seconds:  time.Duration(*seconds * float64(time.Second)),
		trace:    *trace == 1,
		workdir:  *workdir,
		spans:    *spans,
		size:     *size,
	}, nil
}
