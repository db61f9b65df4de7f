// Command perfbench is the repository benchmark. It runs one named
// workload against a vChain service provider and its light clients,
// checks every verified answer against a plaintext evaluation of the
// same query, and prints typed metrics:
//
//	bash perfbench/run.sh --workload window-cold --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. With --trace 0 the metrics
// are the end-to-end ones; with --trace 1 the run records spans around
// every call into the layers and the metrics are the per-layer ones.
// The line before it is a full report: host, configuration, sizes and
// every measurement of the run. README.md describes the workloads, the
// metrics and which layer each one watches.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"
)

func main() {
	var (
		name    = flag.String("workload", "", "workload to run: "+workloadList())
		seed    = flag.Int64("seed", 1, "input seed: the same seed gives the same chain and windows")
		seconds = flag.Float64("seconds", 20, "length of the measured phase in seconds")
		trace   = flag.Int("trace", 0, "1 records spans and reports per-layer metrics")
		data    = flag.String("data", ".bench_build/perfbench-data", "directory for durable stores and trace files")
	)
	flag.Parse()
	cfg := defaultConfig()
	cfg.seed = *seed
	cfg.seconds = time.Duration(*seconds * float64(time.Second))
	cfg.trace = *trace == 1
	cfg.dataDir = *data
	w, ok := workloads[*name]
	if !ok || (*trace != 0 && *trace != 1) || *seconds <= 0 {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (%s), --seconds > 0 and --trace 0|1\n", workloadList())
		os.Exit(2)
	}
	res, err := run(cfg, *name, w)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		os.Exit(1)
	}
	if err := printResult(os.Stdout, res, cfg.trace); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
}

// run prepares the data directory, runs the workload and removes the
// durable stores it created (trace files stay).
func run(cfg config, name string, w workloadFunc) (*result, error) {
	if err := os.MkdirAll(cfg.dataDir, 0o755); err != nil {
		return nil, err
	}
	scratch, err := os.MkdirTemp(cfg.dataDir, name+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(scratch)
	cfg.storeDir = scratch
	res, err := w(cfg)
	if err != nil {
		return nil, err
	}
	res.Report["workload"] = name
	res.Report["host"] = hostInfo()
	res.Report["config"] = cfg.describe()
	if cfg.trace && res.spans != nil {
		path, err := writeSpans(cfg.dataDir, name, cfg.seed, res.spans)
		if err != nil {
			return nil, err
		}
		res.Report["trace_file"] = path
	}
	return res, nil
}

// hostInfo records what makes results comparable across machines.
func hostInfo() map[string]any {
	return map[string]any{
		"go_version": runtime.Version(),
		"goos":       runtime.GOOS,
		"goarch":     runtime.GOARCH,
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"nproc":      runtime.NumCPU(),
	}
}

// printResult writes the report line and then the result line:
// end-to-end metrics untraced, per-layer metrics traced.
func printResult(f *os.File, res *result, traced bool) error {
	names := endToEnd
	if traced {
		names = perLayer
	}
	metrics := map[string]metric{}
	for _, n := range names {
		m, ok := res.Metrics[n.name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", n.name)
		}
		if m.Unit != n.unit {
			return fmt.Errorf("metric %s measured in %s, declared in %s", n.name, m.Unit, n.unit)
		}
		metrics[n.name] = m
	}
	report, err := json.Marshal(map[string]any{"report": res.Report, "metrics_all": res.Metrics})
	if err != nil {
		return err
	}
	if res.Attempted < 1 {
		return errors.New("no operation was attempted")
	}
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{res.Failed == 0, res.Attempted, res.Failed, metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(f, "%s\n%s\n", report, line)
	return err
}
