// Command perfbench is the repository's benchmark: it runs one named
// workload against the engine as shipped, checks every output, and
// prints its metrics by name with their units. The last line of
// standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Usage (from the repository root):
//
//	bash perfbench/run.sh --workload build-row --seed 1 --seconds 10 --trace 0
//
// Workloads are closed loops driven from this one process by one
// client goroutine each (a workload's count is capped at NumCPU); a
// client waits for its reply before issuing the next operation. The
// seed makes the inputs; the engine receives only the generated rows.
// With --trace 1 the run records a span around every call it makes
// into a layer, grafts the engine's own statement span trees under
// them, probes each layer's public function alone on the workload's
// inputs, and reports the per-layer metrics instead of the end-to-end
// ones. layer_map.json says which end-to-end metric each layer metric
// should move, on which workload.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// config is one run's parameters.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// scale multiplies every table size; the self-test runs tiny.
	scale float64
	// setupReps is the least number of set-ups; setup_s is their median.
	setupReps int
	// workDir holds the run's database directory and trace files.
	workDir string
	// clients is the workload's closed-loop client count.
	clients int
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the run's final report.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var cfg config
	var traceFlag int
	flag.StringVar(&cfg.workload, "workload", "", "workload: "+workloadNames())
	flag.Int64Var(&cfg.seed, "seed", 1, "input seed")
	flag.Float64Var(&cfg.seconds, "seconds", 10, "measured seconds")
	flag.IntVar(&traceFlag, "trace", 0, "1 runs the traced variant and reports per-layer metrics")
	flag.Parse()
	cfg.trace = traceFlag != 0
	cfg.scale, cfg.setupReps, cfg.workDir = 1, 3, filepath.Join(".bench_build", "perfbench-run")

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	res, err := run(ctx, cfg, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if err := writeResult(os.Stdout, res); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if !res.Correct || res.Failed > 0 {
		os.Exit(2)
	}
}

// run executes one workload and returns its report; human-readable
// lines (every metric with its unit, the self-time table) go to out.
func run(ctx context.Context, cfg config, out io.Writer) (*result, error) {
	w, ok := workloads[cfg.workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (want one of %s)", cfg.workload, workloadNames())
	}
	if cfg.seconds <= 0 || cfg.scale <= 0 || cfg.setupReps < 1 {
		return nil, fmt.Errorf("invalid --seconds/--scale/--setup-reps")
	}
	cfg.clients = min(w.clients, runtime.NumCPU())
	if err := os.MkdirAll(cfg.workDir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(cfg.workDir, cfg.workload+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	rep := &report{metrics: map[string]metric{}}
	b, err := setupMedian(ctx, w, cfg, dir, rep)
	if err != nil {
		return nil, err
	}
	defer b.close()

	if cfg.trace {
		if err := runTraced(ctx, b, cfg, rep, out); err != nil {
			return nil, err
		}
	} else {
		win, err := drive(ctx, b, cfg.clients, seconds(cfg.seconds), nil)
		if err != nil {
			return nil, err
		}
		rep.addWindow(win)
		if err := b.finish(ctx, rep); err != nil {
			return nil, err
		}
		endToEnd(b, win, cfg.clients, rep)
	}
	printHuman(out, cfg, rep)
	keep := endToEndNames
	if cfg.trace {
		keep = perLayerNames
	}
	res := &result{Correct: rep.failed == 0 && rep.checkErr == nil, Attempted: rep.attempted, Failed: rep.failed, Metrics: map[string]metric{}}
	for _, name := range keep {
		m, ok := rep.metrics[name]
		if !ok {
			return nil, fmt.Errorf("workload %s did not produce metric %s", cfg.workload, name)
		}
		res.Metrics[name] = m
	}
	if res.Attempted < 1 {
		return nil, fmt.Errorf("no operation completed in %.1fs", cfg.seconds)
	}
	return res, nil
}

// Fast set-ups repeat until they have taken minSetupTime in all, so
// that their median is steady too.
const (
	minSetupTime = 2 * time.Second
	maxSetupReps = 9
)

// setupMedian sets the workload up at least cfg.setupReps times, each
// into a fresh directory, keeps the last instance and reports the
// median set-up time as setup_s.
func setupMedian(ctx context.Context, w workload, cfg config, dir string, rep *report) (bench, error) {
	var times, loads []float64
	var b bench
	var spent time.Duration
	for r := 0; r < cfg.setupReps || (spent < minSetupTime && r < maxSetupReps); r++ {
		if b != nil {
			if err := b.close(); err != nil {
				return nil, err
			}
		}
		dbDir := filepath.Join(dir, fmt.Sprintf("db%d", r))
		if r > 0 {
			if err := os.RemoveAll(filepath.Join(dir, fmt.Sprintf("db%d", r-1))); err != nil {
				return nil, err
			}
		}
		start := time.Now()
		var err error
		var st setupStats
		b, st, err = w.setup(ctx, cfg, dbDir)
		if err != nil {
			if b != nil {
				b.close()
			}
			return nil, fmt.Errorf("set-up of %s: %w", cfg.workload, err)
		}
		d := time.Since(start)
		spent += d
		times = append(times, d.Seconds())
		loads = append(loads, st.loadNsPerRow)
	}
	rep.set("setup_s", median(times), "s")
	rep.set("storage.load_ns_per_row", median(loads), "ns")
	// Disk use is taken once the inputs are loaded and before the ops
	// run, so appends made at whatever rate the machine allows do not
	// move it.
	u, err := diskUsage(b.dir(), b.engine())
	if err != nil {
		b.close()
		return nil, err
	}
	rep.set("disk_bytes_per_user_byte", u.perUserByte(), "ratio")
	return b, nil
}

// writeResult prints the final JSON line.
func writeResult(w io.Writer, res *result) error {
	buf, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", buf)
	return err
}

func workloadNames() string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	b, _ := json.Marshal(names)
	return string(b)
}

func seconds(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }
