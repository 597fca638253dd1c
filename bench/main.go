// Command bench is the repository's benchmark: five workloads over the paper's
// whole stack (core.Deployment with three durable validators and the pod host
// on a loopback socket), closed-loop, a fixed operation count per run, one OS
// process per workload run. See README.md for the workload and metric
// glossary, and BENCHMARK.json for the names and bounds the driver uses.
//
//	bash bench/run.sh                         every workload, untraced
//	bash bench/run.sh -workload chain-hot     one workload
//	bash bench/run.sh -trace 1                per-layer table and trace files
//	bash bench/run.sh -repeat 5               medians, quartiles, relative IQR
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"time"
)

func main() { os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr)) }

// options are the command line of both the supervisor and its children.
type options struct {
	workload string
	seed     int64
	seconds  int
	trace    int
	repeat   int
	ops      int
	setups   int
	timeout  time.Duration
	dataDir  string
	outDir   string
	child    bool
}

func parseFlags(args []string, stderr io.Writer) (options, error) {
	var o options
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&o.workload, "workload", "all", "workload to run: all, or one of "+strings.Join(workloadNames(), ", "))
	fs.Int64Var(&o.seed, "seed", defaultSeed, "workload seed: drives resource bodies, target choice and op interleaving")
	fs.IntVar(&o.seconds, "seconds", runSeconds, "sizes the fixed op count: ops/s of the authoring host × seconds")
	fs.IntVar(&o.trace, "trace", 0, "1 = traced run at a quarter of the op count: per-layer table and bench/out/<workload>.trace.json")
	fs.IntVar(&o.repeat, "repeat", 1, "fresh-process runs per workload (seed, seed+1, ...); prints median, quartiles, relative IQR")
	fs.IntVar(&o.ops, "ops", 0, "override the op count (0 = derive from -seconds)")
	fs.IntVar(&o.setups, "setups", 0, "set-ups per untraced run, setup_s being their median (0 = 3 to 9, more when they are cheap)")
	fs.DurationVar(&o.timeout, "timeout", 170*time.Second, "kill a workload process that runs longer and count the run as failed")
	fs.StringVar(&o.dataDir, "data-dir", filepath.Join("bench", "out", "data"), "parent directory of the validators' data dirs (must be on a disk, not tmpfs)")
	fs.StringVar(&o.outDir, "out", filepath.Join("bench", "out"), "where results and trace files are written")
	fs.BoolVar(&o.child, "child", false, "internal: run one workload in this process and print its result as JSON")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	if fs.NArg() > 0 {
		return o, fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	if o.trace != 0 && o.trace != 1 {
		return o, fmt.Errorf("-trace is 0 or 1, got %d", o.trace)
	}
	if o.seconds < 1 || o.repeat < 1 || o.setups < 0 {
		return o, errors.New("-seconds and -repeat are at least 1, -setups at least 0")
	}
	return o, nil
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.Name
	}
	return names
}

func realMain(args []string, stdout, stderr io.Writer) int {
	o, err := parseFlags(args, stderr)
	if err != nil {
		if !errors.Is(err, flag.ErrHelp) {
			fmt.Fprintln(stderr, "bench:", err)
		}
		return 2
	}
	if o.child {
		return childMain(o, stdout, stderr)
	}
	selected := workloads
	if o.workload != "all" {
		spec, ok := findWorkload(o.workload)
		if !ok {
			fmt.Fprintf(stderr, "bench: unknown workload %q (have %s)\n", o.workload, strings.Join(workloadNames(), ", "))
			return 2
		}
		selected = []workloadSpec{spec}
	}
	fmt.Fprintln(stdout, "closed loop:", clients, "clients, each waits for its reply before the next request (monitor-round: 1).")
	fmt.Fprintln(stdout, "validators exchange blocks in-process with zero injected message delay: latencies are processor time plus WAL I/O only.")

	final := contractResult{Correct: true, Metrics: map[string]contractMetric{}}
	for _, spec := range selected {
		var runs []runResult
		for i := range o.repeat {
			res := superviseRun(o, spec, o.seed+int64(i), stderr)
			printRun(stdout, res)
			if err := saveResult(o.outDir, res); err != nil {
				fmt.Fprintln(stderr, "bench:", err)
			}
			runs = append(runs, res)
		}
		if o.repeat > 1 {
			printRepeat(stdout, spec, runs)
		}
		final.add(spec, runs, o.trace == 1, len(selected) > 1)
	}
	raw, err := json.Marshal(final)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(raw))
	if !final.Correct {
		return 1
	}
	return 0
}

// childMain runs one workload in this process and prints its result.
func childMain(o options, stdout, stderr io.Writer) int {
	res, err := runWorkload(childConfig{
		workload: o.workload, seed: o.seed, ops: o.ops, traced: o.trace == 1,
		setups: o.setups, dataRoot: o.dataDir, outDir: o.outDir,
	})
	if err != nil {
		fmt.Fprintln(stderr, "bench child:", err)
		return 1
	}
	raw, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "bench child:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(raw))
	return 0
}

// superviseRun performs one run of one workload in fresh OS processes, so
// that GC state, CPU accounting and data dirs never leak between runs. An
// untraced run is one child. A traced run is two children at a quarter of the
// op count — untraced, then traced — whose throughput difference is the
// tracing overhead. A child that fails, or outlives the timeout and is
// killed, yields a failed result, never a hang.
func superviseRun(o options, spec workloadSpec, seed int64, stderr io.Writer) runResult {
	traced := o.trace == 1
	ops := o.ops
	if ops == 0 {
		ops = spec.opsFor(o.seconds, traced)
	}
	failed := func(err error) runResult {
		return runResult{Workload: spec.Name, Seed: seed, Traced: traced, Ops: ops, Attempted: ops, Failed: ops,
			Metrics: map[string]float64{}, Host: readHost(),
			Checks: []check{{Name: "run.completed", OK: false, Detail: err.Error()}}}
	}
	fs, err := preflight(spec, ops, o.dataDir)
	if err == nil && o.ops == 0 && !traced {
		err = checkSamples(spec, ops)
	}
	if err != nil {
		return failed(err)
	}
	if !traced {
		res, err := spawnChild(o, spec, seed, ops, false, o.setups, stderr)
		if err != nil {
			return failed(err)
		}
		res.Host.DataFS = fs
		return res
	}
	plain, err := spawnChild(o, spec, seed, ops, false, 1, stderr)
	if err != nil {
		return failed(fmt.Errorf("untraced reference run: %w", err))
	}
	res, err := spawnChild(o, spec, seed, ops, true, 1, stderr)
	if err != nil {
		return failed(err)
	}
	res.Host.DataFS = fs
	res.TwinOpsPerS = plain.Metrics["ops_per_s"]
	res.Metrics["trace_overhead_pct"] = 100 * ratio(res.TwinOpsPerS-res.Metrics["ops_per_s"], res.TwinOpsPerS)
	if !plain.correct() {
		res.Checks = append(res.Checks, check{Name: "trace.reference_run_correct", OK: false, Detail: plain.FirstError})
	}
	return res
}

// spawnChild re-executes this binary for one workload run under the
// mandatory timeout and decodes the result it prints.
func spawnChild(o options, spec workloadSpec, seed int64, ops int, traced bool, setups int, stderr io.Writer) (runResult, error) {
	exe, err := os.Executable()
	if err != nil {
		return runResult{}, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), o.timeout)
	defer cancel()
	trace := "0"
	if traced {
		trace = "1"
	}
	cmd := exec.CommandContext(ctx, exe, "-child",
		"-workload", spec.Name, "-seed", fmt.Sprint(seed), "-ops", fmt.Sprint(ops), "-trace", trace,
		"-setups", fmt.Sprint(setups), "-data-dir", o.dataDir, "-out", o.outDir)
	var out bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, stderr
	cmd.WaitDelay = 5 * time.Second
	err = cmd.Run() // starts the child and waits until it has ended
	if cmd.Process != nil {
		// A killed child cannot remove its data dirs; do it for it.
		leftovers, _ := filepath.Glob(filepath.Join(o.dataDir, fmt.Sprintf("%s-%d-*", spec.Name, cmd.Process.Pid)))
		for _, dir := range leftovers {
			err = errors.Join(err, os.RemoveAll(dir))
		}
	}
	if ctx.Err() != nil {
		return runResult{}, fmt.Errorf("%s exceeded the %s timeout and was killed", spec.Name, o.timeout)
	}
	if err != nil {
		return runResult{}, fmt.Errorf("%s process: %w", spec.Name, err)
	}
	var res runResult
	if err := json.Unmarshal(bytes.TrimSpace(out.Bytes()), &res); err != nil {
		return runResult{}, fmt.Errorf("%s result: %w", spec.Name, err)
	}
	return res, nil
}

// saveResult writes the full result of one run next to the trace files.
func saveResult(dir string, res runResult) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	name := res.Workload + ".result.json"
	if res.Traced {
		name = res.Workload + ".traced.result.json"
	}
	raw, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, name), raw, 0o644)
}

// contractMetric and contractResult are the last line of standard output: the
// shape the driver reads.
type contractMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type contractResult struct {
	Correct   bool                      `json:"correct"`
	Attempted int                       `json:"attempted"`
	Failed    int                       `json:"failed"`
	Metrics   map[string]contractMetric `json:"metrics"`
}

// add folds one workload's runs into the final line: the end-to-end metrics of
// an untraced run, the per-layer metrics of a traced one; the median when the
// workload was repeated; prefixed with the workload name when several ran.
func (c *contractResult) add(spec workloadSpec, runs []runResult, traced, prefix bool) {
	specs := endToEnd
	if traced {
		specs = perLayer
	}
	for _, r := range runs {
		c.Correct = c.Correct && r.correct()
		c.Attempted += r.Attempted
		c.Failed += r.Failed
	}
	for _, m := range specs {
		values := make([]float64, 0, len(runs))
		for _, r := range runs {
			if v, ok := r.Metrics[m.Name]; ok {
				values = append(values, v)
			}
		}
		if len(values) != len(runs) {
			c.Correct = false // a run that did not finish reports no metrics
			continue
		}
		name := m.Name
		if prefix {
			name = spec.Name + "/" + m.Name
		}
		c.Metrics[name] = contractMetric{Value: median(values), Unit: m.Unit}
	}
}
