// Command benchjson runs the pinned benchmark workload matrix
// (engine x k x guide-count x genome-size) and emits a machine-readable
// trajectory document with throughput, per-phase breakdowns and
// allocation stats:
//
//	benchjson -scale test -o BENCH_4.json
//
// With -compare it additionally joins the fresh run against a baseline
// report and exits nonzero when any matrix cell regressed past the
// threshold (default 15% slower). Baseline cells the run no longer
// measures are printed as DROPPED; they do not change the exit code:
//
//	benchjson -scale test -o BENCH_4.json -compare BENCH_4.json
//
// CI runs the test scale on every push and keeps the committed
// BENCH_4.json as the trajectory point for this growth stage.
package main

import (
	"flag"
	"fmt"
	"os"

	"github.com/cap-repro/crisprscan/internal/bench"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}

func run() error {
	scaleName := flag.String("scale", "test", "workload scale profile (test, default, large)")
	out := flag.String("o", "", "output path for the JSON report (default stdout)")
	compare := flag.String("compare", "", "baseline report to compare against; regressions exit nonzero")
	threshold := flag.Float64("threshold", 0.15, "allowed fractional slowdown before -compare fails (0.15 = 15%)")
	minSeconds := flag.Float64("min-seconds", 0.005, "skip -compare for cells whose baseline is faster than this (noise floor)")
	seed := flag.Int64("seed", 42, "workload generation seed")
	quiet := flag.Bool("q", false, "suppress per-cell progress on stderr")
	flag.Parse()

	scale, ok := bench.Scales[*scaleName]
	if !ok {
		return fmt.Errorf("unknown scale %q (have: test, default, large)", *scaleName)
	}

	// Read the baseline before running, so a bad path fails fast.
	var baseline *bench.BenchReport
	if *compare != "" {
		f, err := os.Open(*compare)
		if err != nil {
			return err
		}
		baseline, err = bench.ReadBenchReport(f)
		f.Close()
		if err != nil {
			return err
		}
	}

	progress := func(i, n int, mc bench.MatrixCase) {
		if !*quiet {
			fmt.Fprintf(os.Stderr, "[%d/%d] %s genome=%d guides=%d k=%d\n",
				i+1, n, mc.Engine, mc.GenomeLen, mc.Guides, mc.K)
		}
	}
	rep, err := bench.RunMatrix(scale, *seed, progress)
	if err != nil {
		return err
	}

	w := os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	if err := rep.WriteJSON(w); err != nil {
		return err
	}

	if baseline != nil {
		for _, key := range bench.Dropped(baseline, rep) {
			fmt.Fprintf(os.Stderr, "DROPPED %s: in %s, not measured by this run\n", key, *compare)
		}
		regs := bench.Compare(baseline, rep, bench.CompareOptions{
			Threshold: *threshold, MinSeconds: *minSeconds,
		})
		if len(regs) > 0 {
			for _, r := range regs {
				fmt.Fprintf(os.Stderr, "REGRESSION %s: %.4fs -> %.4fs (%.2fx, threshold %.2fx)\n",
					r.Key, r.OldSec, r.NewSec, r.Ratio, 1+*threshold)
			}
			return fmt.Errorf("%d matrix cell(s) regressed past %.0f%% vs %s",
				len(regs), *threshold*100, *compare)
		}
		if !*quiet {
			fmt.Fprintf(os.Stderr, "compare: no regressions vs %s (threshold %.0f%%)\n",
				*compare, *threshold*100)
		}
	}
	return nil
}
