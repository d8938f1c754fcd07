// Command perfgate is the compiler-feedback performance gate: it
// compiles every package containing a //crisprlint:hotpath function
// with escape analysis, inlining decisions, and surviving-bounds-check
// reporting enabled (-m=2 -d=ssa/check_bce/debug=1), attributes each
// verdict to its hot function, and compares against the justified,
// Go-toolchain-pinned PERF_BASELINE.txt.
//
// Modes:
//
//	perfgate                 print the current verdicts
//	perfgate -update         regenerate the baseline (justifications preserved)
//	perfgate -compare        gate against the baseline
//
// Exit codes in -compare mode: 0 clean; 3 new escape; 4 new inlining
// regression; 5 new bounds check; 6 baseline entry without a written
// justification; 1 operational error. When several classes regress at
// once the lowest code wins (escape before inline before bounds). On a
// Go toolchain version mismatch the gate warns and regenerates the
// baseline instead of failing falsely: compiler diagnostics are not
// stable across Go releases.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"github.com/cap-repro/crisprscan/internal/perfgate"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(argv []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfgate", flag.ContinueOnError)
	fs.SetOutput(stderr)
	dir := fs.String("dir", ".", "module root to gate")
	baseline := fs.String("baseline", "", "baseline `file` (default <dir>/PERF_BASELINE.txt)")
	update := fs.Bool("update", false, "regenerate the baseline, preserving justifications of surviving entries")
	compare := fs.Bool("compare", false, "compare current verdicts against the baseline and gate")
	classFlag := fs.String("class", "", "comma-separated budget `classes` to report/gate (escape,inline,bounds); default all")
	if err := fs.Parse(argv); err != nil {
		return 1
	}
	if *baseline == "" {
		*baseline = filepath.Join(*dir, "PERF_BASELINE.txt")
	}
	classes, err := parseClasses(*classFlag)
	if err != nil {
		fmt.Fprintf(stderr, "perfgate: %v\n", err)
		return 1
	}

	switch {
	case *update:
		return perfgate.Update(*dir, *baseline, stdout, stderr)
	case *compare:
		return perfgate.Compare(*dir, *baseline, classes, stdout, stderr)
	}

	entries, err := perfgate.Collect(*dir, classes)
	if err != nil {
		fmt.Fprintf(stderr, "perfgate: %v\n", err)
		return 1
	}
	for _, e := range entries {
		fmt.Fprintf(stdout, "%s | x%d\n", e.Key(), e.Count)
	}
	return 0
}

func parseClasses(s string) (map[perfgate.Class]bool, error) {
	if s == "" {
		return nil, nil
	}
	out := make(map[perfgate.Class]bool)
	for _, part := range strings.Split(s, ",") {
		c := perfgate.Class(strings.TrimSpace(part))
		switch c {
		case perfgate.ClassEscape, perfgate.ClassInline, perfgate.ClassBounds:
			out[c] = true
		default:
			return nil, fmt.Errorf("unknown class %q (want escape, inline, or bounds)", part)
		}
	}
	return out, nil
}
