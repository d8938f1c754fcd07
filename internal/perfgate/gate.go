package perfgate

import (
	"fmt"
	"io"
	"os"
)

// This file holds the gate modes behind cmd/perfgate. Each returns a
// process exit code and
// reports through the injected writers (never the terminal directly —
// the logdiscipline invariant holds for gate engines too).

// Update regenerates the baseline at path from the current verdicts of
// all three classes, carrying over the written justification of every
// surviving entry; new entries get the TODO placeholder so Compare
// fails until someone writes a reason.
func Update(dir, path string, stdout, stderr io.Writer) int {
	entries, err := Collect(dir, nil)
	if err != nil {
		fmt.Fprintf(stderr, "perfgate: %v\n", err)
		return 1
	}
	version, err := GoVersion(dir)
	if err != nil {
		fmt.Fprintf(stderr, "perfgate: %v\n", err)
		return 1
	}
	if prior, err := ReadBaseline(path); err == nil {
		entries = PreserveJustifications(prior, entries)
	} else if !os.IsNotExist(err) {
		fmt.Fprintf(stderr, "perfgate: %v\n", err)
		return 1
	}
	if err := WriteBaseline(path, &Baseline{GoVersion: version, Entries: entries}); err != nil {
		fmt.Fprintf(stderr, "perfgate: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "perfgate: wrote %s (%d entries, pinned to %s)\n", path, len(entries), version)
	for _, e := range Unjustified(&Baseline{Entries: entries}) {
		fmt.Fprintf(stdout, "perfgate: needs justification: %s\n", e.Key())
	}
	return 0
}

// Compare gates the current verdicts against the baseline at path,
// restricted to classes when non-nil. Exit codes: 0 clean; 3 new
// escape; 4 new inlining regression; 5 new bounds check; 6 baseline
// entry without a written justification; 1 operational error. On a Go
// toolchain mismatch it regenerates the baseline (warn, preserve
// justifications, exit 0) rather than failing on diagnostics the
// pinned toolchain never produced.
func Compare(dir, path string, classes map[Class]bool, stdout, stderr io.Writer) int {
	base, err := ReadBaseline(path)
	if err != nil {
		fmt.Fprintf(stderr, "perfgate: %v\n", err)
		return 1
	}
	version, err := GoVersion(dir)
	if err != nil {
		fmt.Fprintf(stderr, "perfgate: %v\n", err)
		return 1
	}
	if base.GoVersion != version {
		fmt.Fprintf(stderr, "perfgate: baseline pinned to %q but toolchain is %q; regenerating instead of comparing (compiler diagnostics are not stable across Go releases)\n",
			base.GoVersion, version)
		entries, err := Collect(dir, nil)
		if err != nil {
			fmt.Fprintf(stderr, "perfgate: %v\n", err)
			return 1
		}
		entries = PreserveJustifications(base, entries)
		if err := WriteBaseline(path, &Baseline{GoVersion: version, Entries: entries}); err != nil {
			fmt.Fprintf(stderr, "perfgate: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "perfgate: regenerated %s (%d entries, pinned to %s); review and commit it\n", path, len(entries), version)
		return 0
	}

	entries, err := Collect(dir, classes)
	if err != nil {
		fmt.Fprintf(stderr, "perfgate: %v\n", err)
		return 1
	}
	gated := base
	if classes != nil {
		filtered := &Baseline{GoVersion: base.GoVersion}
		for _, e := range base.Entries {
			if classes[e.Class] {
				filtered.Entries = append(filtered.Entries, e)
			}
		}
		gated = filtered
	}
	code := Diff(gated, entries).Report(stdout, stderr)
	if unjust := Unjustified(gated); len(unjust) > 0 {
		for _, e := range unjust {
			fmt.Fprintf(stderr, "perfgate: baseline entry lacks a justification: %s\n", e.Key())
		}
		if code == 0 {
			code = 6
		}
	}
	if code == 0 {
		fmt.Fprintf(stdout, "perfgate: clean against %s (%d baselined verdicts)\n", path, len(gated.Entries))
	}
	return code
}
