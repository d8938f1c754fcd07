// Command anmlview compiles guides into their off-target search
// automata and dumps statistics, ANML (the Automata Processor's network
// markup language), or MNRL-style JSON — the artifacts one would hand to
// AP/FPGA automata toolchains. The network is the one the AP and FPGA
// models place (arch.CompileNetwork), so its state count is theirs.
//
// Usage:
//
//	anmlview -guide GGGTGGGGGGAGTTTGCTCC -k 3                 # stats
//	anmlview -guide ... -k 3 -format anml > net.anml
//	anmlview -guide ... -k 3 -merge -stride2 -format json
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"github.com/cap-repro/crisprscan/internal/anml"
	"github.com/cap-repro/crisprscan/internal/arch"
	"github.com/cap-repro/crisprscan/internal/automata"
	"github.com/cap-repro/crisprscan/internal/core"
	"github.com/cap-repro/crisprscan/internal/dna"
	"github.com/cap-repro/crisprscan/internal/report"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run executes one anmlview invocation and returns the exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("anmlview", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		guide   = fs.String("guide", "", "guide spacer (required)")
		k       = fs.Int("k", 3, "mismatch budget")
		bulge   = fs.Int("bulge", 0, "bulge budget (edit automaton)")
		pamStr  = fs.String("pam", "NGG", "PAM pattern")
		both    = fs.Bool("both-strands", true, "compile both strands")
		merge   = fs.Bool("merge", false, "apply prefix/suffix state merging")
		stride2 = fs.Bool("stride2", false, "apply the 2-striding transform")
		format  = fs.String("format", "stats", "output: stats, anml, json, dot")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(format string, args ...any) int {
		fmt.Fprintf(stderr, "anmlview: "+format+"\n", args...)
		return 1
	}
	if *guide == "" {
		return fail("missing -guide")
	}
	spacer, err := dna.ParsePattern(*guide)
	if err != nil {
		return fail("%v", err)
	}
	pam, err := dna.ParsePattern(*pamStr)
	if err != nil {
		return fail("%v", err)
	}

	build := func(opt arch.NetworkOptions) (*automata.NFA, error) {
		if *bulge == 0 {
			return arch.CompileNetwork(core.BuildSpecs([]dna.Pattern{spacer}, pam, *k, !*both), opt)
		}
		n, err := automata.CompileEdit(spacer, automata.EditOptions{
			MaxMismatches: *k, MaxBulge: *bulge, PAM: pam, Code: 0,
		})
		if err != nil {
			return nil, err
		}
		if *both {
			minus, err := automata.CompileEdit(spacer.ReverseComplement(), automata.EditOptions{
				MaxMismatches: *k, MaxBulge: *bulge, PAM: pam.ReverseComplement(),
				PAMLeft: true, Code: report.CodeFor(0, '-'),
			})
			if err != nil {
				return nil, err
			}
			if err := n.Union(minus); err != nil {
				return nil, err
			}
		}
		return arch.TransformNetwork(n, opt)
	}
	opt := arch.NetworkOptions{Merge: *merge, Stride2: *stride2}
	n, err := build(opt)
	if err != nil {
		return fail("%v", err)
	}
	if *merge {
		plain, err := build(arch.NetworkOptions{Stride2: *stride2})
		if err != nil {
			return fail("%v", err)
		}
		fmt.Fprintf(stderr, "anmlview: merging removed %d states\n", plain.NumStates()-n.NumStates())
	}

	switch *format {
	case "stats":
		st := n.ComputeStats()
		fmt.Fprintf(stdout, "label:         %s\n", n.Label)
		fmt.Fprintf(stdout, "alphabet:      %d\n", n.Alphabet)
		fmt.Fprintf(stdout, "states (STEs): %d\n", st.States)
		fmt.Fprintf(stdout, "edges:         %d\n", st.Edges)
		fmt.Fprintf(stdout, "start states:  %d\n", st.StartStates)
		fmt.Fprintf(stdout, "report states: %d\n", st.ReportStates)
		fmt.Fprintf(stdout, "max fan-in:    %d\n", st.MaxFanIn)
		fmt.Fprintf(stdout, "max fan-out:   %d\n", st.MaxFanOut)
		fmt.Fprintf(stdout, "avg class:     %.2f\n", st.AvgClassSize)
	case "anml":
		doc, err := anml.FromNFA(n, "offtarget")
		if err != nil {
			return fail("%v", err)
		}
		if err := doc.Write(stdout); err != nil {
			return fail("%v", err)
		}
	case "json":
		if err := anml.WriteJSON(stdout, anml.ToJSON(n, "offtarget")); err != nil {
			return fail("%v", err)
		}
	case "dot":
		if err := n.WriteDot(stdout, "offtarget"); err != nil {
			return fail("%v", err)
		}
	default:
		return fail("unknown format %q", *format)
	}
	return 0
}
