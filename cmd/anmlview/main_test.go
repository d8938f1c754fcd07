package main

import (
	"bytes"
	"regexp"
	"strconv"
	"testing"

	"github.com/cap-repro/crisprscan/internal/core"
	"github.com/cap-repro/crisprscan/internal/dna"
	"github.com/cap-repro/crisprscan/internal/fpga"
)

// TestStatsMatchFPGAPlacement pins that anmlview exports the network the
// FPGA model maps: the stats state count equals Resources().States for
// every merge/stride combination.
func TestStatsMatchFPGAPlacement(t *testing.T) {
	const guide = "GGGTGGGGGGAGTTTGCTCC"
	statesRE := regexp.MustCompile(`states \(STEs\): (\d+)`)
	specs := core.BuildSpecs([]dna.Pattern{dna.MustParsePattern(guide)}, dna.MustParsePattern("NGG"), 3, false)
	for _, opt := range []fpga.Options{{}, {MergeStates: true}, {Stride2: true}, {MergeStates: true, Stride2: true}} {
		args := []string{"-guide", guide, "-k", "3"}
		if opt.MergeStates {
			args = append(args, "-merge")
		}
		if opt.Stride2 {
			args = append(args, "-stride2")
		}
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code != 0 {
			t.Fatalf("%v: exit %d: %s", args, code, stderr.String())
		}
		m := statesRE.FindStringSubmatch(stdout.String())
		if m == nil {
			t.Fatalf("%v: no state count in output:\n%s", args, stdout.String())
		}
		got, _ := strconv.Atoi(m[1])
		model, err := fpga.Compile(specs, opt)
		if err != nil {
			t.Fatal(err)
		}
		if want := model.Resources().States; got != want {
			t.Errorf("%v: anmlview reports %d states, the FPGA model places %d", args, got, want)
		}
	}
}

func TestRunErrors(t *testing.T) {
	for _, args := range [][]string{
		{},
		{"-guide", "GGGTGGGGGGAGTTTGCTCC", "-format", "nope"},
		{"-guide", "GGGTGGGGGGAGTTTGCTCC", "-pam", "X!"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code == 0 {
			t.Errorf("%v: exit 0, want failure", args)
		}
	}
}
