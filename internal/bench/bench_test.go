package bench

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var updateModeled = flag.Bool("update", false, "rewrite testdata/modeled_tables.golden")

// modeledGolden names the experiments whose whole rendered table is
// analytic (pinned byte for byte) and those where only the "(modeled)"
// rows are: their other rows are wall-clock measurements.
var (
	modeledWhole = map[string]bool{"1": true, "6": true, "7": true, "8": true, "9": true, "10": true, "14": true}
	modeledRows  = map[string]bool{"2": true, "3": true, "5": true}
)

// modeledPart renders the deterministic part of an experiment table,
// or nothing for experiments with no modeled content.
func modeledPart(t *testing.T, id string, tab *Table) []byte {
	t.Helper()
	if !modeledWhole[id] && !modeledRows[id] {
		return nil
	}
	if modeledRows[id] {
		kept := *tab
		kept.Rows = nil
		for _, row := range tab.Rows {
			if strings.Contains(row[0], "modeled)") {
				kept.Rows = append(kept.Rows, row)
			}
		}
		tab = &kept
	}
	var buf bytes.Buffer
	if err := tab.Render(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// microScale keeps harness tests fast.
var microScale = Scale{
	Name: "micro", GenomeLen: 60_000,
	GenomeSet: []int{30_000, 60_000},
	GuideSet:  []int{2, 4}, Guides: 3,
	KSet: []int{1, 2}, K: 1,
}

func TestNewWorkloadDeterministic(t *testing.T) {
	a := NewWorkload(50_000, 5, 2, 9)
	b := NewWorkload(50_000, 5, 2, 9)
	if a.Genome.TotalLen() != 50_000 || len(a.Guides) != 5 {
		t.Fatalf("workload shape wrong: %d bp, %d guides", a.Genome.TotalLen(), len(a.Guides))
	}
	for i := range a.Guides {
		if a.Guides[i].String() != b.Guides[i].String() {
			t.Fatal("same seed must give same guides")
		}
	}
	if len(a.Specs()) != 10 {
		t.Fatalf("specs = %d, want 10 (both strands)", len(a.Specs()))
	}
}

func TestNewWorkloadTinyGenomeFallsBack(t *testing.T) {
	w := NewWorkload(500, 50, 1, 3)
	if len(w.Guides) != 50 {
		t.Fatalf("expected random-guide fallback to fill the set, got %d", len(w.Guides))
	}
}

func TestAllSystemsShape(t *testing.T) {
	w := NewWorkload(microScale.GenomeLen, microScale.Guides, microScale.K, 77)
	systems, err := AllSystems(w)
	if err != nil {
		t.Fatal(err)
	}
	if len(systems) != 6 {
		t.Fatalf("want the paper's 6 systems, got %d", len(systems))
	}
	measured, modeled := 0, 0
	for _, s := range systems {
		if s.Seconds <= 0 {
			t.Errorf("%s: non-positive time", s.Name)
		}
		if s.Modeled {
			modeled++
		} else {
			measured++
		}
	}
	if measured != 2 || modeled != 4 {
		t.Errorf("measured/modeled split = %d/%d, want 2/4", measured, modeled)
	}
}

func TestSliceWorkload(t *testing.T) {
	w := NewWorkload(100_000, 2, 1, 5)
	sub, scale := sliceWorkload(w, 10_000)
	if sub.Genome.TotalLen() != 10_000 || scale != 10 {
		t.Fatalf("slice: %d bp, scale %f", sub.Genome.TotalLen(), scale)
	}
	same, scale1 := sliceWorkload(w, 200_000)
	if same != w || scale1 != 1 {
		t.Fatal("under-cap workload must pass through")
	}
}

// TestEveryExperimentRuns runs the whole series at microScale and pins
// its analytic output against testdata/modeled_tables.golden (refresh
// with go test ./internal/bench -run TestEveryExperimentRuns -update).
func TestEveryExperimentRuns(t *testing.T) {
	parts := make(map[string][]byte)
	for _, id := range Order {
		t.Run("E"+id, func(t *testing.T) {
			tab, err := Experiments[id](microScale)
			if err != nil {
				t.Fatal(err)
			}
			if len(tab.Rows) == 0 {
				t.Fatal("no rows")
			}
			for _, row := range tab.Rows {
				if len(row) != len(tab.Header) {
					t.Fatalf("row width %d != header %d: %v", len(row), len(tab.Header), row)
				}
			}
			var buf bytes.Buffer
			if err := tab.Render(&buf); err != nil {
				t.Fatal(err)
			}
			if !strings.Contains(buf.String(), "== E"+id) {
				t.Error("render missing banner")
			}
			parts[id] = modeledPart(t, id, tab)
		})
	}
	var got []byte
	for _, id := range Order {
		got = append(got, parts[id]...)
	}
	path := filepath.Join("testdata", "modeled_tables.golden")
	if *updateModeled {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("modeled E-tables drifted from %s:\n--- got\n%s--- want\n%s", path, got, want)
	}
}

func TestRunAndRunAll(t *testing.T) {
	var buf bytes.Buffer
	if err := Run("9", microScale, &buf, false); err != nil {
		t.Fatal(err)
	}
	if err := Run("nope", microScale, &buf, false); err == nil {
		t.Error("unknown experiment must error")
	}
	var csv bytes.Buffer
	if err := Run("1", microScale, &csv, true); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(csv.String(), "k,") {
		t.Errorf("csv output wrong: %q", csv.String())
	}
}

func TestTableCSVQuoting(t *testing.T) {
	tab := &Table{Header: []string{"a", "b"}, Rows: [][]string{{`x,y`, `q"z`}}}
	var buf bytes.Buffer
	if err := tab.RenderCSV(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"x,y","q""z"`) {
		t.Errorf("quoting wrong: %q", buf.String())
	}
}

func TestFormatters(t *testing.T) {
	if F(0) != "0" || I(7) != "7" || X(2.04) != "2.0x" {
		t.Error("formatters wrong")
	}
	if !strings.Contains(F(0.0000005), "e-") {
		t.Errorf("tiny float formatting: %s", F(0.0000005))
	}
}
