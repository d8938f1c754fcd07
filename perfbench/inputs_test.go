package main

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

var tiny = workload{
	Name:  "batch-many-guides",
	Shape: shape{Chroms: 2, ChromLen: 20_000, Guides: 5, Pool: 20, Sets: 2, K: 2, Index: true},
}

func TestGenerateIsDeterministic(t *testing.T) {
	a, b := t.TempDir(), t.TempDir()
	ma, err := generate(a, tiny, 7)
	if err != nil {
		t.Fatal(err)
	}
	mb, err := generate(b, tiny, 7)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"genome.fa", "genome.csix"} {
		fa, err := os.ReadFile(filepath.Join(a, name))
		if err != nil {
			t.Fatal(err)
		}
		fb, err := os.ReadFile(filepath.Join(b, name))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(fa, fb) {
			t.Errorf("%s differs between two generations from one seed", name)
		}
	}
	if !reflect.DeepEqual(ma.GuideSets, mb.GuideSets) || !reflect.DeepEqual(ma.Digests, mb.Digests) {
		t.Error("guide sets or reference digests differ between two generations from one seed")
	}
	mc, err := generate(t.TempDir(), tiny, 8)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(ma.GuideSets, mc.GuideSets) {
		t.Error("seeds 7 and 8 drew the same guide sets")
	}
}

// corrupting flips one byte of every output its runner writes.
type corrupting struct{ runner }

func (c corrupting) job(set int) (string, error) {
	out, err := c.runner.job(set)
	if err != nil {
		return out, err
	}
	b, err := os.ReadFile(out)
	if err != nil {
		return out, err
	}
	b[len(b)/2] ^= 1
	return out, os.WriteFile(out, b, 0o644)
}

func TestOneByteCorruptionFailsTheJob(t *testing.T) {
	m, err := generate(t.TempDir(), tiny, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"batch-many-guides", "index-query", "serve-small-jobs"} {
		t.Run(name, func(t *testing.T) {
			m.Workload = name
			r, err := newRunner(m)
			if err != nil {
				t.Fatal(err)
			}
			defer r.close()
			if _, err := r.setup(); err != nil {
				t.Fatal(err)
			}
			var tl tally
			_, err = checkedJob(r, m, 1)
			if !tl.record(err) || tl.failed != 0 {
				t.Fatalf("clean job failed: %v", err)
			}
			_, err = checkedJob(corrupting{r}, m, 1)
			if tl.record(err) || tl.failed != 1 || tl.attempted != 2 {
				t.Fatalf("corrupted output passed the check (err %v, tally %+v)", err, tl)
			}
		})
	}
}

func TestCheckOutputMissingFile(t *testing.T) {
	err := checkOutput(filepath.Join(t.TempDir(), "absent.tsv"), "00")
	if err == nil || !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("checkOutput on a missing file = %v, want ErrNotExist", err)
	}
}
