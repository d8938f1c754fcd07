package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"log/slog"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"github.com/cap-repro/crisprscan"
	"github.com/cap-repro/crisprscan/internal/fasta"
)

// cliFixture synthesizes a genome and guide set and writes both in the
// on-disk formats the CLI consumes.
func cliFixture(t *testing.T, seed int64) (genomePath, guidesPath string, guides []crisprscan.Guide) {
	t.Helper()
	dir := t.TempDir()
	g := crisprscan.SynthesizeGenome(crisprscan.SynthConfig{Seed: seed, ChromLen: 30000, NumChroms: 3})
	guides, err := crisprscan.SampleGuides(g, 2, 20, "NGG", seed+1)
	if err != nil {
		t.Fatal(err)
	}

	genomePath = filepath.Join(dir, "genome.fa")
	gf, err := os.Create(genomePath)
	if err != nil {
		t.Fatal(err)
	}
	fw := fasta.NewWriter(gf, 60)
	for _, rec := range g.ToFasta() {
		if err := fw.Write(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := fw.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := gf.Close(); err != nil {
		t.Fatal(err)
	}

	var gl strings.Builder
	for _, gu := range guides {
		fmt.Fprintf(&gl, "%s %s\n", gu.Name, gu.Spacer)
	}
	guidesPath = filepath.Join(dir, "guides.txt")
	if err := os.WriteFile(guidesPath, []byte(gl.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	return genomePath, guidesPath, guides
}

func TestRunWritesCompleteOutputFile(t *testing.T) {
	genomePath, guidesPath, _ := cliFixture(t, 801)
	outPath := filepath.Join(t.TempDir(), "sites.tsv")
	cfg := &config{genomePath: genomePath, guidesPath: guidesPath, k: 2, pam: "NGG", workers: 1, outPath: outPath}
	if err := run(context.Background(), cfg); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(outPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(data, []byte("guide\t")) {
		t.Fatalf("output missing TSV header: %q", data[:min(len(data), 40)])
	}
	if len(data) > 0 && data[len(data)-1] != '\n' {
		t.Fatal("output not fully flushed: missing trailing newline")
	}
}

// TestRunStreamMatchesInMemory pins satellite behavior: streamed rows
// are written incrementally from yield, yet the file must be
// byte-identical to the buffered in-memory mode.
func TestRunStreamMatchesInMemory(t *testing.T) {
	genomePath, guidesPath, _ := cliFixture(t, 802)
	dir := t.TempDir()
	memOut := filepath.Join(dir, "mem.tsv")
	streamOut := filepath.Join(dir, "stream.tsv")

	memCfg := &config{genomePath: genomePath, guidesPath: guidesPath, k: 2, pam: "NGG", workers: 1, outPath: memOut}
	if err := run(context.Background(), memCfg); err != nil {
		t.Fatal(err)
	}
	streamCfg := &config{genomePath: genomePath, guidesPath: guidesPath, k: 2, pam: "NGG", workers: 1, outPath: streamOut, stream: true}
	if err := run(context.Background(), streamCfg); err != nil {
		t.Fatal(err)
	}

	mem, err := os.ReadFile(memOut)
	if err != nil {
		t.Fatal(err)
	}
	streamed, err := os.ReadFile(streamOut)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(mem, streamed) {
		t.Fatalf("stream output (%d bytes) differs from in-memory output (%d bytes)", len(streamed), len(mem))
	}
}

func TestRunCheckpointRequiresStream(t *testing.T) {
	genomePath, guidesPath, _ := cliFixture(t, 803)
	cfg := &config{genomePath: genomePath, guidesPath: guidesPath, k: 1, pam: "NGG",
		ckptPath: filepath.Join(t.TempDir(), "scan.ckpt")}
	err := run(context.Background(), cfg)
	if err == nil || !strings.Contains(err.Error(), "-checkpoint requires -stream") {
		t.Fatalf("want -checkpoint/-stream coupling error, got %v", err)
	}
}

func TestRunTimeoutAbortsButFlushes(t *testing.T) {
	genomePath, guidesPath, _ := cliFixture(t, 804)
	dir := t.TempDir()
	outPath := filepath.Join(dir, "sites.tsv")
	cfg := &config{genomePath: genomePath, guidesPath: guidesPath, k: 2, pam: "NGG", workers: 1,
		outPath: outPath, stream: true, ckptPath: filepath.Join(dir, "scan.ckpt"),
		timeout: time.Nanosecond}
	err := run(context.Background(), cfg)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want wrapped context.DeadlineExceeded, got %v", err)
	}
	if !strings.Contains(err.Error(), "progress saved") {
		t.Fatalf("checkpointed abort must advertise resumability: %v", err)
	}
	// The deferred flush path must still deliver everything written
	// before the abort (here: the TSV header).
	data, err := os.ReadFile(outPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(data, []byte("guide\t")) {
		t.Fatalf("aborted run truncated its output: %q", data)
	}
}

// TestRunCheckpointResumeByteIdentical interrupts a checkpointed
// streaming run after its first chromosome commits (standing in for a
// SIGINT'd process) and resumes it through the CLI path, asserting the
// final output file is byte-identical to an uninterrupted CLI run.
func TestRunCheckpointResumeByteIdentical(t *testing.T) {
	genomePath, guidesPath, guides := cliFixture(t, 805)
	dir := t.TempDir()
	params := crisprscan.Params{MaxMismatches: 2, PAM: "NGG"}

	fullOut := filepath.Join(dir, "full.tsv")
	fullCfg := &config{genomePath: genomePath, guidesPath: guidesPath, k: 2, pam: "NGG", workers: 1,
		outPath: fullOut, stream: true, ckptPath: filepath.Join(dir, "full.ckpt")}
	if err := run(context.Background(), fullCfg); err != nil {
		t.Fatal(err)
	}

	// Interrupted first attempt: same journal/output files the resumed
	// CLI run will pick up, canceled right after chromosome 1 commits.
	ckpt := filepath.Join(dir, "resume.ckpt")
	partialOut := filepath.Join(dir, "resume.tsv")
	pf, err := os.Create(partialOut)
	if err != nil {
		t.Fatal(err)
	}
	gf, err := os.Open(genomePath)
	if err != nil {
		t.Fatal(err)
	}
	if err := crisprscan.WriteSitesTSVHeader(pf); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	_, err = crisprscan.SearchStreamCheckpoint(ctx, gf, guides, params, ckpt,
		func() error { cancel(); return nil },
		func(s crisprscan.Site) error { return crisprscan.WriteSiteTSV(pf, s) })
	gf.Close()
	if cerr := pf.Close(); cerr != nil {
		t.Fatal(cerr)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("setup interruption failed: %v", err)
	}

	// Resume with the same arguments through the CLI entry point.
	resumeCfg := &config{genomePath: genomePath, guidesPath: guidesPath, k: 2, pam: "NGG", workers: 1,
		outPath: partialOut, stream: true, ckptPath: ckpt}
	if err := run(context.Background(), resumeCfg); err != nil {
		t.Fatal(err)
	}

	full, err := os.ReadFile(fullOut)
	if err != nil {
		t.Fatal(err)
	}
	resumed, err := os.ReadFile(partialOut)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(full, resumed) {
		t.Fatalf("resumed output (%d bytes) is not byte-identical to the uninterrupted run (%d bytes)",
			len(resumed), len(full))
	}

	// Resuming with a different mismatch budget must be rejected.
	badCfg := &config{genomePath: genomePath, guidesPath: guidesPath, k: 3, pam: "NGG", workers: 1,
		outPath: filepath.Join(dir, "bad.tsv"), stream: true, ckptPath: ckpt}
	if err := run(context.Background(), badCfg); err == nil || !strings.Contains(err.Error(), "different parameters") {
		t.Fatalf("changed -k must be rejected on resume, got %v", err)
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// TestRunStatsLogsModeledTimeInBothModes pins that -stats reports the
// modeled device time and device resources of a modeled platform in
// streaming mode exactly as in batch mode.
func TestRunStatsLogsModeledTimeInBothModes(t *testing.T) {
	genomePath, guidesPath, _ := cliFixture(t, 809)
	for _, stream := range []bool{false, true} {
		var logs bytes.Buffer
		cfg := &config{genomePath: genomePath, guidesPath: guidesPath, k: 2, pam: "NGG", workers: 1,
			engineName: "ap", stats: true, stream: stream,
			outPath: filepath.Join(t.TempDir(), "sites.tsv"),
			log:     slog.New(slog.NewTextHandler(&logs, nil))}
		if err := run(context.Background(), cfg); err != nil {
			t.Fatal(err)
		}
		for _, line := range []string{`msg="modeled device time"`, `msg="device resources"`} {
			if !strings.Contains(logs.String(), line) {
				t.Errorf("stream=%v: -stats output lacks %s:\n%s", stream, line, logs.String())
			}
		}
	}
}
