package arch

import (
	"context"
	"errors"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/cap-repro/crisprscan/internal/automata"
	"github.com/cap-repro/crisprscan/internal/dna"
	"github.com/cap-repro/crisprscan/internal/genome"
)

func kernelEngine(t *testing.T, workers int) (*NFAEngine, *genome.Chromosome) {
	t.Helper()
	spec := PatternSpec{Spacer: dna.MustParsePattern("ACGTACGTAC"), PAM: dna.MustParsePattern("NGG"), K: 2}
	e, err := NewNFAEngine("nfa", []PatternSpec{spec, spec.MinusSpec(1)}, NetworkOptions{Merge: true})
	if err != nil {
		t.Fatal(err)
	}
	e.Workers = workers
	seq := make(dna.Seq, 8*DefaultChunk)
	for i := range seq {
		seq[i] = dna.Base(i * 7 % 4)
	}
	return e, &genome.Chromosome{Name: "t", Seq: seq}
}

// TestNFAEngineCancelMidChromosome pins that the kernel stops at the
// next chunk boundary once ctx is done, and emits nothing.
func TestNFAEngineCancelMidChromosome(t *testing.T) {
	for _, workers := range []int{1, 2} {
		e, c := kernelEngine(t, workers)
		ctx, cancel := context.WithCancel(context.Background())
		var once sync.Once
		var after atomic.Int64
		e.chunkHook = func(lo, hi int) {
			once.Do(cancel)
			if ctx.Err() != nil {
				after.Add(1)
			}
		}
		emitted := 0
		err := e.ScanChromContext(ctx, c, func(automata.Report) { emitted++ })
		cancel()
		if !errors.Is(err, context.Canceled) || !strings.Contains(err.Error(), "canceled at chunk") {
			t.Fatalf("workers=%d: want a chunk-boundary cancellation, got %v", workers, err)
		}
		if got := after.Load(); got > int64(workers) {
			t.Fatalf("workers=%d: %d chunks started after cancel", workers, got)
		}
		if emitted != 0 {
			t.Fatalf("workers=%d: %d reports emitted from an aborted chromosome", workers, emitted)
		}
	}
}

func TestNFAEngineWorkerPanicIsolated(t *testing.T) {
	e, c := kernelEngine(t, 3)
	e.chunkHook = func(lo, hi int) {
		if lo > 0 {
			panic("injected worker fault")
		}
	}
	err := e.ScanChromContext(context.Background(), c, func(automata.Report) {})
	if err == nil || !strings.Contains(err.Error(), "worker panic on chunk") || !strings.Contains(err.Error(), "injected worker fault") {
		t.Fatalf("want the panic as a chunk error, got %v", err)
	}
}
