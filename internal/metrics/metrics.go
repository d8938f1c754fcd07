// Package metrics is the scan-observability subsystem: a
// zero-dependency, low-overhead instrumentation layer that every
// execution engine and the orchestrator report into. It provides
//
//   - monotonic phase timers for the five pipeline stages
//     (load / compile / prefilter / verify / report),
//   - atomic event counters (bytes scanned, candidate windows,
//     prefilter hits, verifications, sites emitted, chunks dispatched,
//     worker panics recovered),
//   - a log2-bucketed histogram sketch of per-chunk scan latency, and
//   - pluggable trace hooks (Tracer) that can render any scan as a
//     Chrome trace-event timeline.
//
// A *Recorder is shared by the orchestrator, the arch.ChunkScan worker
// pool and the engines; every Search* result carries an immutable
// Snapshot of it. All Recorder methods are safe for concurrent use and
// are no-ops on a nil receiver, so uninstrumented paths (direct engine
// benchmarks, the accelerator models' analytic code) pay only a nil
// check.
//
// This package is also the module's single clock authority: the
// clockguard analyzer forbids raw time.Now/time.Since everywhere else,
// so wall-clock reads funnel through Now/Stopwatch/Wall here and the
// modeled platforms provably stay analytic.
package metrics

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
)

// Phase identifies one stage of the search pipeline.
type Phase uint8

// The pipeline stages, in execution order.
const (
	// PhaseLoad is input decoding: FASTA parsing and sequence packing
	// (only the streaming pipeline loads inside the measured region;
	// in-memory searches load before Search starts and report zero).
	PhaseLoad Phase = iota
	// PhaseCompile is pattern-set compilation: guide expansion, automata
	// construction, engine build, device placement.
	PhaseCompile
	// PhasePrefilter is the raw engine scan — the candidate-generating
	// pass (literal prefilter, bitap sweep, automata simulation, ...)
	// excluding the per-event verification charged to PhaseVerify.
	PhasePrefilter
	// PhaseVerify is event resolution: re-verifying each raw match
	// against the sequence, mismatch counting and deduplication.
	PhaseVerify
	// PhaseReport is output assembly: site sorting, coordinate
	// adjustment and delivery to the caller.
	PhaseReport
	// NumPhases bounds the Phase enum.
	NumPhases
)

// String returns the canonical lower-case phase name.
func (p Phase) String() string {
	switch p {
	case PhaseLoad:
		return "load"
	case PhaseCompile:
		return "compile"
	case PhasePrefilter:
		return "prefilter"
	case PhaseVerify:
		return "verify"
	case PhaseReport:
		return "report"
	}
	return fmt.Sprintf("phase(%d)", int(p))
}

// Counter identifies one atomic event counter.
type Counter uint8

// The counters every instrumented scan maintains.
const (
	// CounterBytesScanned counts reference bases streamed through the
	// engine — the throughput denominator. It is incremented once per
	// completed chromosome by the orchestrator (never per chunk, where
	// overlap regions would double-count; see the accounting regression
	// tests in internal/core).
	CounterBytesScanned Counter = iota
	// CounterCandidateWindows counts window positions the engine
	// examined as potential sites (for CasOT, positions x patterns,
	// matching its per-guide rescan cost structure).
	CounterCandidateWindows
	// CounterPrefilterHits counts candidate windows that survived the
	// cheap first stage (PAM literal filter); zero for engines without a
	// staged prefilter. In the hyperscan prefilter kernel a hit is one
	// (anchor, PAM group) pair whose PAM matches and whose site holds no
	// ambiguous base: exactly the windows that reach the guide stage.
	CounterPrefilterHits
	// CounterVerifications counts full pattern evaluations performed on
	// surviving candidates (packed XOR/popcount confirms, byte-wise
	// mismatch counts): the compares actually run, not an upper bound.
	//
	// Invariants of the hyperscan prefilter kernel, tested in
	// internal/hscan:
	//   - verifications <= prefilter_hits x patterns-in-group, summed
	//     over PAM groups (the guide filter compares each guide at most
	//     once per hit, and only the guides its fragment tables list);
	//   - equality holds when every group falls back to the all-guides
	//     compare;
	//   - reports <= verifications (every report comes from a compare).
	CounterVerifications
	// CounterSitesEmitted counts verified, deduplicated sites delivered
	// to the caller.
	CounterSitesEmitted
	// CounterChunksDispatched counts work units handed to the
	// arch.ChunkScan worker pool.
	CounterChunksDispatched
	// CounterPanicsRecovered counts worker panics converted to errors
	// by the pool's isolation guard.
	CounterPanicsRecovered
	// NumCounters bounds the Counter enum.
	NumCounters
)

// String returns the canonical snake_case counter name.
func (c Counter) String() string {
	switch c {
	case CounterBytesScanned:
		return "bytes_scanned"
	case CounterCandidateWindows:
		return "candidate_windows"
	case CounterPrefilterHits:
		return "prefilter_hits"
	case CounterVerifications:
		return "verifications"
	case CounterSitesEmitted:
		return "sites_emitted"
	case CounterChunksDispatched:
		return "chunks_dispatched"
	case CounterPanicsRecovered:
		return "panics_recovered"
	}
	return fmt.Sprintf("counter(%d)", int(c))
}

// Recorder accumulates metrics for one search execution. The zero
// value is not usable; construct with NewRecorder. A nil *Recorder is
// a valid no-op sink for every method.
type Recorder struct {
	phases   [NumPhases]atomic.Int64
	counters [NumCounters]atomic.Int64
	chunkLat Histogram

	// tracer is set once before scanning via SetTracer; spans are
	// emitted only while non-nil.
	tracer Tracer

	// traceID is set once before scanning via SetTraceID; while
	// non-empty, chunk latencies carry it as a histogram exemplar so a
	// slow bucket links to the concrete trace that produced it.
	traceID string

	// progress is set once before scanning via SetProgress; chunk
	// completions advance it only while non-nil.
	progress *Progress

	// modeled holds the analytic device-time entries the orchestrator
	// charges for modeled platforms (seconds, keyed by model step).
	mu      sync.Mutex
	modeled map[string]float64 // guarded by mu
}

// NewRecorder returns an empty recorder.
func NewRecorder() *Recorder { return &Recorder{} }

// SetTracer installs t as the span sink. Call before scanning starts;
// a nil t detaches tracing.
func (r *Recorder) SetTracer(t Tracer) {
	if r == nil {
		return
	}
	r.tracer = t
}

// Tracer returns the attached span sink (nil when detached).
func (r *Recorder) Tracer() Tracer {
	if r == nil {
		return nil
	}
	return r.tracer
}

// SetTraceID attaches the request's trace identity (32 hex chars) for
// exemplar annotation on the chunk-latency histogram. Call before
// scanning starts; an empty id detaches exemplars.
func (r *Recorder) SetTraceID(id string) {
	if r == nil {
		return
	}
	r.traceID = id
}

// TraceID returns the attached trace identity ("" when detached).
func (r *Recorder) TraceID() string {
	if r == nil {
		return ""
	}
	return r.traceID
}

// SetProgress installs p as the live progress sink: every chunk the
// worker pool completes advances it by the chunk's input span. Call
// before scanning starts; a nil p detaches progress tracking.
func (r *Recorder) SetProgress(p *Progress) {
	if r == nil {
		return
	}
	r.progress = p
}

// Progress returns the attached progress tracker (nil when detached —
// and a nil *Progress is itself a valid no-op sink).
func (r *Recorder) Progress() *Progress {
	if r == nil {
		return nil
	}
	return r.progress
}

// Add increments counter c by n.
func (r *Recorder) Add(c Counter, n int64) {
	if r == nil || n == 0 {
		return
	}
	r.counters[c].Add(n)
}

// CounterValue returns the current value of counter c.
func (r *Recorder) CounterValue(c Counter) int64 {
	if r == nil {
		return 0
	}
	return r.counters[c].Load()
}

// AddPhaseNanos charges ns nanoseconds to phase p. Hot paths that
// cannot afford a closure use this with a pair of Now() reads.
func (r *Recorder) AddPhaseNanos(p Phase, ns int64) {
	if r == nil || ns == 0 {
		return
	}
	r.phases[p].Add(ns)
}

// PhaseNanos returns the nanoseconds accumulated against phase p.
func (r *Recorder) PhaseNanos(p Phase) int64 {
	if r == nil {
		return 0
	}
	return r.phases[p].Load()
}

// StartPhase begins timing phase p (and opens a tracer span named
// after the phase); the returned func stops the timer and charges the
// elapsed interval to p.
func (r *Recorder) StartPhase(p Phase) func() {
	if r == nil {
		return func() {}
	}
	return r.StartSpan(p, p.String())
}

// StartSpan is StartPhase with an explicit span label (for example
// "prefilter chr7"); the elapsed interval is charged to p.
func (r *Recorder) StartSpan(p Phase, label string) func() {
	if r == nil {
		return func() {}
	}
	endTrace := r.traceStart(label)
	start := Now()
	return func() {
		r.phases[p].Add(Now() - start)
		endTrace()
	}
}

// TraceSpan opens a tracer span without charging any phase — used
// where the caller accounts phase time itself (per-chromosome scan
// spans whose verify sub-intervals are subtracted out).
func (r *Recorder) TraceSpan(label string) func() {
	if r == nil {
		return func() {}
	}
	return r.traceStart(label)
}

// Traced reports whether a tracer is attached. Hot paths use it to
// skip building span labels that nobody would record.
func (r *Recorder) Traced() bool {
	return r != nil && r.tracer != nil
}

// traceStart opens a span on the attached tracer, if any.
func (r *Recorder) traceStart(label string) func() {
	if t := r.tracer; t != nil {
		return t.StartSpan(label)
	}
	return func() {}
}

// StartChunk instruments one worker-pool chunk spanning bytes input
// positions: it counts the dispatch, opens a tracer span, and — via
// the returned func — records the chunk's latency in the histogram
// sketch and advances the attached progress tracker. It charges no
// phase (the orchestrator times the enclosing scan).
func (r *Recorder) StartChunk(label string, bytes int64) func() {
	if r == nil {
		return func() {}
	}
	r.counters[CounterChunksDispatched].Add(1)
	endTrace := r.traceStart(label)
	start := Now()
	return func() {
		if lat := Now() - start; r.traceID != "" {
			r.chunkLat.ObserveTraced(lat, r.traceID)
		} else {
			r.chunkLat.Observe(lat)
		}
		r.progress.AddBytes(bytes)
		endTrace()
	}
}

// SetModeledSeconds records a one-time analytic model step (device
// configuration, synthesis), overwriting any previous value for name.
func (r *Recorder) SetModeledSeconds(name string, sec float64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.modeled == nil {
		r.modeled = make(map[string]float64)
	}
	r.modeled[name] = sec
}

// AddModeledSeconds accumulates a per-scan analytic model step
// (transfer, kernel, report) across chromosomes.
func (r *Recorder) AddModeledSeconds(name string, sec float64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.modeled == nil {
		r.modeled = make(map[string]float64)
	}
	r.modeled[name] += sec
}

// Snapshot returns an immutable copy of the recorder's state. It is
// safe to call while scanning continues (values are read atomically,
// per field).
func (r *Recorder) Snapshot() *Snapshot {
	if r == nil {
		return nil
	}
	s := &Snapshot{
		Phases: PhaseSeconds{
			Load:      secondsOf(r.phases[PhaseLoad].Load()),
			Compile:   secondsOf(r.phases[PhaseCompile].Load()),
			Prefilter: secondsOf(r.phases[PhasePrefilter].Load()),
			Verify:    secondsOf(r.phases[PhaseVerify].Load()),
			Report:    secondsOf(r.phases[PhaseReport].Load()),
		},
		Counters: CounterTotals{
			BytesScanned:     r.counters[CounterBytesScanned].Load(),
			CandidateWindows: r.counters[CounterCandidateWindows].Load(),
			PrefilterHits:    r.counters[CounterPrefilterHits].Load(),
			Verifications:    r.counters[CounterVerifications].Load(),
			SitesEmitted:     r.counters[CounterSitesEmitted].Load(),
			ChunksDispatched: r.counters[CounterChunksDispatched].Load(),
			PanicsRecovered:  r.counters[CounterPanicsRecovered].Load(),
		},
		ChunkLatency: r.chunkLat.Snapshot(),
	}
	r.mu.Lock()
	if len(r.modeled) > 0 {
		s.ModeledSec = make(map[string]float64, len(r.modeled))
		for k, v := range r.modeled {
			s.ModeledSec[k] = v
		}
	}
	r.mu.Unlock()
	return s
}

func secondsOf(ns int64) float64 { return float64(ns) / 1e9 }

// PhaseSeconds is the per-phase wall-clock breakdown of one search, in
// seconds. Phases not exercised by a pipeline (load, for in-memory
// searches) report zero.
type PhaseSeconds struct {
	// Load is input decoding time (FASTA parse + pack; streaming only).
	Load float64 `json:"load"`
	// Compile is pattern-set compilation and engine-build time.
	Compile float64 `json:"compile"`
	// Prefilter is raw engine scan time (candidate generation),
	// excluding per-event verification.
	Prefilter float64 `json:"prefilter"`
	// Verify is event-resolution time (re-verification, dedup).
	Verify float64 `json:"verify"`
	// Report is output-assembly time (sorting, yield delivery).
	Report float64 `json:"report"`
}

// Total sums every phase.
func (p PhaseSeconds) Total() float64 {
	return p.Load + p.Compile + p.Prefilter + p.Verify + p.Report
}

// CounterTotals is the counter block of a Snapshot; see the Counter
// constants for each field's exact semantics.
type CounterTotals struct {
	// BytesScanned is the reference bases streamed through the engine.
	BytesScanned int64 `json:"bytes_scanned"`
	// CandidateWindows is the window positions examined.
	CandidateWindows int64 `json:"candidate_windows"`
	// PrefilterHits is the candidates surviving the literal prefilter.
	PrefilterHits int64 `json:"prefilter_hits"`
	// Verifications is the full pattern evaluations performed.
	Verifications int64 `json:"verifications"`
	// SitesEmitted is the verified, deduplicated sites delivered.
	SitesEmitted int64 `json:"sites_emitted"`
	// ChunksDispatched is the worker-pool work units executed.
	ChunksDispatched int64 `json:"chunks_dispatched"`
	// PanicsRecovered is the worker panics isolated into errors.
	PanicsRecovered int64 `json:"panics_recovered"`
}

// Snapshot is the immutable metrics record attached to every search
// result (Stats.Metrics). All fields serialize to stable JSON for the
// benchmark trajectory.
type Snapshot struct {
	// Phases is the per-phase time breakdown in seconds.
	Phases PhaseSeconds `json:"phases_sec"`
	// Counters holds the atomic event counters' final values.
	Counters CounterTotals `json:"counters"`
	// ChunkLatency sketches the distribution of per-chunk scan latency
	// across the worker pool (zero Count when the engine never chunked).
	ChunkLatency HistogramSnapshot `json:"chunk_latency"`
	// ModeledSec holds the accelerator models' analytic device-time
	// steps in seconds (compile/transfer/kernel/report), summed across
	// chromosome scans; nil for measured engines.
	ModeledSec map[string]float64 `json:"modeled_sec,omitempty"`
}

// String renders the snapshot as a compact single-line summary for
// -stats style diagnostics.
func (s *Snapshot) String() string {
	if s == nil {
		return "<nil>"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "phases[load=%.3fs compile=%.3fs prefilter=%.3fs verify=%.3fs report=%.3fs]",
		s.Phases.Load, s.Phases.Compile, s.Phases.Prefilter, s.Phases.Verify, s.Phases.Report)
	c := s.Counters
	fmt.Fprintf(&b, " bytes=%d candidates=%d hits=%d verifs=%d sites=%d chunks=%d panics=%d",
		c.BytesScanned, c.CandidateWindows, c.PrefilterHits, c.Verifications,
		c.SitesEmitted, c.ChunksDispatched, c.PanicsRecovered)
	if s.ChunkLatency.Count > 0 {
		fmt.Fprintf(&b, " chunk_lat[p50=%.1fms p99=%.1fms max=%.1fms]",
			s.ChunkLatency.P50Sec*1e3, s.ChunkLatency.P99Sec*1e3, s.ChunkLatency.MaxSec*1e3)
	}
	for _, k := range []string{"compile", "transfer", "kernel", "report"} {
		if v, ok := s.ModeledSec[k]; ok {
			fmt.Fprintf(&b, " modeled_%s=%.4gs", k, v)
		}
	}
	return b.String()
}
