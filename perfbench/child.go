package main

import (
	"fmt"
	"runtime"
	rtmetrics "runtime/metrics"
	"sort"
	"strings"
	"syscall"
	"time"
)

// Run sizes. setupReps set-ups are timed and their median reported;
// warmups jobs run untimed before the timed phase; minJobs is the
// fewest timed jobs that support a p90 (see minBeyond). The timed phase
// runs for the requested seconds and until minJobs jobs completed; it
// gives up at maxStretch times the requested seconds.
const (
	setupReps  = 5
	warmups    = 5
	minJobs    = 100
	maxStretch = 3
	// residualWarn is the residual share of job wall time above which
	// the traced run reports that its layers leave too much unexplained.
	residualWarn = 0.05
)

// childResult is what the workload process hands back to the driver.
type childResult struct {
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Errors    []string           `json:"errors,omitempty"`
	Metrics   map[string]float64 `json:"metrics"`
	Notes     []string           `json:"notes,omitempty"`
}

// tally counts job outcomes. Every job is checked against its
// reference digest; a job that errs or whose output differs counts as
// failed and is left out of the timings.
type tally struct {
	attempted, failed int
	errs              []string
}

func (t *tally) record(err error) bool {
	t.attempted++
	if err == nil {
		return true
	}
	t.failed++
	if len(t.errs) < 5 {
		t.errs = append(t.errs, err.Error())
	}
	return false
}

// checkedJob runs one untraced job, returns its latency (request to
// last output byte), then checks the output outside the timing.
func checkedJob(r runner, m *manifest, set int) (time.Duration, error) {
	prepare(r)
	t0 := time.Now()
	out, err := r.job(set)
	d := time.Since(t0)
	if err != nil {
		return d, err
	}
	return d, checkOutput(out, m.Digests[set])
}

// prepare readies the process for the next job, outside its timing. A
// batch job starts on a freshly collected heap, the heap a new CLI
// process would have; otherwise the heap a job inherits depends on
// where the last collection fell, and so do its latency and the
// process's peak RSS. The service and the index keep their heaps, as a
// long-lived process does.
func prepare(r runner) {
	if _, ok := r.(*batchRunner); ok {
		runtime.GC()
	}
}

func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// runWorkload is the workload process: set up, warm up, then either the
// timed untraced phase or the traced phase.
func runWorkload(m *manifest) (*childResult, error) {
	r, err := newRunner(m)
	if err != nil {
		return nil, err
	}
	res := &childResult{Metrics: map[string]float64{}}
	var tl tally
	var setups []float64
	for i := 0; i < setupReps; i++ {
		d, err := r.setup()
		if !tl.record(err) {
			break
		}
		setups = append(setups, d.Seconds())
	}
	res.Metrics["setup_s"] = median(setups)
	if tl.failed == 0 {
		for i := 0; i < warmups; i++ {
			_, err := checkedJob(r, m, i%len(m.GuideSets))
			tl.record(err)
		}
	}
	if tl.failed == 0 {
		if m.Trace {
			err = tracedPhase(r, m, res, &tl)
		} else {
			err = timedPhase(r, m, res, &tl)
		}
	}
	if cerr := r.close(); err == nil {
		err = cerr
	}
	res.Attempted, res.Failed, res.Errors = tl.attempted, tl.failed, tl.errs
	return res, err
}

// timedPhase is one client in a closed loop: the next job is submitted
// when the previous one has completed and been checked.
func timedPhase(r runner, m *manifest, res *childResult, tl *tally) error {
	var lats []float64
	deadline := time.Duration(m.Seconds * float64(time.Second))
	cpu0 := cpuSeconds()
	t0 := time.Now()
	for i := 0; ; i++ {
		el := time.Since(t0)
		if el >= deadline && len(lats) >= minJobs || el >= maxStretch*deadline {
			break
		}
		d, err := checkedJob(r, m, i%len(m.GuideSets))
		if tl.record(err) {
			lats = append(lats, d.Seconds())
		}
	}
	wall := time.Since(t0).Seconds()
	cpu := cpuSeconds() - cpu0
	p90, err := percentile(lats, 0.9)
	if err != nil {
		return fmt.Errorf("timed phase: %w", err)
	}
	res.Metrics["job_p50_s"] = median(lats)
	res.Metrics["job_p90_s"] = p90
	res.Metrics["jobs_per_s"] = float64(len(lats)) / wall
	res.Metrics["cpu_s_per_job"] = cpu / float64(len(lats))
	res.Metrics["jobs"] = float64(len(lats))
	return nil
}

// perLayer lists the traced run's metrics in report order. Every
// workload reports all of them; a layer a workload never enters reads 0.
var perLayer = []metricSpec{
	{"genome.load_s", "s"}, {"genome.load_mbp_per_s", "Mbp/s"},
	{"core.compile_s", "s"},
	{"hscan.scan_s", "s"}, {"hscan.ns_per_base", "ns"},
	{"hscan.pam_hits", "count"}, {"hscan.compares", "count"},
	{"hscan.compares_per_pam_hit", "1"}, {"hscan.sites_per_compare", "1"},
	{"arch.chunks", "count"},
	{"report.resolve_s", "s"}, {"report.sort_s", "s"}, {"report.events", "count"},
	{"report.sites", "count"}, {"report.write_s", "s"}, {"report.out_bytes", "B"},
	{"seedindex.load_s", "s"}, {"seedindex.validate_s", "s"}, {"seedindex.query_s", "s"},
	{"seedindex.verifications", "count"}, {"seedindex.sites_per_verification", "1"},
	{"scanserve.submit_s", "s"}, {"scanserve.queue_wait_s", "s"}, {"scanserve.run_s", "s"},
	{"scanserve.cache_load_s", "s"}, {"scanserve.output_s", "s"},
	{"scanserve.scan_s", "s"}, {"scanserve.overhead_s", "s"},
	{"scanserve.retries", "count"}, {"scanserve.shed", "count"},
	{"checkpoint.commit_s", "s"},
	{"go.alloc_mb_per_job", "MB"}, {"go.gc_cycles_per_job", "count"},
	{"metrics.trace_overhead_s", "s"},
	{"residual_s", "s"}, {"residual_share", "1"},
}

// goCounters reads the runtime's cumulative allocation and GC counts
// without stopping the world.
func goCounters() (allocBytes, gcCycles float64) {
	s := []rtmetrics.Sample{{Name: "/gc/heap/allocs:bytes"}, {Name: "/gc/cycles/total:gc-cycles"}}
	rtmetrics.Read(s)
	return float64(s[0].Value.Uint64()), float64(s[1].Value.Uint64())
}

// tracedPhase runs rounds of the workload's guide sets, each set once
// untraced and once traced, until the requested seconds have passed
// (at least one round). Every round is the same job list, so counts per
// job are exact and identical between runs of one seed. Timings per job
// are means, so the layers and the residual add up to the mean job wall
// time.
func tracedPhase(r runner, m *manifest, res *childResult, tl *tally) error {
	t := newTracer()
	l := newLayerTotals()
	var plain, traced []float64
	var allocs, gcs float64
	deadline := time.Duration(m.Seconds * float64(time.Second))
	start := time.Now()
	for round := 0; round == 0 || time.Since(start) < deadline; round++ {
		for set := range m.GuideSets {
			d, err := checkedJob(r, m, set)
			if tl.record(err) {
				plain = append(plain, d.Seconds())
			}
			prepare(r)
			a0, g0 := goCounters()
			root := t.begin(residualName, -1)
			out, err := r.traced(set, t, root, l)
			t.end(root)
			a1, g1 := goCounters()
			allocs, gcs = allocs+a1-a0, gcs+g1-g0
			if err == nil {
				err = checkOutput(out, m.Digests[set])
			}
			if err == nil {
				if p, ok := r.(prober); ok {
					err = p.probe(set, l)
				}
			}
			if !tl.record(err) {
				return fmt.Errorf("traced job: %w", err)
			}
			traced = append(traced, float64(t.spans[root].End-t.spans[root].Start)/1e9)
			t.job++
		}
	}
	if err := t.write(m.Spans); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	jobs, err := breakdowns(t.spans)
	if err != nil {
		return fmt.Errorf("layer-sum check: %w", err)
	}
	n := float64(len(jobs))
	self := map[string]float64{}
	var wall float64
	for _, j := range jobs {
		wall += float64(j.Wall) / 1e9 / n
		for name, ns := range j.Self {
			self[name] += float64(ns) / 1e9 / n
		}
	}
	mt := res.Metrics
	for name, v := range self {
		if name == residualName {
			mt["residual_s"] = v
		} else {
			mt[name+"_s"] = v
		}
	}
	for name, v := range l.counts {
		mt[name] = v / n
	}
	for name, xs := range l.probes {
		mt[name+"_s"] = median(xs)
	}
	mbp := float64(m.Bases) / 1e6
	if v := mt["genome.load_s"]; v > 0 {
		mt["genome.load_mbp_per_s"] = mbp / v
	}
	if v := mt["hscan.scan_s"]; v > 0 {
		mt["hscan.ns_per_base"] = v * 1e9 / float64(m.Bases)
	}
	if v := mt["hscan.pam_hits"]; v > 0 {
		mt["hscan.compares_per_pam_hit"] = mt["hscan.compares"] / v
	}
	if v := mt["hscan.compares"]; v > 0 {
		mt["hscan.sites_per_compare"] = mt["report.sites"] / v
	}
	if v := mt["seedindex.verifications"]; v > 0 {
		mt["seedindex.sites_per_verification"] = mt["report.sites"] / v
	}
	if m.Workload == "index-query" {
		mt["seedindex.load_s"] = mt["setup_s"]
	}
	if v, ok := mt["scanserve.scan_s"]; ok {
		mt["scanserve.overhead_s"] = wall - v
	}
	mt["go.alloc_mb_per_job"] = allocs / n / (1 << 20)
	mt["go.gc_cycles_per_job"] = gcs / n
	mt["metrics.trace_overhead_s"] = median(traced) - median(plain)
	mt["residual_share"] = mt["residual_s"] / wall
	mt["jobs"] = n
	res.Notes = append(res.Notes, layerTable(self, wall, len(jobs)))
	if share := mt["residual_share"]; share > residualWarn {
		res.Notes = append(res.Notes, fmt.Sprintf("WARNING: residual is %.1f%% of job wall time, above the %.0f%% the layers should leave", share*100, residualWarn*100))
	}
	return nil
}

// layerTable renders the layer-sum check: every span name's mean self
// time, their sum, and the wall time it must equal.
func layerTable(self map[string]float64, wall float64, jobs int) string {
	names := make([]string, 0, len(self))
	for n := range self {
		names = append(names, n)
	}
	sort.Strings(names)
	var b strings.Builder
	fmt.Fprintf(&b, "layer-sum check over %d traced jobs (mean seconds per job):\n", jobs)
	var sum float64
	for _, n := range names {
		sum += self[n]
		fmt.Fprintf(&b, "  %-24s %12.6f  %5.1f%%\n", n, self[n], 100*self[n]/wall)
	}
	fmt.Fprintf(&b, "  %-24s %12.6f\n  %-24s %12.6f", "sum", sum, "job wall", wall)
	return b.String()
}
