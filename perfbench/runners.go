package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"time"

	"github.com/cap-repro/crisprscan"
	"github.com/cap-repro/crisprscan/internal/arch"
	"github.com/cap-repro/crisprscan/internal/automata"
	"github.com/cap-repro/crisprscan/internal/checkpoint"
	"github.com/cap-repro/crisprscan/internal/core"
	"github.com/cap-repro/crisprscan/internal/dna"
	"github.com/cap-repro/crisprscan/internal/metrics"
	"github.com/cap-repro/crisprscan/internal/report"
	"github.com/cap-repro/crisprscan/internal/scanserve"
)

// runner drives one workload through the system's public entry points.
// setup brings the system to where it can take its first job and
// returns how long that took; job runs one job untraced and returns the
// path of its output; traced runs the same job with a span around every
// layer call, under the job's root span.
type runner interface {
	setup() (time.Duration, error)
	job(set int) (string, error)
	traced(set int, t *tracer, root int, l *layerTotals) (string, error)
	close() error
}

// prober is a runner with timings taken after each traced job, outside
// its span tree: they size a layer's cost without adding to the job.
type prober interface {
	probe(set int, l *layerTotals) error
}

// layerTotals accumulates what a traced run measures outside the
// job's span tree: exact counters and probe timings.
type layerTotals struct {
	counts map[string]float64 // summed over traced jobs
	probes map[string][]float64
}

func newLayerTotals() *layerTotals {
	return &layerTotals{counts: map[string]float64{}, probes: map[string][]float64{}}
}

func (l *layerTotals) probe(name string, d time.Duration) {
	l.probes[name] = append(l.probes[name], d.Seconds())
}

func newRunner(m *manifest) (runner, error) {
	switch m.Workload {
	case "batch-many-guides", "batch-long-genome":
		return &batchRunner{m: m, out: filepath.Join(m.Dir, "out.tsv")}, nil
	case "serve-small-jobs":
		return &serveRunner{m: m}, nil
	case "index-query":
		return &indexRunner{m: m, out: filepath.Join(m.Dir, "out.tsv")}, nil
	}
	return nil, fmt.Errorf("unknown workload %q", m.Workload)
}

// engineWorkers is the engines' data-parallel width: one, so a job's
// latency does not depend on how many cores the host lends it.
const engineWorkers = 1

// writeTSV writes sites to path the way the batch CLI does.
func writeTSV(path string, sites []crisprscan.Site) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriterSize(f, 1<<16)
	if err := crisprscan.WriteSitesTSV(bw, sites); err != nil {
		f.Close()
		return err
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// batchRunner is the CLI path, once per job: load the FASTA, Search,
// write the TSV.
type batchRunner struct {
	m   *manifest
	out string
}

func (r *batchRunner) params() crisprscan.Params {
	return crisprscan.Params{MaxMismatches: r.m.K, Engine: crisprscan.EngineHyperscan, Workers: engineWorkers}
}

// setup is the first job from a cold heap: the runtime returns its
// memory to the OS first, so every set-up pays the page faults a fresh
// process pays.
func (r *batchRunner) setup() (time.Duration, error) {
	runtime.GC()
	debug.FreeOSMemory()
	t0 := time.Now()
	out, err := r.job(0)
	d := time.Since(t0)
	if err != nil {
		return 0, err
	}
	return d, checkOutput(out, r.m.Digests[0])
}

func (r *batchRunner) job(set int) (string, error) {
	g, err := crisprscan.LoadGenome(r.m.Genome)
	if err != nil {
		return "", err
	}
	res, err := crisprscan.Search(g, r.m.GuideSets[set], r.params())
	if err != nil {
		return "", err
	}
	return r.out, writeTSV(r.out, res.Sites)
}

func (r *batchRunner) traced(set int, t *tracer, root int, l *layerTotals) (string, error) {
	var g *crisprscan.Genome
	if err := t.call("genome.load", root, func() (err error) {
		g, err = crisprscan.LoadGenome(r.m.Genome)
		return err
	}); err != nil {
		return "", err
	}
	sites, err := tracedSearch(t, root, l, g, r.m.GuideSets[set], r.m.K, core.Params{Engine: core.EngineHyperscan}, "hscan.scan")
	if err != nil {
		return "", err
	}
	return r.out, t.call("report.write", root, func() error { return writeCounted(r.out, sites, l) })
}

// writeCounted is writeTSV that also counts the bytes written.
func writeCounted(path string, sites []crisprscan.Site, l *layerTotals) error {
	if err := writeTSV(path, sites); err != nil {
		return err
	}
	st, err := os.Stat(path)
	if err != nil {
		return err
	}
	l.counts["report.out_bytes"] += float64(st.Size())
	return nil
}

func (r *batchRunner) close() error { return nil }

// tracedSearch is crisprscan.Search taken apart at its layer seams, the
// same calls core.SearchContext makes in the same order: compile the
// engine (core), scan each chromosome (arch.ScanChrom into the engine
// kernel), resolve each event (report.Collector.Add, inside the emit
// callback), then dedup and sort (report.Collector.Sites). scanName
// names the layer charged with the kernel's self time.
func tracedSearch(t *tracer, root int, l *layerTotals, g *crisprscan.Genome, guides []crisprscan.Guide, k int, p core.Params, scanName string) ([]crisprscan.Site, error) {
	pats := make([]dna.Pattern, len(guides))
	for i, gd := range guides {
		pat, err := dna.ParsePattern(gd.Spacer)
		if err != nil {
			return nil, err
		}
		pats[i] = pat
	}
	pam, err := dna.ParsePattern("NGG")
	if err != nil {
		return nil, err
	}
	p.MaxMismatches, p.PAM, p.Workers = k, "NGG", engineWorkers
	specs := core.BuildSpecs(pats, pam, k, false)
	var engine arch.Engine
	if err := t.call("core.compile", root, func() (err error) {
		engine, err = core.NewEngine(p.Engine, specs, p)
		return err
	}); err != nil {
		return nil, err
	}
	rec := metrics.NewRecorder()
	arch.SetMetrics(engine, rec)
	resolver, err := report.NewResolverOriented(pats, false, pam)
	if err != nil {
		return nil, err
	}
	col := report.NewCollector(resolver)
	events := 0
	for ci := range g.Chroms {
		c := &g.Chroms[ci]
		var addErr error
		scan := t.begin(scanName, root)
		err := arch.ScanChrom(context.Background(), engine, c, func(ev automata.Report) {
			events++
			i := t.begin("report.resolve", scan)
			if e := col.Add(c, ev); e != nil && addErr == nil {
				addErr = e
			}
			t.end(i)
		})
		t.end(scan)
		if err == nil {
			err = addErr
		}
		if err != nil {
			return nil, fmt.Errorf("chromosome %s: %w", c.Name, err)
		}
	}
	var sites []crisprscan.Site
	_ = t.call("report.sort", root, func() error { sites = col.Sites(); return nil })
	ctr := rec.Snapshot().Counters
	l.counts["report.events"] += float64(events)
	l.counts["report.sites"] += float64(len(sites))
	l.counts["arch.chunks"] += float64(ctr.ChunksDispatched)
	switch scanName {
	case "hscan.scan":
		l.counts["hscan.pam_hits"] += float64(ctr.PrefilterHits)
		l.counts["hscan.compares"] += float64(ctr.Verifications)
	case "seedindex.query":
		l.counts["seedindex.verifications"] += float64(ctr.Verifications)
	}
	return sites, nil
}

// indexRunner queries a prebuilt .csix: set-up loads it, each job is
// Search on the seed-index engine over the genome the index carries.
type indexRunner struct {
	m   *manifest
	out string
	ix  *crisprscan.SeedIndex
	g   *crisprscan.Genome
}

func (r *indexRunner) setup() (time.Duration, error) {
	r.ix, r.g = nil, nil
	runtime.GC()
	debug.FreeOSMemory()
	t0 := time.Now()
	ix, err := crisprscan.LoadSeedIndex(r.m.Index)
	d := time.Since(t0)
	if err != nil {
		return 0, err
	}
	r.ix, r.g = ix, ix.Genome()
	return d, nil
}

func (r *indexRunner) job(set int) (string, error) {
	res, err := crisprscan.Search(r.g, r.m.GuideSets[set], crisprscan.Params{
		MaxMismatches: r.m.K, Engine: crisprscan.EngineSeedIndex, SeedIndex: r.ix, Workers: engineWorkers,
	})
	if err != nil {
		return "", err
	}
	return r.out, writeTSV(r.out, res.Sites)
}

func (r *indexRunner) traced(set int, t *tracer, root int, l *layerTotals) (string, error) {
	sites, err := tracedSearch(t, root, l, r.g, r.m.GuideSets[set], r.m.K,
		core.Params{Engine: core.EngineSeedIndex, SeedIndex: r.ix}, "seedindex.query")
	if err != nil {
		return "", err
	}
	return r.out, t.call("report.write", root, func() error { return writeCounted(r.out, sites, l) })
}

// probe times one ValidateGenome: the same per-chromosome SHA-256 pass
// the engine's staleness guard makes inside every query.
func (r *indexRunner) probe(_ int, l *layerTotals) error {
	t0 := time.Now()
	err := r.ix.ValidateGenome(r.g)
	l.probe("seedindex.validate", time.Since(t0))
	return err
}

func (r *indexRunner) close() error { return nil }

// serveRunner is one client of an in-process scanserve.Service with the
// production defaults: it submits a job, polls Get until the job is
// terminal, then reads the output back through OutputPath.
type serveRunner struct {
	m       *manifest
	svc     *scanserve.Service
	spools  int
	refused int                // submissions refused by admission control
	g       *crisprscan.Genome // the traced run's copy, for the direct-scan probe
}

// pollEvery is the client's Get interval while a job runs. On a 2-core
// host a 200 µs interval made jobs about 20% slower and the run-to-run
// spread wider than 1 ms did: the client's wake-ups compete with the
// service's workers for the same cores.
const pollEvery = time.Millisecond

func (r *serveRunner) config(dir string) scanserve.Config {
	return scanserve.Config{
		Dir:           dir,
		DefaultGenome: r.m.Genome,
		Workers:       2,
		// Admission runs but never refuses: the quota sits far above
		// what one closed-loop client can offer. (QuotaRate 0 would
		// mean the default of 1 job/s, not "off".)
		QuotaRate:  1e6,
		QuotaBurst: 1 << 20,
		Seed:       r.m.Seed,
		Log:        slog.New(slog.NewTextHandler(io.Discard, nil)),
	}
}

// setup starts a fresh service on a fresh spool and runs its first
// job, which misses the genome cache.
func (r *serveRunner) setup() (time.Duration, error) {
	if err := r.close(); err != nil {
		return 0, err
	}
	r.spools++
	dir := filepath.Join(r.m.Dir, fmt.Sprintf("spool%d", r.spools))
	runtime.GC()
	debug.FreeOSMemory()
	t0 := time.Now()
	svc, err := scanserve.New(r.config(dir))
	if err != nil {
		return 0, err
	}
	svc.Start()
	r.svc = svc
	out, err := r.job(0)
	d := time.Since(t0)
	if err != nil {
		return 0, err
	}
	return d, checkOutput(out, r.m.Digests[0])
}

func (r *serveRunner) spec(set int) scanserve.JobSpec {
	gs := r.m.GuideSets[set]
	spec := scanserve.JobSpec{K: r.m.K, Guides: make([]scanserve.GuideSpec, len(gs))}
	for i, g := range gs {
		spec.Guides[i] = scanserve.GuideSpec{Name: g.Name, Spacer: g.Spacer}
	}
	return spec
}

func (r *serveRunner) submit(set int) (scanserve.Job, error) {
	job, err := r.svc.Submit("bench", r.spec(set))
	var ra *scanserve.RetryAfterError
	if errors.As(err, &ra) {
		r.refused++
		return job, fmt.Errorf("refused: %w", err)
	}
	return job, err
}

func (r *serveRunner) await(id string) error {
	for {
		job, ok := r.svc.Get(id)
		if !ok {
			return fmt.Errorf("job %s vanished", id)
		}
		if job.State.Terminal() {
			if job.State != scanserve.StateDone {
				return fmt.Errorf("job %s ended %s: %s", id, job.State, job.Error)
			}
			return nil
		}
		time.Sleep(pollEvery)
	}
}

// download reads the job's output to the last byte, as a client
// streaming it would.
func (r *serveRunner) download(id string) (string, error) {
	path, _, ok := r.svc.OutputPath(id)
	if !ok {
		return "", fmt.Errorf("job %s has no output", id)
	}
	f, err := os.Open(path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	_, err = io.Copy(io.Discard, f)
	return path, err
}

func (r *serveRunner) job(set int) (string, error) {
	job, err := r.submit(set)
	if err != nil {
		return "", err
	}
	if err := r.await(job.ID); err != nil {
		return "", err
	}
	return r.download(job.ID)
}

// traced charges the client's submit and download to scanserve and
// grafts the service's own trace of the job (queue wait, attempt, and
// the attempt's cache-load, compile and scan spans) under the client's
// wait, which is otherwise unattributed.
func (r *serveRunner) traced(set int, t *tracer, root int, l *layerTotals) (string, error) {
	sub := t.begin("scanserve.submit", root)
	job, err := r.submit(set)
	t.end(sub)
	l.counts["scanserve.shed"] = float64(r.refused) // a running total, not a sum
	if err != nil {
		return "", err
	}
	wait := t.begin(residualName, root)
	err = r.await(job.ID)
	t.end(wait)
	if err != nil {
		return "", err
	}
	var out string
	if err := t.call("scanserve.output", root, func() (err error) {
		out, err = r.download(job.ID)
		return err
	}); err != nil {
		return "", err
	}
	if err := r.graft(t, wait, t.spans[sub].Start, job.ID); err != nil {
		return "", err
	}
	done, _ := r.svc.Get(job.ID)
	l.counts["scanserve.retries"] += float64(done.Retries)
	return out, nil
}

// serviceSpan maps a span name of the service's own trace to the
// benchmark span it becomes; false drops the span (its time stays with
// its parent).
func serviceSpan(name string) (string, bool) {
	switch {
	case name == "queue-wait":
		return "scanserve.queue_wait", true
	case strings.HasPrefix(name, "attempt "):
		return "scanserve.run", true
	case name == "cache-load":
		return "scanserve.cache_load", true
	case name == "compile":
		return "core.compile", true
	case strings.HasPrefix(name, "scan "):
		return "hscan.scan", true
	}
	return "", false
}

// graft reads the job's trace from the service's /debug/trace handler
// and re-parents its queue-wait and attempt spans (and the attempts'
// children) under parent, anchored at the client's submit time.
func (r *serveRunner) graft(t *tracer, parent int, anchor int64, id string) error {
	rr := httptest.NewRecorder()
	r.svc.TraceHandler().ServeHTTP(rr, httptest.NewRequest("GET", "/debug/trace/"+id, nil))
	if rr.Code != 200 {
		return fmt.Errorf("trace of job %s: HTTP %d: %s", id, rr.Code, rr.Body.String())
	}
	var tree metrics.SpanTree
	if err := json.Unmarshal(rr.Body.Bytes(), &tree); err != nil {
		return fmt.Errorf("trace of job %s: %w", id, err)
	}
	var walk func(n *metrics.SpanNode, parent int)
	walk = func(n *metrics.SpanNode, parent int) {
		for _, c := range n.Children {
			name, ok := serviceSpan(c.Name)
			if !ok {
				continue
			}
			i := t.add(name, parent, anchor+c.StartNs, anchor+c.StartNs+c.DurNs)
			if name == "scanserve.run" {
				walk(c, i)
			}
		}
	}
	walk(tree.Root, parent)
	return nil
}

// probe times the same scan through SearchGenomeStreamContext
// directly, without the service, and one checkpoint Journal.Commit on
// the spool filesystem.
func (r *serveRunner) probe(set int, l *layerTotals) error {
	if r.g == nil {
		g, err := crisprscan.LoadGenome(r.m.Genome)
		if err != nil {
			return err
		}
		r.g = g
	}
	bw := bufio.NewWriter(io.Discard)
	t0 := time.Now()
	_, err := crisprscan.SearchGenomeStreamContext(context.Background(), r.g, r.m.GuideSets[set],
		crisprscan.Params{MaxMismatches: r.m.K, Workers: engineWorkers}, nil,
		func(s crisprscan.Site) error { return crisprscan.WriteSiteTSV(bw, s) })
	l.probe("scanserve.scan", time.Since(t0))
	if err != nil {
		return err
	}
	path := filepath.Join(r.m.Dir, "probe.ckpt")
	_ = os.Remove(path) // a fresh journal each time; absent is fine
	j, err := checkpoint.Open(path, "probe")
	if err != nil {
		return err
	}
	t0 = time.Now()
	err = j.Commit(checkpoint.Entry{Chrom: "chr1", Sites: 1, ScannedBases: 1, OutBytes: 1})
	l.probe("checkpoint.commit", time.Since(t0))
	return err
}

func (r *serveRunner) close() error {
	if r.svc == nil {
		return nil
	}
	if n := r.svc.Drain(5 * time.Second); n != 0 {
		return fmt.Errorf("drain left %d jobs unfinished", n)
	}
	r.svc = nil
	return nil
}
