package main

import (
	"encoding/json"
	"fmt"
	"os"
	"time"
)

// A span records one call into a layer from the benchmark's own code.
// Name is the metric the span's self time is charged to ("hscan.scan",
// "report.write"); the job's root span is named residualName, so its
// self time is the part of the job no layer span covers.
type span struct {
	Name   string `json:"name"`
	Job    int    `json:"job"`
	Parent int    `json:"parent"` // index into the tracer's spans; -1 for a root
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

const residualName = "residual"

// tracer keeps every span of a traced run in memory; write dumps them
// when the run ends. It is not safe for concurrent use: every traced
// call is made from the one client goroutine.
type tracer struct {
	origin time.Time
	job    int
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.origin)) }

// begin opens a span under parent and returns its index.
func (t *tracer) begin(name string, parent int) int {
	t.spans = append(t.spans, span{Name: name, Job: t.job, Parent: parent, Start: t.now(), End: -1})
	return len(t.spans) - 1
}

// end closes span i.
func (t *tracer) end(i int) { t.spans[i].End = t.now() }

// add records a span whose interval was measured elsewhere (a span of
// the service's own trace, re-parented under a benchmark span).
func (t *tracer) add(name string, parent int, start, end int64) int {
	t.spans = append(t.spans, span{Name: name, Job: t.job, Parent: parent, Start: start, End: end})
	return len(t.spans) - 1
}

// call times fn as a span named name under parent.
func (t *tracer) call(name string, parent int, fn func() error) error {
	i := t.begin(name, parent)
	err := fn()
	t.end(i)
	return err
}

// write dumps the spans as JSON to path.
func (t *tracer) write(path string) error {
	b, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// selfTimes returns each span's self time: its duration minus the
// durations of its direct children. Summed over one job's spans the
// self times telescope to the root's duration, which is the layer-sum
// identity the traced run checks.
func selfTimes(spans []span) []int64 {
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] += s.End - s.Start
		if s.Parent >= 0 {
			self[s.Parent] -= s.End - s.Start
		}
	}
	return self
}

// jobBreakdown is one traced job: its wall time and the self time
// charged to each span name.
type jobBreakdown struct {
	Wall  int64
	Self  map[string]int64
	roots int
}

// breakdowns folds spans into per-job breakdowns and checks, for every
// job, that the self times of its spans sum exactly to the wall time of
// its root span. A span that is unclosed or runs backwards, whose
// children outlast it, or that hangs under another job's span is
// reported.
func breakdowns(spans []span) ([]jobBreakdown, error) {
	self := selfTimes(spans)
	byJob := map[int]*jobBreakdown{}
	var order []int
	for i, s := range spans {
		if s.End < s.Start {
			return nil, fmt.Errorf("span %d (%s) of job %d is unclosed or runs backwards", i, s.Name, s.Job)
		}
		if self[i] < 0 {
			return nil, fmt.Errorf("span %d (%s) of job %d: its children last %d ns longer than it does", i, s.Name, s.Job, -self[i])
		}
		if s.Parent >= 0 && spans[s.Parent].Job != s.Job {
			return nil, fmt.Errorf("span %d (%s) of job %d hangs under job %d", i, s.Name, s.Job, spans[s.Parent].Job)
		}
		b := byJob[s.Job]
		if b == nil {
			b = &jobBreakdown{Self: map[string]int64{}}
			byJob[s.Job] = b
			order = append(order, s.Job)
		}
		if s.Parent < 0 {
			b.roots++
			b.Wall = s.End - s.Start
		}
		b.Self[s.Name] += self[i]
	}
	out := make([]jobBreakdown, 0, len(order))
	for _, j := range order {
		b := byJob[j]
		if b.roots != 1 {
			return nil, fmt.Errorf("job %d has %d root spans, want 1", j, b.roots)
		}
		var sum int64
		for _, v := range b.Self {
			sum += v
		}
		if sum != b.Wall {
			return nil, fmt.Errorf("job %d: layer self times sum to %d ns, wall time is %d ns", j, sum, b.Wall)
		}
		out = append(out, *b)
	}
	return out, nil
}
